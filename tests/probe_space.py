"""The fit probe space of ROADMAP item 17, shared by the fit and the
sampler properties: a log-uniform truth with b and c in [0.1, 10] and
beta in [0.3, 10], n in {5, 10, 20, 100, 500}, and no, 30% or 70%
uniform censoring from ``simulate_censored``."""

import math

from hypothesis import assume
from hypothesis import strategies as st

from kumiw import KumIwParams, NumericError
from kumiw.survdata import simulate_censored


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def probe_data(draw):
    p = KumIwParams(draw(_log_uniform(0.1, 10.0)), draw(_log_uniform(0.1, 10.0)), draw(_log_uniform(0.3, 10.0)))
    n = draw(st.sampled_from([5, 10, 20, 100, 500]))
    rate = draw(st.sampled_from([0.0, 0.3, 0.7]))
    seed = draw(st.integers(0, 2**32 - 1))
    try:
        return simulate_censored(p, n, rate, seed)
    except NumericError:  # a draw beyond the float range, at a very heavy tail
        assume(False)
