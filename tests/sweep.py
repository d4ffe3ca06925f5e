"""The scalar-argument sweep of ROADMAP item 10, shared by the test
modules: every public function over its scalar arguments, one at a time
from a valid point, with the same value sets everywhere.  Each call must
return a documented value or raise ``ValueError`` or ``NumericError``,
and never warn."""

import math

import pytest

FLOATS = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "0": 0.0, "-1": -1.0,
    "5e-324": 5e-324, "1e308": 1e308,
}
INTS = {**FLOATS, "2.0": 2.0, "2.5": 2.5, "int(1e308)": int(1e308), "10**6": 10**6}


def sweep_cases(table):
    """(fn, kwargs) params from rows of (function, a valid point, its
    integer arguments): each argument set to each value of its set."""
    for fn, point, ints in table:
        at = ",".join(f"{k}={v}" for k, v in point.items())
        for name in point:
            for label, value in (INTS if name in ints else FLOATS).items():
                yield pytest.param(fn, {**point, name: value}, id=f"{fn.__name__}-{at}-{name}={label}")
