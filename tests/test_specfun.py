"""The special-function pieces the ``measures`` series engine is built from.

The signed generalized-binomial weights (``measures._weight_block``, summed
by ``measures._signed_series``) and the upper incomplete gamma behind the
partial first moment (``measures.upper_incomplete_gamma``), checked against
closed forms, identities and brute-force quadrature.
"""

import math

import numpy as np
import pytest

from kumiw.measures import DEFAULT_SERIES, _signed_series, _weight_block, upper_incomplete_gamma
from oracles import quad_lower_incomplete_gamma, quad_upper_incomplete_gamma


def gen_binomial_weight(b: float, r: int) -> float:
    """w_r(b), the coefficient of x^r in (1 - x)^(b-1), from the library's recurrence."""
    return float(_weight_block(b, 0, 1.0, r + 1)[-1])


class TestIncompleteGamma:
    def test_exponential_special_case(self):
        assert 1.0 - upper_incomplete_gamma(1.0, 1.0) == pytest.approx(1 - math.exp(-1), rel=1e-13)
        assert upper_incomplete_gamma(1.0, 2.0) == pytest.approx(math.exp(-2), rel=1e-13)

    def test_boundaries(self):
        assert upper_incomplete_gamma(0.5, 0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert upper_incomplete_gamma(1.0, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert upper_incomplete_gamma(0.5, math.inf) == 0.0

    @pytest.mark.parametrize("a,x", [(2.5, 1.7), (0.3, 0.9), (0.9, 0.01), (5.0, 30.0), (1.2, 8.0)])
    def test_against_quadrature_oracle(self, a, x):
        # the lower integral as Gamma(a) minus the library's upper one
        assert math.gamma(a) - upper_incomplete_gamma(a, x) == pytest.approx(
            quad_lower_incomplete_gamma(a, x), rel=1e-10
        )
        assert upper_incomplete_gamma(a, x) == pytest.approx(
            quad_upper_incomplete_gamma(a, x), rel=1e-10
        )

    def test_complement_identity_random(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            a = float(np.exp(rng.uniform(np.log(0.05), np.log(40.0))))
            x = float(rng.uniform(0.0, 3.0 * a + 2.0))
            total = quad_lower_incomplete_gamma(a, x) + upper_incomplete_gamma(a, x)
            assert total == pytest.approx(math.gamma(a), rel=1e-10)

    def test_monotone_and_limit_in_x(self):
        for a in (0.4, 1.0, 3.3):
            xs = np.linspace(0.0, 8.0 * a + 4.0, 40)
            vals = upper_incomplete_gamma(a, xs)
            assert vals[0] == pytest.approx(math.gamma(a), rel=1e-14)
            assert np.all(np.diff(vals) <= 1e-15)
            # at x = 50a the true tail is ~ (50a)^(a-1) e^(-50a)
            tail_bound = 3.0 * (50.0 * a) ** a * math.exp(-50.0 * a)
            assert 0.0 <= upper_incomplete_gamma(a, 50.0 * a) <= tail_bound


class TestGenBinomialWeight:
    def test_shape_one(self):
        assert gen_binomial_weight(1.0, 0) == 1.0
        assert all(gen_binomial_weight(1.0, r) == 0.0 for r in range(1, 6))

    def test_integer_shape_terminates(self):
        for n in (1, 2, 3, 7):
            for r in range(n, n + 5):
                assert gen_binomial_weight(float(n), r) == 0.0

    def test_signed_binomial_value(self):
        assert gen_binomial_weight(3.0, 1) == -2.0

    def test_matches_direct_product(self):
        b, r = 2.5, 3
        direct = (-1) ** r * math.prod((b - 1.0 - j) / (j + 1.0) for j in range(r))
        assert gen_binomial_weight(b, r) == pytest.approx(direct, rel=1e-15)

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.5, 7.0])
    @pytest.mark.parametrize("x", [0.0, 0.3, 0.7, 0.95])
    def test_partial_sums_converge_to_binomial_series(self, b, x):
        # sum_r w_r x^r through the engine, with its own stopping rule
        target = (1.0 - x) ** (b - 1.0)
        total = _signed_series(b, lambda r: x**r, lambda y: math.log(x), DEFAULT_SERIES)
        assert abs(total - target) <= 1e-8


def test_euler_gamma_constant():
    # gamma = -integral of log(u) e^-u du; the closed-form entropy checks use np.euler_gamma
    from scipy import integrate

    val, _ = integrate.quad(lambda u: math.log(u) * math.exp(-u), 0, np.inf, limit=200)
    assert np.euler_gamma == pytest.approx(-val, abs=1e-10)
