import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginibre_overlaps import specfun
from ginibre_overlaps.errors import DomainError
from ginibre_overlaps.quadrature import QuadSpec, integrate_finite

LN_SQRT_PI = 0.572364942924700087
ERFC_1 = 0.157299207050285131


class TestLogGamma:
    def test_integers(self):
        assert specfun.log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert specfun.log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14, abs=0)

    def test_half(self):
        assert specfun.log_gamma(0.5) == pytest.approx(LN_SQRT_PI, rel=1e-14, abs=0)

    def test_against_lgamma_grid(self):
        # math.lgamma is an independent C-library implementation
        for x in np.geomspace(1e-3, 1e4, 300):
            mine, ref = specfun.log_gamma(float(x)), math.lgamma(float(x))
            assert abs(mine - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.log_gamma(0.0)
        with pytest.raises(DomainError):
            specfun.log_gamma(-2.5)


class TestRegGammaQ:
    def test_at_zero(self):
        for n in (1, 2, 7, 50, 200):
            assert specfun.reg_gamma_q(n, 0.0) == 1.0

    def test_exponential_case(self):
        # Gamma(1, a) = e^{-a}
        assert specfun.reg_gamma_q(1, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-14, abs=0)

    def test_finite_sum_case(self):
        # Q(3, 2) = e^{-2}(1 + 2 + 2) = 5 e^{-2}
        assert specfun.reg_gamma_q(3, 2.0) == pytest.approx(5.0 * math.exp(-2.0), rel=1e-13, abs=0)

    def test_bounds_and_monotonicity(self):
        for n in (1, 3, 10, 60, 200):
            grid = np.linspace(0.0, 400.0, 160)
            vals = [specfun.reg_gamma_q(n, float(a)) for a in grid]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_limits(self):
        assert specfun.reg_gamma_q(10, 1e-12) == pytest.approx(1.0, abs=1e-10)
        assert specfun.reg_gamma_q(3, 300.0) < 1e-100

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=1, max_value=100),
           a=st.floats(min_value=1e-6, max_value=200.0))
    def test_recurrence(self, n, a):
        # n Q(n+1, a) = n Q(n, a) + a^n e^{-a} / Gamma(n)
        lhs = n * specfun.reg_gamma_q(n + 1, a)
        rhs = n * specfun.reg_gamma_q(n, a) + math.exp(
            n * math.log(a) - a - specfun.log_gamma(float(n)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    def test_array_input(self):
        a = np.array([0.0, 1.0, 5.0])
        out = specfun.reg_gamma_q(4, a)
        assert out.shape == (3,)
        assert out[0] == 1.0
        assert out[2] == specfun.reg_gamma_q(4, 5.0)

    @pytest.mark.parametrize("n", [1, 2, 6, 50, 200, 201])
    def test_against_mpmath(self, n):
        # independent 30-digit oracle over a log grid of a, both sides of the
        # a = n branch switch included, wherever Q does not underflow
        grid = [float(a) for a in np.geomspace(1e-8, 1e4, 61)] + [n - 1e-9, n + 1e-9]
        with mpmath.workdps(30):
            for a in grid:
                ref = mpmath.gammainc(n, a, mpmath.inf, regularized=True)
                if ref <= 1e-300:
                    continue
                assert abs(specfun.reg_gamma_q(n, a) - ref) <= 1e-12 * ref, a
                # error in log Gamma(n, a) is the relative error of Gamma(n, a)
                log_ref = mpmath.log(ref) + mpmath.loggamma(n)
                assert abs(specfun.log_gamma_upper(n, a) - log_ref) <= 1e-12 * max(
                    1.0, abs(log_ref)), a

    @pytest.mark.parametrize("n", [1, 2, 6, 50, 200, 201])
    def test_log_against_mpmath(self, n):
        # log Q stays a normal double where Q underflows (a past ~n + 700);
        # the bound is on the error of the log, as for log_gamma_upper.  At
        # the branch switch a = n the series' leading exponent n log a - a -
        # log n! cancels to O(1) from O(n log n), so there it is 1e-12, as in
        # test_against_mpmath
        grid = [(float(a), 1e-13) for a in np.geomspace(1e-8, 1e4, 61)]
        grid += [(n - 1e-9, 1e-12), (n + 1e-9, 1e-12)]
        with mpmath.workdps(30):
            for a, rel in grid:
                ref = mpmath.log(mpmath.gammainc(n, a, mpmath.inf, regularized=True))
                got = specfun.log_reg_gamma_q(n, a)
                assert abs(got - ref) <= rel * max(1.0, abs(ref)), a
        assert specfun.log_reg_gamma_q(n, 1e4) < -9000.0

    def test_array_matches_scalar_calls(self):
        # both branches (a <= n through the series kernel, a > n through the
        # finite sum) in one array, including a = 0
        a = np.array([[0.0, 1e-8, 3.0, 6.0], [6.5, 40.0, 199.0, 250.0]])
        for n in (1, 6, 30, 200):
            got = specfun.log_reg_gamma_q(n, a)
            assert got.shape == a.shape
            for ai, gi in zip(a.ravel().tolist(), got.ravel().tolist()):
                assert gi == pytest.approx(specfun.log_reg_gamma_q(n, ai),
                                           rel=1e-15, abs=0), (n, ai)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.reg_gamma_q(0, 1.0)
        with pytest.raises(DomainError):
            specfun.reg_gamma_q(3, -0.1)

    def test_nan_argument(self):
        from ginibre_overlaps import analytic_complex, analytic_real, detratio
        nan = float("nan")
        for call in (lambda: specfun.reg_gamma_q(6, nan),
                     lambda: specfun.log_gamma_upper(6, nan),
                     lambda: analytic_real.jpd_real(6, 1.0, nan),
                     lambda: analytic_real.density_real(6, nan),
                     lambda: analytic_real.density_real(6, np.array([0.5, nan])),
                     lambda: analytic_complex.density_complex(6, nan),
                     lambda: analytic_complex.jpd_complex(6, 1.0, nan),
                     lambda: specfun.log_lower_integral(1.5, nan, 0.5),
                     lambda: specfun.log_reg_gamma_q(6, nan),
                     lambda: analytic_real.jpd_real_cumulative(6, 1.0, nan),
                     lambda: detratio.DetRatioQuery(n=4, beta=2, L=1, z=0.5, p=nan),
                     lambda: analytic_complex.sensitivity_density(2, nan, 0.0),
                     lambda: analytic_real.jpd_real_bulk(1.0, nan),
                     lambda: analytic_complex.jpd_complex_bulk(1.0, nan),
                     lambda: analytic_real.jpd_real_edge(nan, 0.1),
                     lambda: analytic_real.jpd_real_edge(1.0, nan),
                     lambda: analytic_complex.jpd_complex_edge(nan, 0.1),
                     lambda: analytic_complex.jpd_complex_edge(1.0, nan),
                     lambda: analytic_real.density_real_edge(nan),
                     lambda: analytic_complex.density_complex_edge(nan),
                     lambda: specfun.erfcx(nan)):
            with pytest.raises(DomainError):
                call()

    def test_infinite_edge_argument(self):
        # the edge laws take a finite sigma > 0 and a finite delta; erfcx
        # keeps its limits at +-inf
        from ginibre_overlaps import analytic_complex, analytic_real
        inf = math.inf
        for edge in (analytic_real.jpd_real_edge, analytic_complex.jpd_complex_edge):
            for sigma, delta in ((inf, 0.0), (1.0, inf), (1.0, -inf)):
                with pytest.raises(DomainError):
                    edge(sigma, delta)
        assert specfun.erfcx(inf) == 0.0
        assert specfun.erfcx(-inf) == inf


class TestLogLowerIntegral:
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 29.0, 100.5])
    def test_against_mpmath(self, s):
        # log I_s(x, T) = log gamma(s, xT) - s log x, at 50 digits; the bound
        # is on the error of the log, the relative error of I_s where
        # |log I_s| <= 1 (a double holding a log near -700 is itself only good
        # to ~1e-13 absolute)
        xs = [0.0, 1e-10, 1e-3, 0.3, 1.0, 7.0, 28.9, 29.0, 100.5, 150.0, 399.9, 400.0]
        T = np.array([1e-12, 1e-6, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-12, 1.0])
        with mpmath.workdps(50):
            for x in xs:
                got = specfun.log_lower_integral(s, x, T)
                for Ti, gi in zip(T.tolist(), got):
                    if x == 0.0:
                        ref = s * mpmath.log(Ti) - mpmath.log(s)
                    else:
                        ref = (mpmath.log(mpmath.gammainc(s, 0, x * mpmath.mpf(Ti)))
                               - s * mpmath.log(x))
                    assert abs(gi - ref) <= 1e-13 * max(1.0, abs(ref)), (x, Ti)

    @staticmethod
    def _log_quad(s, x, T, c):
        # s log T + log int_0^1 u^{s-1} e^{-xTu} sum_m c_m (1 - Tu)^m du by
        # mpmath quad, the integrand divided by its peak (quad's tolerance is
        # absolute, so a tiny integrand would stop it at the first level)
        s, y, T = mpmath.mpf(s), mpmath.mpf(x) * T, mpmath.mpf(T)
        peak = min((s - 1) / y, 1) if y > 0 and s > 1 else 1
        top = (s - 1) * mpmath.log(peak) - y * peak if s > 1 else 0

        def f(u):
            return mpmath.exp((s - 1) * mpmath.log(u) - y * u - top) * sum(
                cm * (1 - T * u) ** m for m, cm in enumerate(c))

        pts = [0, peak, 1] if peak < 1 else [0, 1]
        return s * mpmath.log(T) + top + mpmath.log(mpmath.quad(f, pts))

    @pytest.mark.parametrize("s", [0.5, 1.5, 2.5, 29.0, 199.0])
    def test_weights_against_mpmath_quad(self, s):
        # nonnegative weights on (1 - tau)^m, with and without c_0, against a
        # direct quadrature at 50 digits; the bound is on the error of the log
        T = np.array([1e-6, 0.3, 0.999, 1.0])
        with mpmath.workdps(50):
            for c in ((0.0, 1.0, 2.5, 0.3), (2.0, 0.0, 0.0, 1e-3)):
                for x in (0.0, 0.7, 30.0, 250.0):
                    got = specfun.log_lower_integral(s, x, T, c)
                    for Ti, gi in zip(T.tolist(), got):
                        ref = self._log_quad(s, x, Ti, c)
                        assert abs(gi - ref) <= 1e-13 * max(1.0, abs(ref)), (c, x, Ti)

    def test_broadcast_and_scalar(self):
        x = np.array([[0.5], [40.0]])
        T = np.array([0.2, 1.0])
        grid = specfun.log_lower_integral(2.5, x, T)
        assert grid.shape == (2, 2)
        for i in range(2):
            for j in range(2):
                one = specfun.log_lower_integral(2.5, float(x[i, 0]), float(T[j]))
                assert isinstance(one, float)
                assert one == pytest.approx(grid[i, j], rel=1e-14, abs=0)

    def test_weights_broadcast(self):
        # one weight vector per row of x, along the last axis of c
        x = np.array([[0.0], [3.0], [250.0]])
        T = np.array([1e-6, 0.4, 1.0])
        c = np.array([[[0.0, 1.0, 2.5, 0.3]], [[2.0, 0.0, 0.0, 1e-3]], [[1.0, 1.0, 1.0, 1.0]]])
        grid = specfun.log_lower_integral(3.5, x, T, c)
        assert grid.shape == (3, 3)
        for i in range(3):
            assert grid[i] == pytest.approx(
                specfun.log_lower_integral(3.5, x[i, 0], T, c[i, 0]), rel=1e-15, abs=0)

    def test_large_x_stays_finite(self):
        # terms up to e^{xT} are rescaled between blocks, so nothing
        # overflows; I_s -> Gamma(s) x^{-s} up to e^{-x}.  The log is the
        # difference of -xT and the log of the sum, each of size ~xT, so its
        # error grows like eps * xT.
        for x in (800.0, 5000.0):
            got = specfun.log_lower_integral(0.5, x, 1.0)
            assert abs(got - (math.lgamma(0.5) - 0.5 * math.log(x))) <= 1e-15 * x

    def test_domain(self):
        for s, x, T in ((0.0, 1.0, 0.5), (-1.0, 1.0, 0.5), (1.0, -0.1, 0.5),
                        (1.0, math.inf, 0.5), (1.0, 1.0, 0.0), (1.0, 1.0, 1.5),
                        (1.0, 1.0, math.nan)):
            with pytest.raises(DomainError):
                specfun.log_lower_integral(s, x, T)
        for s, c in ((1.0, (1.0, -0.5)), (math.inf, (1.0,)), (math.nan, (1.0,)),
                     (1.0, (math.inf,)), (1.0, ()), (1.0, 1.0)):
            with pytest.raises(DomainError):
                specfun.log_lower_integral(s, 1.0, 0.5, c)


class TestErfFamily:
    def test_erfc_zero(self):
        assert specfun.erfc(0.0) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(min_value=-10.0, max_value=10.0))
    def test_erfc_reflection(self, x):
        assert specfun.erfc(-x) + specfun.erfc(x) == pytest.approx(2.0, rel=1e-13, abs=0)

    def test_erfc_one_against_quadrature(self):
        # defining integral (2/sqrt(pi)) int_1^inf e^{-u^2} du; tail beyond 9
        # is below 1e-36
        val, _ = integrate_finite(lambda u: np.exp(-u * u), 1.0, 9.0,
                                  QuadSpec(abs_tol=1e-15, rel_tol=1e-13, max_subdivisions=400))
        assert specfun.erfc(1.0) == pytest.approx(2.0 / math.sqrt(math.pi) * val, rel=1e-12, abs=0)
        assert specfun.erfc(1.0) == pytest.approx(ERFC_1, rel=1e-13, abs=0)

    def test_branch_consistency(self):
        # values straddling the series/continued-fraction crossover agree
        # with the quadrature of the defining integral
        for x in (1.2, 1.45, 1.55, 2.0, 3.0, 5.0):
            val, _ = integrate_finite(lambda u: np.exp(-u * u), x, x + 10.0,
                                      QuadSpec(abs_tol=1e-300, rel_tol=1e-13,
                                               max_subdivisions=400))
            ref = 2.0 / math.sqrt(math.pi) * val
            assert specfun.erfc(x) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_erfcx_consistency(self):
        for x in np.linspace(0.0, 8.0, 40):
            assert specfun.erfcx(float(x)) * math.exp(-x * x) == pytest.approx(
                specfun.erfc(float(x)), rel=1e-12, abs=0)

    def test_scaled_erfc_decreasing(self):
        xs = np.linspace(0.0, 10.0, 200)
        vals = [specfun.erfcx(float(x)) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_erfcx_against_mpmath(self):
        # both sides of the x = 1.5 switch to the continued fraction, and the
        # reflected branch
        with mpmath.workdps(30):
            for x in (-5.0, -1.0, 0.0, 0.7, 1.4999, 1.5, 1.5001, 2.0, 6.0, 30.0):
                ref = mpmath.exp(mpmath.mpf(x) ** 2) * mpmath.erfc(x)
                assert abs(specfun.erfcx(x) - ref) <= 1e-13 * ref, x

    def test_erf_odd(self):
        for x in (0.3, 1.0, 2.5):
            assert specfun.erf(-x) == -specfun.erf(x)
