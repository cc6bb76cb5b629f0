import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import complex_weight_polys

from ginibre_overlaps import analytic_complex as ac
from ginibre_overlaps import specfun
from ginibre_overlaps.errors import DomainError
from ginibre_overlaps.quadrature import QuadSpec, integrate_semi_infinite

# frozen oracle values
RHO_3_Z1 = 0.2927491576215958  # (1/pi) e^{-1} (1 + 1 + 1/2)
EDGE_1_0 = 0.0692380390694749486
EDGE_07_M08 = 0.244930303950446703
EDGE_15_12 = 3.26877200143237042e-6
SENS_2_00 = 4.0 / (3.0 * math.pi**2)
SENS_2_W03 = 0.118107019637935763


def _normalize(n, a, rel=1e-9):
    val, _ = integrate_semi_infinite(
        lambda t: ac.jpd_complex(n, t, a),
        QuadSpec(abs_tol=1e-14, rel_tol=rel, max_subdivisions=4000))
    return val


def _weights(n, a):
    """(d1, D1, D2) at (n, |z|^2) as plain floats, from the weight logs."""
    _, _, logs = ac._checked_logs(n, a)
    lgg = math.lgamma(n) + math.lgamma(n - 1)
    return tuple(math.exp(float(lv) + lgg) for lv in logs)


class TestCoeffs:
    def test_zero_argument_small_n(self):
        d1, big1, _ = _weights(2, 0.0)
        assert d1 == pytest.approx(1.0)
        assert big1 == pytest.approx(2.0)
        d1, big1, _ = _weights(3, 0.0)
        assert d1 == pytest.approx(2.0)
        assert big1 == pytest.approx(12.0)

    def test_zero_argument_identity(self):
        # d1(0) = (n-1)!(n-2)! and D1(0) = n(n-1) d1(0)
        for n in (2, 5, 9, 16):
            d1, big1, _ = _weights(n, 0.0)
            ref = math.factorial(n - 1) * math.factorial(n - 2)
            assert d1 == pytest.approx(ref, rel=1e-12, abs=0)
            assert big1 == pytest.approx(n * (n - 1) * ref, rel=1e-12, abs=0)

    def test_n2_d1_is_pure_exponential(self):
        # at n = 2 the gamma products collapse: d1 = e^{-2a} exactly
        for a in (0.0, 0.7, 3.0, 41.5):
            d1, _, _ = _weights(2, a)
            assert d1 * math.exp(2.0 * a) == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_against_gamma_products_moderate(self):
        # direct Gamma-product evaluation is accurate while cancellation is
        # mild (a well below n); the polynomial route must match it
        for n, a in ((4, 0.5), (7, 2.0), (12, 3.5)):
            g = [math.exp(specfun.log_gamma_upper(m, a)) for m in (n - 1, n, n + 1)]
            d1_ref = g[0] * g[2] - g[1] ** 2
            d1, _, _ = _weights(n, a)
            assert d1 == pytest.approx(d1_ref, rel=1e-10, abs=0)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(min_value=2, max_value=60),
           a=st.floats(min_value=0.0, max_value=400.0))
    def test_weight_logs_finite(self, n, a):
        _, _, logs = ac._checked_logs(n, a)
        assert np.isfinite(logs).all()

    def test_domain(self):
        with pytest.raises(DomainError):
            ac._checked_logs(1, 0.0)
        with pytest.raises(DomainError):
            ac._checked_logs(3, -1.0)


def _trimmed(poly):
    poly = list(poly)
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return poly


class TestWeights:
    """d1, D1, D2 as positive double sums over the index polynomials."""

    def test_double_sums_are_the_exact_polynomials(self):
        # 2 e^{2a} W = sum_{i,j<=m} f_i f_j a^{2m-i-j} F_W(i, j), f_i = m!/(m-i)!,
        # in Python ints, against the incomplete-gamma products combined exactly
        for n in range(2, 61):
            m = n - 2
            f = [math.factorial(m) // math.factorial(m - i) for i in range(m + 1)]
            sums = [[0] * (2 * m + 1) for _ in range(3)]
            for i in range(m + 1):
                for j in range(m + 1):
                    k, w = 2 * m - i - j, f[i] * f[j]
                    for row, fw in zip(sums, ac._index_polys(i, j)):
                        row[k] += w * fw
            d1, _, big1, big2 = complex_weight_polys(n)
            for got, ref in zip(sums, (d1, big1, big2)):
                assert _trimmed(got) == [2 * c for c in _trimmed(ref)], n

    @pytest.mark.parametrize("n, bound", [(2, 1e-13), (4, 1e-13), (10, 1e-13), (30, 1e-13),
                                          (60, 1e-13), (200, 5e-13)])
    def test_logs_against_mpmath(self, n, bound):
        # log(W / (Gamma(n) Gamma(n-1))) from the float table, against the
        # exact integer polynomial at 50 digits
        grid = [0.0, 1e-3, 0.3, n / 2, n, 1.3 * n + 5, 2 * n, 3 * n + 10]
        _, _, logs = ac._checked_logs(n, grid)
        d1, _, big1, big2 = complex_weight_polys(n)
        with mpmath.workdps(50):
            lgg = mpmath.log(mpmath.factorial(n - 1) * mpmath.factorial(n - 2))
            for w, (poly, row) in enumerate(zip((d1, big1, big2), logs)):
                for a, got in zip(grid, row.tolist()):
                    ref = mpmath.log(mpmath.polyval(poly[::-1], a)) - 2 * a - lgg
                    assert abs(got - ref) <= bound, (w, a)


class TestJpdComplex:
    def test_z0_point(self):
        assert ac.jpd_complex(2, 1.0, 0.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-13, abs=0)

    def test_z0_collapse(self):
        tgrid = np.geomspace(1e-3, 1e4, 29)
        for n in (2, 3, 7, 19, 40):
            a = ac.jpd_complex(n, tgrid, 0.0)
            b = ac.jpd_complex_zero(n, tgrid)
            assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(b, 1e-300))

    def test_normalization(self):
        assert _normalize(3, 1.0) == pytest.approx(RHO_3_Z1, rel=1e-7, abs=0)
        for n, a in ((2, 0.0), (5, 2.5), (8, 7.2)):
            assert _normalize(n, a) == pytest.approx(ac.density_complex(n, a), rel=1e-6, abs=0)

    def test_cubic_tail(self):
        for n, a in ((5, 0.0), (9, 4.0)):
            ratio = ac.jpd_complex(n, 2e6, a) / ac.jpd_complex(n, 1e6, a)
            assert ratio == pytest.approx(0.125, rel=1e-2, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            ac.jpd_complex(1, 1.0, 0.0)
        with pytest.raises(DomainError):
            ac.jpd_complex(3, -1.0, 0.0)
        with pytest.raises(DomainError):
            ac.jpd_complex(3, 1.0, -2.0)

    def test_large_n_at_spectral_edge(self):
        # n = 150 at |z|^2 = n: the regime where the raw gamma-product
        # coefficients cancel catastrophically and overflow doubles
        val, _ = integrate_semi_infinite(
            lambda t: ac.jpd_complex(150, t, 150.0),
            QuadSpec(abs_tol=1e-16, rel_tol=1e-9, max_subdivisions=4000))
        rho = ac.density_complex(150, 150.0)
        assert val == pytest.approx(rho, rel=1e-9, abs=0)

    def test_extreme_t_is_clean_zero(self):
        assert ac.jpd_complex(5, 1e300, 2.0) == 0.0
        assert math.isfinite(ac.jpd_complex(5, 1e-300, 2.0))


class TestCumulative:
    """int_0^t P(u, z) du in closed form."""

    @pytest.mark.parametrize("n", [2, 6, 30, 200])
    def test_against_mpmath(self, n):
        # the four-term sum of I_s(a, T) = a^{-s} gamma(s, aT) at 50 digits,
        # on the tau-form weights of _tau_form.  The terms alternate in sign; the
        # bounds were set for a float evaluation of that same sum (up to
        # (2n)^3 times the value where the mass sits at tau near 1).  The
        # positive kernel measures 1.8e-13 relative at worst, at n = 200.
        # A value may be 0 only where the true one is below the double
        # range.
        ts = np.geomspace(1e-6, 1e12, 19)
        with mpmath.workdps(50):
            for r in np.linspace(0.0, 2.0 * math.sqrt(n), 9).tolist():
                a = r * r
                log_pref, _, _, (_, g1, g2, g3) = ac._tau_form(n, a)
                coef = (g1 + g2 + g3, -(g1 + 2 * g2 + 3 * g3), g2 + 3 * g3, -g3)
                scale = mpmath.exp(log_pref)
                got = ac.jpd_complex_cumulative(n, ts, a)
                for t, g in zip(ts.tolist(), got):
                    T = mpmath.mpf(t) / (1 + mpmath.mpf(t))
                    orders = [n - 1 + k for k in range(4)]
                    terms = [c * (T ** s / s if a == 0.0 else
                                  mpmath.gammainc(s, 0, a * T) / mpmath.mpf(a) ** s)
                             for c, s in zip(coef, orders)]
                    ref = scale * sum(terms)
                    bound = scale * sum(abs(x) for x in terms)
                    if ref >= sys.float_info.min:
                        assert abs(g - ref) <= 1e-12 * bound, (r, t)
                        assert abs(g - ref) <= 1e-9 * ref, (r, t)
                    else:
                        assert 0.0 <= g <= sys.float_info.min, (r, t)

    @pytest.mark.parametrize("n", [30, 200])
    def test_against_direct_quadrature(self, n):
        # the positive tau-integrand e^{log_pref} tau^{n-2} e^{-a tau}
        # [g1 (1-tau) + g2 (1-tau)^2 + g3 (1-tau)^3] by mpmath quad at 50
        # digits, over tau = T u with the integrand divided by its peak
        ts = np.geomspace(1e-2, 1e12, 8)
        s = n - 1
        with mpmath.workdps(50):
            for r in np.linspace(0.0, 2.0 * math.sqrt(n), 5).tolist():
                a = r * r
                log_pref, _, _, (_, g1, g2, g3) = ac._tau_form(n, a)
                got = ac.jpd_complex_cumulative(n, ts, a)
                for t, g in zip(ts.tolist(), got):
                    T = mpmath.mpf(t) / (1 + mpmath.mpf(t))
                    y = a * T
                    peak = min((s - 1) / y, 1) if y > 0 else 1
                    lpk = (s - 1) * mpmath.log(peak) - y * peak

                    def f(u):
                        om = 1 - T * u
                        return mpmath.exp((s - 1) * mpmath.log(u) - y * u - lpk) * (
                            g1 * om + g2 * om ** 2 + g3 * om ** 3)

                    val = mpmath.quad(f, [0, peak, 1] if peak < 1 else [0, 1])
                    ref = mpmath.exp(log_pref + lpk) * T ** s * val
                    if ref >= sys.float_info.min:
                        assert abs(g - ref) <= 1e-12 * ref, (r, t)
                    else:
                        assert 0.0 <= g <= sys.float_info.min, (r, t)

    @pytest.mark.parametrize("n", [2, 6, 30])
    def test_tends_to_density(self, n):
        for r in np.linspace(0.0, 2.0 * math.sqrt(n), 7).tolist():
            assert ac.jpd_complex_cumulative(n, 1e300, r * r) == pytest.approx(
                ac.density_complex(n, r * r), rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [2, 30, 200])
    def test_array_of_z_matches_scalar_calls(self, n):
        ts = np.geomspace(1e-3, 1e6, 7)
        a = np.linspace(0.0, 2.0 * n, 6)
        grid = ac.jpd_complex_cumulative(n, ts, a[:, None])
        assert grid.shape == (a.size, ts.size)
        for i, ai in enumerate(a.tolist()):
            np.testing.assert_allclose(grid[i], ac.jpd_complex_cumulative(n, ts, ai),
                                       rtol=1e-14, atol=0.0)
        assert isinstance(ac.jpd_complex_cumulative(n, 1.0, 0.5), float)

    @pytest.mark.parametrize("n", [2, 3, 6, 30, 200])
    def test_first_moment_is_chalker_mehlig(self, n):
        # E[O | z] rho(z) = int_0^inf (1+t) P dt: under tau the factor 1+t =
        # 1/(1-tau) shifts the weights (0, g1, g2, g3) down one power, so it is
        # one truncated gamma integral; Chalker-Mehlig's finite-N value is
        # (1/pi) sum_{j=1}^{n} Q_j(a) = (1/pi) e^{-a} sum_{k<n} (n-k) a^k/k!
        with mpmath.workdps(40):
            for a in np.linspace(0.0, 1.3 * n + 5.0, 9).tolist():
                log_pref, s, x, c = ac._tau_form(n, a)
                got = math.exp(log_pref + specfun.log_lower_integral(s, x, 1.0, c[1:]))
                am = mpmath.mpf(a)
                ref = mpmath.exp(-am) * mpmath.fsum((n - k) * am ** k / mpmath.factorial(k)
                                                    for k in range(n)) / mpmath.pi
                assert abs(got - ref) <= 1e-12 * ref, (n, a)

    def test_domain(self):
        with pytest.raises(DomainError):
            ac.jpd_complex_cumulative(6, 1.0, [0.5, -0.5])
        with pytest.raises(DomainError):
            ac.jpd_complex_cumulative(6, 0.0, 0.5)
        with pytest.raises(DomainError):
            ac.jpd_complex_cumulative(6, 1.0, -0.5)


class TestJpdComplexZero:
    def test_point(self):
        assert ac.jpd_complex_zero(2, 1.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14, abs=0)

    def test_small_t_limit_n2(self):
        assert ac.jpd_complex_zero(2, 1e-12) == pytest.approx(2.0 / math.pi, rel=1e-9, abs=0)

    def test_t_integral_is_density_at_origin(self):
        for n in (2, 5, 11):
            val, _ = integrate_semi_infinite(lambda t: ac.jpd_complex_zero(n, t))
            assert val == pytest.approx(1.0 / math.pi, rel=1e-9, abs=0)


class TestDensityComplex:
    def test_origin(self):
        for n in (1, 4, 25):
            assert ac.density_complex(n, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-14, abs=0)

    def test_n1(self):
        assert ac.density_complex(1, 1.0) == pytest.approx(math.exp(-1.0) / math.pi,
                                                           rel=1e-13, abs=0)

    def test_outside_disc(self):
        assert ac.density_complex(10, 25.0) == pytest.approx(
            specfun.reg_gamma_q(10, 25.0) / math.pi, rel=1e-13, abs=0)
        assert ac.density_complex(10, 25.0) < 1e-4

    def test_domain(self):
        with pytest.raises(DomainError):
            ac.density_complex(0, 1.0)


class TestBulk:
    def test_point(self):
        assert ac.jpd_complex_bulk(1.0, 0.0) == pytest.approx(
            math.exp(-1.0) / math.pi, rel=1e-13, abs=0)

    def test_support(self):
        assert ac.jpd_complex_bulk(1.0, 1.1) == 0.0
        assert ac.jpd_complex_bulk(1.0, 1.0) == 0.0

    def test_first_moment(self):
        # int s P ds = (1 - |w|^2)/pi
        for w in (0.0, 0.5, 0.8):
            val, _ = integrate_semi_infinite(lambda s: s * ac.jpd_complex_bulk(s, w))
            assert val == pytest.approx((1.0 - w * w) / math.pi, rel=1e-8, abs=0)

    def test_finite_n_convergence_monotone(self):
        grid = [(s, w) for s in (0.5, 1.0, 2.0) for w in (0.0, 0.5)]
        sups = []
        for n in (10, 20, 40):
            sups.append(max(
                abs(n * ac.jpd_complex(n, n * s, n * w * w) - ac.jpd_complex_bulk(s, w))
                for s, w in grid))
        assert sups[0] > sups[1] > sups[2]


class TestEdge:
    def test_frozen_points(self):
        assert ac.jpd_complex_edge(1.0, 0.0) == pytest.approx(EDGE_1_0, rel=1e-12, abs=0)
        assert ac.jpd_complex_edge(0.7, -0.8) == pytest.approx(EDGE_07_M08, rel=1e-12, abs=0)
        assert ac.jpd_complex_edge(1.5, 1.2) == pytest.approx(EDGE_15_12, rel=1e-11, abs=0)

    def test_large_delta_vanishes(self):
        assert ac.jpd_complex_edge(1.0, 30.0) == 0.0

    def test_sigma_integral_matches_edge_density(self):
        for delta in (0.0, -0.6, 0.8):
            val, _ = integrate_semi_infinite(lambda s: ac.jpd_complex_edge(s, delta))
            assert val == pytest.approx(ac.density_complex_edge(delta), rel=1e-8, abs=0)

    def test_edge_density(self):
        assert ac.density_complex_edge(0.0) == pytest.approx(1.0 / (2.0 * math.pi),
                                                             rel=1e-14, abs=0)
        assert ac.density_complex_edge(-30.0) == pytest.approx(1.0 / math.pi, rel=1e-12, abs=0)
        assert ac.density_complex_edge(1.0) == pytest.approx(
            specfun.erfc(math.sqrt(2.0)) / (2.0 * math.pi), rel=1e-13, abs=0)

    def test_bulk_edge_matching_monotone(self):
        # substituting sigma = sqrt(N) s, delta = sqrt(N)(|w|^2-1)/2 into the
        # edge law recovers the bulk law as N grows
        grid = [(s, w) for s in (0.5, 1.0, 2.0) for w in (0.3, 0.5, 0.7)]
        sups = []
        for n in (25, 100, 400):
            rt = math.sqrt(n)
            sups.append(max(
                abs(rt * ac.jpd_complex_edge(rt * s, 0.5 * rt * (w * w - 1.0))
                    - ac.jpd_complex_bulk(s, w))
                for s, w in grid))
        assert sups[0] > sups[1] > sups[2]

    def test_finite_n_convergence_monotone(self):
        # the edge limit of the finite-N law under t = sqrt(N) sigma,
        # |z| = sqrt(N) + delta; converges at the sqrt(N) scaling
        grid = [(s, d) for s in (0.5, 1.0, 2.0) for d in (0.0, 0.5)] + [(1.0, -0.5)]
        sups = []
        for n in (10, 20, 40):
            rt = math.sqrt(n)
            sups.append(max(
                abs(rt * ac.jpd_complex(n, rt * s, (rt + d) ** 2)
                    - ac.jpd_complex_edge(s, d))
                for s, d in grid))
        assert sups[0] > sups[1] > sups[2]

    def test_finite_n_convergence_rate(self):
        # on the same grid the sup error falls like N^{-1/2}: sqrt(N) sup
        # measured 0.313, 0.295, 0.297 and 0.302 at these N
        grid = [(s, d) for s in (0.5, 1.0, 2.0) for d in (0.0, 0.5)] + [(1.0, -0.5)]
        ns = (100, 200, 400, 800)
        sups = []
        for n in ns:
            rt = math.sqrt(n)
            sups.append(max(
                abs(rt * ac.jpd_complex(n, rt * s, (rt + d) ** 2)
                    - ac.jpd_complex_edge(s, d))
                for s, d in grid))
        assert sups[0] > sups[1] > sups[2] > sups[3]
        for n, sup in zip(ns, sups):
            assert 0.25 <= math.sqrt(n) * sup <= 0.35, n


class TestSensitivity:
    def test_beta_integral_oracle(self):
        # N=2, w=0, z=0: 4/(3 pi^2) via the exact Beta integral
        assert ac.sensitivity_density(2, 0.0, 0.0) == pytest.approx(SENS_2_00, rel=1e-9, abs=0)

    def test_frozen_point(self):
        assert ac.sensitivity_density(2, 0.09, 0.0) == pytest.approx(SENS_2_W03, rel=1e-9, abs=0)

    def test_against_tau_form(self):
        # (n/pi) e^{log_pref - n|w|^2} [g1 J_2 + g2 J_3 + g3 J_4], x = |z|^2 - n|w|^2,
        # J_i = B(n-1, i+1) M(n-1, n+i, -x), with mpmath hyp1f1 at 60 digits;
        # the first three points lie far below the quadrature's abs_tol
        points = [(100, 0.0, 400.0), (30, 0.0, 120.0), (30, 0.0, 400.0),
                  (2, 0.0, 0.0), (6, 1.5, 2.0), (30, 0.5, 30.0), (30, 0.0, 30.0)]
        with mpmath.workdps(60):
            for n, w2, a in points:
                log_pref, _, _, (_, g1, g2, g3) = ac._tau_form(n, a)
                x = mpmath.mpf(a) - n * mpmath.mpf(w2)
                ref = n / mpmath.pi * mpmath.exp(log_pref - n * mpmath.mpf(w2)) * sum(
                    g * mpmath.beta(n - 1, i + 1) * mpmath.hyp1f1(n - 1, n + i, -x)
                    for g, i in ((g1, 2), (g2, 3), (g3, 4)))
                got = ac.sensitivity_density(n, w2, a)
                assert abs(got - ref) <= 1e-12 * ref, (n, w2, a)
        # past |z|^2 ~ n + 745 rho(z) itself underflows, and so does pi(w, z)
        assert ac.sensitivity_density(6, 0.0, 900.0) == 0.0

    def test_to_the_end_of_the_double_range(self):
        # n = 6, w = 0, down to subnormal values: the quadrature's abs_tol is in
        # units of the integrand's own seed peak, so it cannot swamp them
        with mpmath.workdps(60):
            for a in (700.0, 720.0, 735.0, 745.0, 750.0, 755.0):
                log_pref, _, _, (_, g1, g2, g3) = ac._tau_form(6, a)
                ref = 6 / mpmath.pi * mpmath.exp(log_pref) * sum(
                    g * mpmath.beta(5, i + 1) * mpmath.hyp1f1(5, 6 + i, -mpmath.mpf(a))
                    for g, i in ((g1, 2), (g2, 3), (g3, 4)))
                got = ac.sensitivity_density(6, 0.0, a)
                assert abs(got - ref) <= 1e-12 * ref + 2 * math.ulp(0.0), a

    def test_w_normalization(self):
        # int pi(w, z) d^2w = rho(z): radial quadrature over |w|
        n, a = 3, 0.5

        def radial(w):
            return np.array([2.0 * math.pi * wi * ac.sensitivity_density(n, wi * wi, a)
                             for wi in np.atleast_1d(w)])

        val, _ = integrate_semi_infinite(radial, QuadSpec(1e-12, 1e-7, 800))
        assert val == pytest.approx(ac.density_complex(n, a), rel=1e-6, abs=0)
