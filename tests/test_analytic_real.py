import math
import sys

import mpmath
import numpy as np
import pytest

from ginibre_overlaps import analytic_real as ar
from ginibre_overlaps.errors import DomainError
from ginibre_overlaps.quadrature import QuadSpec, integrate_finite, integrate_semi_infinite
from reference import jpd_real_gamma

# frozen oracle values (40-digit evaluation of the closed forms)
JPD_2_1_0 = 0.0705236979434695359
JPD_3_1_0 = 0.0997355701003581695
JPD_5_07_13 = 0.151932705664826023
RHO_2_1 = 0.353798717196134589
RHO_6_15 = 0.396543052617724449
BULK_1_0 = 0.120985362259571675
EDGE_1_0 = 0.139649137249058419
EDGE_08_M06 = 0.235321514531240334
EDGE_12_09 = 0.0109001992930232846
RHO_EDGE_0 = 0.340518536087655411

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _normalize(n, lam, rel=1e-10):
    hint = 0.5 * (n - 3) if n < 3 else None
    val, _ = integrate_semi_infinite(
        lambda t: ar.jpd_real(n, t, lam),
        QuadSpec(abs_tol=1e-14, rel_tol=rel, max_subdivisions=4000),
        singular_exponent_at_zero=hint)
    return val


class TestJpdReal:
    def test_frozen_points(self):
        assert ar.jpd_real(2, 1.0, 0.0) == pytest.approx(JPD_2_1_0, rel=1e-13, abs=0)
        assert ar.jpd_real(3, 1.0, 0.0) == pytest.approx(JPD_3_1_0, rel=1e-13, abs=0)
        assert ar.jpd_real(5, 0.7, 1.3) == pytest.approx(JPD_5_07_13, rel=1e-13, abs=0)

    def test_forms_agree(self):
        # the tau-form against the gamma form at 40 digits
        rng = np.random.default_rng(1)
        for n in (2, 3, 5, 9, 14, 20):
            for _ in range(8):
                t = float(10.0 ** rng.uniform(-3, 3))
                lam = float(rng.uniform(-1.2, 1.2) * math.sqrt(n))
                a = ar.jpd_real(n, t, lam)
                b = float(jpd_real_gamma(n, t, lam))
                assert a == pytest.approx(b, rel=1e-12, abs=0)

    def test_vectorized(self):
        t = np.geomspace(1e-2, 1e2, 17)
        out = ar.jpd_real(4, t, 0.7)
        assert out.shape == t.shape
        assert out[3] == pytest.approx(ar.jpd_real(4, float(t[3]), 0.7), rel=1e-15, abs=0)

    def test_array_t_matches_scalar_loop(self):
        # array and scalar numpy exp/log may differ in the last bit
        t = np.geomspace(1e-3, 1e3, 15)
        for n, lam in ((2, 0.0), (6, 0.0), (6, 1.7), (30, 5.2), (30, -6.0)):
            out = ar.jpd_real(n, t, lam)
            ref = [ar.jpd_real(n, float(tk), lam) for tk in t]
            np.testing.assert_allclose(out, ref, rtol=1e-13, atol=0.0)

    def test_symmetry_exact(self):
        for n, t, lam in ((3, 0.5, 0.9), (8, 12.0, 2.0)):
            assert ar.jpd_real(n, t, lam) == ar.jpd_real(n, t, -lam)

    def test_normalization_to_density(self):
        for n, lam in ((2, 0.0), (3, 1.0), (6, 1.5)):
            assert _normalize(n, lam) == pytest.approx(ar.density_real(n, lam), rel=1e-8, abs=0)

    def test_heavy_tail_exponent(self):
        # P ~ t^{-2}: doubling t quarters the density within 1% at t = 1e6
        for n, lam in ((4, 0.0), (7, 1.2)):
            ratio = ar.jpd_real(n, 2e6, lam) / ar.jpd_real(n, 1e6, lam)
            assert ratio == pytest.approx(0.25, rel=1e-2, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            ar.jpd_real(1, 1.0, 0.0)
        with pytest.raises(DomainError):
            ar.jpd_real(4, 0.0, 0.0)
        with pytest.raises(DomainError):
            ar.jpd_real(4, -1.0, 0.0)

    def test_outermost_lambda_normalization(self):
        # |lambda| = 1.2 sqrt(n) sits outside the typical support; the
        # t-integral must still reproduce the density
        n = 10
        lam = 1.2 * math.sqrt(n)
        val, _ = integrate_semi_infinite(
            lambda t: ar.jpd_real(n, t, lam),
            QuadSpec(abs_tol=1e-16, rel_tol=1e-11, max_subdivisions=4000))
        assert val == pytest.approx(ar.density_real(n, lam), rel=1e-9, abs=0)

    def test_extreme_t_is_clean(self):
        assert ar.jpd_real(5, 1e300, 1.0) == 0.0
        assert math.isfinite(ar.jpd_real(5, 1e-300, 0.5))

    def test_forms_agree_large_n(self):
        for lam in (0.0, 0.9 * math.sqrt(80.0)):
            g = float(jpd_real_gamma(80, 80.0, lam))
            assert ar.jpd_real(80, 80.0, lam) == pytest.approx(g, rel=1e-12, abs=0)

    def test_gamma_form_past_the_edge(self):
        # lambda^2 = 784 > n + 700: Q_n(lambda^2) underflows, the density does
        # not until t ~ 30; where the reference rounds to 0 the density must too
        t = np.geomspace(1e-3, 1e3, 13)
        got = ar.jpd_real(6, t, 28.0)
        ref = jpd_real_gamma(6, t, 28.0)
        assert got[0] > 0.0
        # relative, with no absolute floor (pytest.approx adds one of 1e-12)
        for tk, gk, rk in zip(t, got, ref):
            assert abs(gk - rk) <= 5e-12 * rk, tk

    def test_past_the_edge_large_n(self):
        # lambda^2 = 784 far past the edge at n = 80: the gamma form's bracket
        # (n-1) Q_n - a tau Q_{n-1} cancels as t grows; the tau-form never subtracts
        t = np.geomspace(1e-3, 1e3, 13)
        got = ar.jpd_real(80, t, 28.0)
        ref = jpd_real_gamma(80, t, 28.0)
        # relative, with no absolute floor: the values lie near 1e-230
        for tk, gk, rk in zip(t, got, ref):
            assert abs(gk - rk) <= 1e-12 * rk, tk


class TestDensityReal:
    def test_at_origin(self):
        for n in (2, 3, 10, 40):
            assert ar.density_real(n, 0.0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-14, abs=0)

    def test_frozen(self):
        assert ar.density_real(2, 1.0) == pytest.approx(RHO_2_1, rel=1e-12, abs=0)
        assert ar.density_real(6, 1.5) == pytest.approx(RHO_6_15, rel=1e-12, abs=0)

    def test_even(self):
        assert ar.density_real(5, 1.3) == ar.density_real(5, -1.3)

    def test_expected_number_real_eigenvalues_n2(self):
        # int rho_2 = sqrt(2); density decays like e^{-lam^2/2} outside [-10, 10]
        val, _ = integrate_finite(lambda x: ar.density_real(2, x), -10.0, 10.0)
        assert val == pytest.approx(math.sqrt(2.0), rel=1e-8, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            ar.density_real(1, 0.5)

    def test_against_mpmath(self):
        # EKS form: Q_{n-1}(a)/sqrt(2 pi) + |lam|^{n-1} e^{-a/2}
        # 2^{(n-3)/2} gamma((n-1)/2, a/2) / (Gamma(n-1) sqrt(2 pi)), a = lam^2
        with mpmath.workdps(40):
            for n in (2, 3, 6, 50, 200):
                lams = np.linspace(0.0, 2.0 * math.sqrt(n), 21)
                got = ar.density_real(n, lams)
                for lam, g in zip(lams.tolist(), got):
                    a = mpmath.mpf(lam) ** 2
                    ref = mpmath.gammainc(n - 1, a, mpmath.inf, regularized=True)
                    ref += (mpmath.mpf(lam) ** (n - 1) * mpmath.exp(-a / 2)
                            * 2 ** (mpmath.mpf(n - 3) / 2)
                            * mpmath.gammainc(mpmath.mpf(n - 1) / 2, 0, a / 2)
                            / mpmath.gamma(n - 1))
                    ref /= mpmath.sqrt(2 * mpmath.pi)
                    assert abs(g - ref) <= 1e-12 * ref, (n, lam)

    def test_array_matches_scalar_loop(self):
        lams = np.array([[-3.0, 0.0], [0.7, 12.0]])
        got = ar.density_real(9, lams)
        assert got.shape == lams.shape
        for lam, g in zip(lams.ravel(), got.ravel()):
            assert g == pytest.approx(ar.density_real(9, float(lam)), rel=1e-14, abs=0)


class TestDensityRealAsTauForm:
    """density_real, the real tau-form integrated to T = 1, against the
    Edelman-Kostlan-Shub closed form in 40-digit mpmath, past the edge."""

    @pytest.mark.parametrize("n", [2, 3, 6, 30, 100, 200])
    def test_against_eks_to_three_edges(self, n):
        lams = np.linspace(0.0, 3.0 * math.sqrt(n), 25)
        got = ar.density_real(n, lams)
        with mpmath.workdps(40):
            for lam, g in zip(lams.tolist(), got):
                a = mpmath.mpf(lam) ** 2
                ref = (mpmath.gammainc(n - 1, a, mpmath.inf, regularized=True)
                       + mpmath.mpf(lam) ** (n - 1) * mpmath.exp(-a / 2)
                       * 2 ** (mpmath.mpf(n - 3) / 2)
                       * mpmath.gammainc(mpmath.mpf(n - 1) / 2, 0, a / 2)
                       / mpmath.gamma(n - 1)) / mpmath.sqrt(2 * mpmath.pi)
                if ref >= sys.float_info.min:
                    assert abs(g - ref) <= 5e-13 * ref, (n, lam)
                else:
                    assert 0.0 <= g < sys.float_info.min, (n, lam)


class TestCumulative:
    """int_0^t P(u, lambda) du in closed form."""

    @staticmethod
    def _reference(n, t, lam):
        # C0 e^{a/2} [(n-1) Q_n I_{(n-1)/2}(a/2, T) - a Q_{n-1} I_{(n+1)/2}(a/2, T)],
        # I_s(x, T) = x^{-s} gamma(s, xT), T = t/(1+t), at the working precision
        a = mpmath.mpf(lam) ** 2
        T = mpmath.mpf(t) / (1 + mpmath.mpf(t))

        def lower(s):
            return T ** s / s if a == 0 else mpmath.gammainc(s, 0, a / 2 * T) / (a / 2) ** s

        qn = mpmath.gammainc(n, a, mpmath.inf, regularized=True)
        qm = mpmath.gammainc(n - 1, a, mpmath.inf, regularized=True)
        return (mpmath.exp(a / 2) / (2 * mpmath.sqrt(2 * mpmath.pi))
                * ((n - 1) * qn * lower(mpmath.mpf(n - 1) / 2)
                   - a * qm * lower(mpmath.mpf(n + 1) / 2)))

    @pytest.mark.parametrize("n", [2, 6, 200])
    def test_against_mpmath(self, n):
        # bulk to twice the edge, t over 18 decades; a value may be 0 only
        # where the true one is below the double range
        ts = np.geomspace(1e-6, 1e12, 19)
        with mpmath.workdps(50):
            for lam in np.linspace(0.0, 2.0 * math.sqrt(n), 9).tolist():
                got = ar.jpd_real_cumulative(n, ts, lam)
                for t, g in zip(ts.tolist(), got):
                    ref = self._reference(n, t, lam)
                    if ref >= sys.float_info.min:
                        assert abs(g - ref) <= 1e-12 * ref, (lam, t)
                    else:
                        assert 0.0 <= g <= sys.float_info.min, (lam, t)

    def test_past_the_edge(self):
        # lambda^2 past n + 700, where Q_n(lambda^2) itself underflows
        ts = np.geomspace(1e-6, 1e12, 19)
        with mpmath.workdps(50):
            for n, lams in ((2, (28.0, 40.0, 60.0)), (6, (28.0, 40.0, 60.0)),
                            (200, (48.0, 60.0, 80.0))):
                for lam in lams:
                    got = ar.jpd_real_cumulative(n, ts, lam)
                    for t, g in zip(ts.tolist(), got):
                        ref = self._reference(n, t, lam)
                        if ref >= sys.float_info.min:
                            assert abs(g - ref) <= 1e-12 * ref, (n, lam, t)
                        else:
                            assert g == 0.0, (n, lam, t)

    def test_array_lambda_matches_scalar_loop(self):
        ts = np.geomspace(1e-3, 1e6, 7)
        lams = np.array([0.0, -0.4, 1.7, 2.9, 12.0, 30.0])
        for n in (2, 6, 50):
            got = ar.jpd_real_cumulative(n, ts, lams[:, None])
            assert got.shape == (lams.size, ts.size)
            for lam, row in zip(lams.tolist(), got):
                ref = ar.jpd_real_cumulative(n, ts, lam)
                assert row == pytest.approx(ref, rel=1e-14, abs=0.0), (n, lam)

    def test_tends_to_density(self):
        for n in (2, 6, 50, 200):
            for lam in np.linspace(0.0, 2.0 * math.sqrt(n), 7).tolist():
                assert ar.jpd_real_cumulative(n, 1e300, lam) == pytest.approx(
                    ar.density_real(n, lam), rel=1e-12, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            ar.jpd_real_cumulative(6, 0.0, 0.5)
        with pytest.raises(DomainError):
            ar.jpd_real_cumulative(1, 1.0, 0.5)


class TestBulk:
    def test_point(self):
        assert ar.jpd_real_bulk(1.0, 0.0) == pytest.approx(BULK_1_0, rel=1e-13, abs=0)

    def test_support(self):
        assert ar.jpd_real_bulk(1.0, 1.5) == 0.0
        assert ar.jpd_real_bulk(1.0, 1.0) == 0.0
        assert ar.jpd_real_bulk(0.5, -1.0) == 0.0

    def test_s_integral_is_bulk_density(self):
        for x in (0.0, 0.5, 0.9):
            val, _ = integrate_semi_infinite(lambda s: ar.jpd_real_bulk(s, x))
            assert val == pytest.approx(1.0 / SQRT_2PI, rel=1e-9, abs=0)

    def test_finite_n_convergence_monotone(self):
        grid = [(s, x) for s in (0.5, 1.0, 2.0) for x in (0.0, 0.5, 0.9)]
        sups = []
        for n in (20, 40, 80):
            sups.append(max(
                abs(n * ar.jpd_real(n, n * s, math.sqrt(n) * x) - ar.jpd_real_bulk(s, x))
                for s, x in grid))
        assert sups[0] > sups[1] > sups[2]

    def test_domain(self):
        with pytest.raises(DomainError):
            ar.jpd_real_bulk(0.0, 0.0)


class TestEdge:
    def test_frozen_points(self):
        assert ar.jpd_real_edge(1.0, 0.0) == pytest.approx(EDGE_1_0, rel=1e-12, abs=0)
        assert ar.jpd_real_edge(0.8, -0.6) == pytest.approx(EDGE_08_M06, rel=1e-12, abs=0)
        assert ar.jpd_real_edge(1.2, 0.9) == pytest.approx(EDGE_12_09, rel=1e-12, abs=0)

    def test_large_sigma_vanishes(self):
        assert ar.jpd_real_edge(1e8, 0.3) < 1e-14

    def test_sigma_integral_matches_edge_density(self):
        for delta in (0.0, -0.7, 0.5):
            val, _ = integrate_semi_infinite(lambda s: ar.jpd_real_edge(s, delta))
            assert val == pytest.approx(ar.density_real_edge(delta), rel=1e-8, abs=0)

    def test_edge_density_values(self):
        assert ar.density_real_edge(0.0) == pytest.approx(RHO_EDGE_0, rel=1e-13, abs=0)
        assert ar.density_real_edge(40.0) < 1e-300
        # delta -> -inf recovers the bulk density: the edge matches the bulk
        assert ar.density_real_edge(-30.0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-12, abs=0)

    def test_finite_n_convergence_monotone(self):
        grid = [(s, d) for s in (0.5, 1.0, 2.0) for d in (-0.5, 0.0, 0.5)]
        sups = []
        for n in (20, 40, 80):
            sups.append(max(
                abs(math.sqrt(n) * ar.jpd_real(n, math.sqrt(n) * s, math.sqrt(n) + d)
                    - ar.jpd_real_edge(s, d))
                for s, d in grid))
        assert sups[0] > sups[1] > sups[2]

    def test_finite_n_convergence_rate(self):
        # on the same grid sqrt(N) sup measured 0.757, 0.805, 0.830 and 0.843:
        # each increment about half the one before as N quadruples, so the
        # sup error is c/sqrt(N) - b/N with c ~ 0.86
        grid = [(s, d) for s in (0.5, 1.0, 2.0) for d in (-0.5, 0.0, 0.5)]
        ns = (100, 400, 1600, 6400)
        sups = []
        for n in ns:
            rt = math.sqrt(n)
            sups.append(max(
                abs(rt * ar.jpd_real(n, rt * s, rt + d) - ar.jpd_real_edge(s, d))
                for s, d in grid))
        assert sups[0] > sups[1] > sups[2] > sups[3]
        scaled = [math.sqrt(n) * sup for n, sup in zip(ns, sups)]
        assert all(0.70 <= v <= 0.90 for v in scaled), scaled
        steps = [b - a for a, b in zip(scaled, scaled[1:])]
        for prev, step in zip(steps, steps[1:]):
            assert 0.4 <= step / prev <= 0.6, scaled

    def test_domain(self):
        with pytest.raises(DomainError):
            ar.jpd_real_edge(0.0, 0.0)
