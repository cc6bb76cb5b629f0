import math

import numpy as np
import pytest

from ginibre_overlaps import analytic_complex, analytic_real, detratio, specfun
from ginibre_overlaps.ensemble import EnsembleSpec, sample_ginibre_batch
from ginibre_overlaps.errors import DomainError
from ginibre_overlaps.quadrature import QuadSpec, integrate_finite, integrate_semi_infinite

# E[(lam - g)^2 / sqrt(2p + (lam - g)^2)], g ~ N(0,1): the n = 1 scalar case
SCALAR_N1_P1_LAM0 = 0.481483566850590708
SCALAR_N1_P1_LAM05 = 0.571947616622566531


def _q(n, beta, L, z, p):
    return detratio.DetRatioQuery(n=n, beta=beta, L=L, z=z, p=p)


class TestQueryValidation:
    def test_unsupported_pairs(self):
        with pytest.raises(DomainError):
            _q(3, 1, 1, 0.0, 1.0)
        with pytest.raises(DomainError):
            _q(3, 2, 3, 0.0, 1.0)

    def test_complex_z_for_real_ensemble(self):
        with pytest.raises(DomainError):
            _q(3, 1, 2, 1.0 + 0.5j, 1.0)

    def test_negative_p(self):
        with pytest.raises(DomainError):
            _q(3, 2, 0, 0.0, -1.0)

    def test_mc_needs_positive_p(self):
        with pytest.raises(DomainError):
            detratio.detratio_mc(_q(2, 2, 0, 0.0, 0.0), 5000)


class TestScalarOracle:
    def test_n1_against_gaussian_quadrature(self):
        assert detratio.detratio_closed(_q(1, 1, 2, 0.0, 1.0)) == pytest.approx(
            SCALAR_N1_P1_LAM0, rel=1e-9)
        assert detratio.detratio_closed(_q(1, 1, 2, 0.5, 1.0)) == pytest.approx(
            SCALAR_N1_P1_LAM05, rel=1e-9)

    def test_n1_in_test_quadrature(self):
        # independent route: direct Gaussian expectation
        p, lam = 1.0, 0.5

        def f(g):
            return (lam - g) ** 2 / np.sqrt(2 * p + (lam - g) ** 2) \
                * np.exp(-0.5 * g * g) / math.sqrt(2 * math.pi)

        val, _ = integrate_finite(f, -12.0, 12.0)
        assert val == pytest.approx(SCALAR_N1_P1_LAM05, rel=1e-10)


class TestClosedVsMc:
    @pytest.mark.parametrize("beta,L", [(1, 0), (1, 2), (2, 0), (2, 1), (2, 2)])
    def test_agreement_3sigma(self, beta, L):
        z = 0.7 if beta == 1 else 0.4 + 0.3j
        q = _q(4, beta, L, z, 1.0)
        closed = detratio.detratio_closed(q)
        mean, stderr = detratio.detratio_mc(q, 200_000, seed=17)
        assert abs(mean - closed) <= 3.0 * stderr

    def test_sweep_shares_stream(self):
        res = detratio.detratio_mc_sweep(3, 2, 1, 0.5, [0.5, 2.0], 20_000, seed=3)
        single = detratio.detratio_mc(_q(3, 2, 1, 0.5, 2.0), 20_000, seed=3)
        assert res[1][0] == pytest.approx(single[0], rel=1e-12)

    def test_huge_values_finite_stderr(self):
        # |z|^{2 L n} ~ 1e192: the squares of the values overflow unless shifted
        [(mean, stderr)] = detratio.detratio_mc_sweep(8, 2, 2, 1e12, [1.0], 1000, seed=1)
        assert math.isfinite(mean) and mean > 0.0
        assert math.isfinite(stderr) and stderr > 0.0
        # ~1e1280: past the double range, a typed error instead of inf and NaN
        with pytest.raises(DomainError):
            detratio.detratio_mc_sweep(8, 2, 2, 1e40, [1.0], 1000, seed=1)

    def test_chunks_merge(self):
        args = (4, 2, 1, 0.5 + 0.4j, [0.5, 5.0], 3000)
        one = detratio.detratio_mc_sweep(*args, seed=3)
        two = detratio.detratio_mc_sweep(*args, seed=3, chunk=1700)
        for (m1, s1), (m2, s2) in zip(one, two):
            assert m2 == pytest.approx(m1, rel=1e-12)
            assert s2 == pytest.approx(s1, rel=1e-12)


class TestIdentities:
    def test_l1_at_p0_is_one(self):
        for n in (2, 5, 10):
            for az in (0.0, 0.5 * math.sqrt(n), math.sqrt(n)):
                q = _q(n, 2, 1, az, 0.0)
                assert detratio.detratio_closed(q) == pytest.approx(1.0, abs=1e-8)

    def test_l0_beta2_large_p_scaling(self):
        # denominator dominates: p^n D -> 1
        for n in (2, 3):
            q = _q(n, 2, 0, 0.8, 1e5)
            assert detratio.detratio_closed(q) * 1e5**n == pytest.approx(1.0, rel=1e-3)

    def test_zero_route_agrees_with_general(self):
        for n in (2, 4, 8):
            for p in (0.5, 5.0):
                q = _q(n, 2, 2, 0.0, p)
                general = detratio.detratio_closed(q)
                zero = detratio.detratio_closed(q, route="zero")
                assert zero == pytest.approx(general, rel=1e-8)

    def test_zero_route_rejected_elsewhere(self):
        with pytest.raises(DomainError):
            detratio.detratio_closed(_q(3, 2, 2, 1.0, 1.0), route="zero")

    def test_eks_value_matches_p0_quadrature(self):
        for n, lam in ((3, 0.0), (4, 0.7), (6, 1.5)):
            via_integral = detratio.detratio_closed(_q(n, 1, 2, lam, 0.0))
            assert detratio.detratio_real_l2_p0(n, lam) == pytest.approx(
                via_integral, rel=1e-8)

    def test_large_p_recovers_mean_det_sq(self):
        n, lam = 3, 0.8
        target = detratio.mean_det_sq_real(n, lam)
        ratios = []
        for p in (1e2, 1e3, 1e4):
            val = detratio.detratio_closed(_q(n, 1, 2, lam, p),
                                           QuadSpec(1e-14, 1e-11, 4000))
            ratios.append((2.0 * p) ** (n / 2.0) * val / target)
        errs = [abs(r - 1.0) for r in ratios]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3


class TestMeanDetSq:
    def test_hand_values(self):
        assert detratio.mean_det_sq_real(2, 0.0) == pytest.approx(2.0, rel=1e-13)
        assert detratio.mean_det_sq_real(3, 0.0) == pytest.approx(6.0, rel=1e-13)
        assert detratio.mean_det_sq_real(2, 1.0) == pytest.approx(5.0, rel=1e-13)

    def test_against_mc(self):
        n, lam, n_samp = 2, 1.0, 200_000
        spec = EnsembleSpec(n=n, beta=1, seed=23)
        mats = sample_ginibre_batch(spec, 0, n_samp)
        dets = np.linalg.det(lam * np.eye(n) - mats) ** 2
        mean, stderr = dets.mean(), dets.std(ddof=1) / math.sqrt(n_samp)
        assert abs(mean - detratio.mean_det_sq_real(n, lam)) <= 3.0 * stderr


class TestLaplaceBridges:
    def test_real_bridge_spot(self):
        n, lam, p = 4, 0.8, 1.0
        lhs, _ = integrate_semi_infinite(
            lambda t: np.exp(-p * t) * analytic_real.jpd_real(n, t, lam),
            QuadSpec(1e-14, 1e-11, 4000))
        norm = 2.0 ** (n / 2.0) * math.exp(specfun.log_gamma(n / 2.0))
        rhs = math.exp(-0.5 * lam * lam) / norm * detratio.detratio_closed(
            _q(n - 1, 1, 2, lam, p))
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_complex_bridge_spot(self):
        n, az, p = 4, 1.0, 1.0
        a = az * az
        lhs, _ = integrate_semi_infinite(
            lambda t: np.exp(-p * t) * analytic_complex.jpd_complex(n, t, a),
            QuadSpec(1e-14, 1e-11, 4000))
        rhs = math.exp(-a) / (math.pi * math.factorial(n - 1)) \
            * detratio.detratio_closed(_q(n - 1, 2, 2, az, p))
        assert lhs == pytest.approx(rhs, rel=1e-6)
