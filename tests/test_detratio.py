import math

import mpmath
import numpy as np
import pytest

from ginibre_overlaps import analytic_complex, analytic_real, detratio, specfun
from ginibre_overlaps.analytic_complex import _tau_form
from ginibre_overlaps.ensemble import EnsembleSpec, sample_ginibre_batch
from ginibre_overlaps.errors import DomainError
from ginibre_overlaps.quadrature import (
    DEFAULT_SPEC, QuadSpec, integrate_finite, integrate_semi_infinite)

# E[(lam - g)^2 / sqrt(2p + (lam - g)^2)], g ~ N(0,1): the n = 1 scalar case
SCALAR_N1_P1_LAM0 = 0.481483566850590708
SCALAR_N1_P1_LAM05 = 0.571947616622566531

_LN2 = math.log(2.0)


def _q(n, beta, L, z, p):
    return detratio.DetRatioQuery(n=n, beta=beta, L=L, z=z, p=p)


# ---------------------------------------------------------------------------
# reference: the closed forms as six separate integrands, each with its own
# incomplete-gamma bracket in linear space (correct wherever Q does not
# underflow), kept to check the single Laplace integrand of detratio_closed
# ---------------------------------------------------------------------------

def _ref_integrate_kernel(f, p: float, spec: QuadSpec, hint: float | None = None) -> float:
    """Integrate f over (0, inf) with the variable rescaled by the e^{-pt}
    kernel scale, so large p cannot hide the integrand from the first panels."""
    scale = max(p, 1.0)

    def g(s):
        return f(s / scale) / scale

    val, _ = integrate_semi_infinite(g, spec, singular_exponent_at_zero=hint)
    return val


def _ref_closed_real_l0(n: int, a: float, p: float, spec: QuadSpec) -> float:
    ln_pref = -0.5 * n * _LN2 - specfun.log_gamma(0.5 * n)

    def f(t):
        log_tau = np.log(t) - np.log1p(t)
        return np.exp(ln_pref - p * t - 0.5 * a * np.exp(log_tau)
                      + 0.5 * n * log_tau - np.log(t))

    hint = 0.5 * n - 1.0
    return _ref_integrate_kernel(f, p, spec, hint=hint if hint < 0 else None)


def _ref_closed_real_l2(n: int, a: float, p: float, spec: QuadSpec) -> float:
    # bracket [Gamma(n+1,a) - a tau Gamma(n,a)] = Gamma(n) [n Q_{n+1} - a tau Q_n]
    qn1 = specfun.reg_gamma_q(n + 1, a)
    qn = specfun.reg_gamma_q(n, a)
    ln_pref = specfun.log_gamma(float(n)) - 0.5 * n * _LN2 - specfun.log_gamma(0.5 * n)

    def f(t):
        tau = t / (1.0 + t)
        bracket = np.maximum(n * qn1 - a * tau * qn, 0.0)
        log_tau = np.log(t) - np.log1p(t)
        with np.errstate(divide="ignore"):
            return np.where(
                bracket > 0.0,
                np.exp(ln_pref - p * t + a * (1.0 - 0.5 * tau)
                       + 0.5 * (n + 2) * log_tau - 2.0 * np.log(t)
                       + np.log(np.maximum(bracket, 1e-300))),
                0.0)

    hint = 0.5 * (n - 2)
    return _ref_integrate_kernel(f, p, spec, hint=hint if hint < 0 else None)


def _ref_closed_complex_l0(n: int, a: float, p: float, spec: QuadSpec) -> float:
    ln_pref = -specfun.log_gamma(float(n))

    def f(t):
        tau = t / (1.0 + t)
        log_tau = np.log(t) - np.log1p(t)
        return np.exp(ln_pref - p * t - a * tau + n * log_tau - np.log(t))

    return _ref_integrate_kernel(f, p, spec)


def _ref_closed_complex_l1(n: int, a: float, p: float, spec: QuadSpec) -> float:
    # [Gamma(n+1,a) - a tau Gamma(n,a)]/(n-1)! in regularized form; the e^a
    # prefactor combines with e^{-a tau} into the bounded e^{a/(1+t)}
    qn1 = specfun.reg_gamma_q(n + 1, a)
    qn = specfun.reg_gamma_q(n, a)

    def f(t):
        tau = t / (1.0 + t)
        bracket = np.maximum(n * qn1 - a * tau * qn, 0.0)
        log_tau = np.log(t) - np.log1p(t)
        with np.errstate(divide="ignore"):
            return np.where(
                bracket > 0.0,
                np.exp(-p * t + a / (1.0 + t) + n * log_tau - np.log(t) - np.log1p(t)
                       + np.log(np.maximum(bracket, 1e-300))),
                0.0)

    return _ref_integrate_kernel(f, p, spec)


def _ref_closed_complex_l2(n: int, a: float, p: float, spec: QuadSpec) -> float:
    # tau-form weights at order n+1; their normalization Gamma(n+1)Gamma(n)
    # combines with the 1/(n-1)! prefactor into Gamma(n+1), and
    # e^{top + a} = pi e^{log_pref}
    log_pref, _, _, (_, g1, g2, g3) = _tau_form(n + 1, a)
    ln_pref = specfun.log_gamma(n + 1.0) + a + log_pref + math.log(math.pi)

    def f(t):
        om = 1.0 / (1.0 + t)
        tau = t * om
        bracket = g1 + g2 * om + g3 * om * om
        log_tau = np.log(t) - np.log1p(t)
        return np.exp(ln_pref - p * t - a * tau + n * log_tau - np.log(t)
                      - 2.0 * np.log1p(t) + np.log(bracket))

    return _ref_integrate_kernel(f, p, spec)


def _ref_closed_complex_l2_zero(n: int, p: float, spec: QuadSpec) -> float:
    ln_pref = math.log(n) + specfun.log_gamma(n + 2.0)

    def f(t):
        log_tau = np.log(t) - np.log1p(t)
        return np.exp(ln_pref - p * t + n * log_tau - np.log(t) - 2.0 * np.log1p(t))

    return _ref_integrate_kernel(f, p, spec)


def _reference_closed(q, spec=DEFAULT_SPEC):
    a = abs(complex(q.z)) ** 2
    route = {(1, 0): _ref_closed_real_l0, (1, 2): _ref_closed_real_l2,
             (2, 0): _ref_closed_complex_l0, (2, 1): _ref_closed_complex_l1,
             (2, 2): _ref_closed_complex_l2}[(q.beta, q.L)]
    return route(q.n, a, q.p, spec)


class TestAgainstReference:
    # n, the five pairs, |z| in the bulk and at the edge, p over six decades;
    # p = 0 only for L >= 1, where the integral converges
    GRID = [(n, beta, L, az, p)
            for n in (1, 2, 3, 4, 6, 10, 30)
            for beta, L in ((1, 0), (1, 2), (2, 0), (2, 1), (2, 2))
            for az in (0.0, 0.7, 2.0, math.sqrt(n))
            for p in (0.0, 0.1, 1.0, 5.0, 1e3, 1e5)
            if p > 0.0 or L > 0]

    def test_one_integrand_matches_six(self):
        for case in self.GRID:
            q = _q(*case)
            assert detratio.detratio_closed(q) == pytest.approx(
                _reference_closed(q), rel=1e-12, abs=0), case

    def test_z0_matches_zero_reference(self):
        # at z = 0 the (2, 2) integrand has no bracket: the general row must match it
        for n in (1, 2, 3, 4, 6, 10, 30):
            for p in (0.0, 0.1, 1.0, 5.0, 1e3, 1e5):
                got = detratio.detratio_closed(_q(n, 2, 2, 0.0, p))
                assert got == pytest.approx(
                    _ref_closed_complex_l2_zero(n, p, DEFAULT_SPEC), rel=1e-12, abs=0), (n, p)


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

    def test_l0_diverges_at_p0(self):
        # the L = 0 integrand falls like 1/t at p = 0
        for case in ((30, 2, 0, 0.0, 0.0), (30, 1, 0, 0.0, 0.0),
                     (10, 2, 0, 2.0, 0.0), (4, 2, 0, 0.0, 0.0)):
            with pytest.raises(DomainError):
                detratio.detratio_closed(_q(*case))

    def test_mc_needs_positive_p(self):
        with pytest.raises(DomainError):
            detratio.detratio_mc(_q(2, 2, 0, 0.0, 0.0), 5000)

    @pytest.mark.parametrize("beta,L", [(1, 2), (2, 1)])
    @pytest.mark.parametrize("z,p", [(math.nan, 1.0), (math.inf, 1.0),
                                     (complex(math.nan, 0.0), 1.0), (0.5, math.inf)])
    def test_non_finite_z_and_p(self, beta, L, z, p):
        with pytest.raises(DomainError):
            detratio.detratio_closed(_q(4, beta, L, z, p))
        with pytest.raises(DomainError):
            detratio.detratio_mc_sweep(4, beta, L, z, [p], 2000)

    def test_integral_float_n_as_int(self, fresh_streams):
        # the float first, so the cache cannot hand it the int's result
        got = detratio.detratio_mc_sweep(4.0, 2, 1, 0.5, [1.0], 2000, seed=3)
        detratio._stream_moments.cache_clear()
        assert got == detratio.detratio_mc_sweep(4, 2, 1, 0.5, [1.0], 2000, seed=3)
        with pytest.raises(DomainError):
            detratio.detratio_mc_sweep(4.5, 2, 1, 0.5, [1.0], 2000)
        with pytest.raises(DomainError):
            detratio.detratio_mc_sweep(4, 2, 1, 0.5, [1.0], 2000, seed=1.5)

    @pytest.mark.parametrize("chunk", [0, -5])
    def test_chunk_below_one(self, chunk):
        with pytest.raises(DomainError):
            detratio.detratio_mc_sweep(4, 2, 1, 0.5, [1.0], 2000, chunk=chunk)


class TestScalarOracle:
    def test_n1_against_gaussian_quadrature(self):
        assert detratio.detratio_closed(_q(1, 1, 2, 0.0, 1.0)) == pytest.approx(
            SCALAR_N1_P1_LAM0, rel=1e-9, abs=0)
        assert detratio.detratio_closed(_q(1, 1, 2, 0.5, 1.0)) == pytest.approx(
            SCALAR_N1_P1_LAM05, rel=1e-9, abs=0)

    def test_n1_in_test_quadrature(self):
        # independent route: direct Gaussian expectation
        p, lam = 1.0, 0.5

        def f(g):
            return (lam - g) ** 2 / np.sqrt(2 * p + (lam - g) ** 2) \
                * np.exp(-0.5 * g * g) / math.sqrt(2 * math.pi)

        val, _ = integrate_finite(f, -12.0, 12.0)
        assert val == pytest.approx(SCALAR_N1_P1_LAM05, rel=1e-10, abs=0)


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
        assert res[1][0] == pytest.approx(single[0], rel=1e-12, abs=0)

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
            assert m2 == pytest.approx(m1, rel=1e-12, abs=0)
            assert s2 == pytest.approx(s1, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# reference: the Monte Carlo accumulation on the singular values of z - G, as
# detratio_mc_sweep computed every matrix before the Gram/slogdet route
# ---------------------------------------------------------------------------

def _ref_svd_sweep(n, beta, L, z, p_values, n_samples, seed):
    spec = EnsembleSpec(n=n, beta=beta, seed=seed)
    mats = sample_ginibre_batch(spec, 0, n_samples)
    zc = complex(z)
    eye = np.eye(n)
    shifted = (zc * eye)[None, :, :] - mats if beta == 2 else (zc.real * eye)[None, :, :] - mats
    svals = np.linalg.svd(shifted, compute_uv=False)
    logs = np.log(svals)
    out = []
    for p in p_values:
        if beta == 1:
            vals = L * logs.sum(axis=1) - 0.5 * np.log(2.0 * p + svals**2).sum(axis=1)
        else:
            vals = 2 * L * logs.sum(axis=1) - np.log(p + svals**2).sum(axis=1)
        top = float(vals.max())
        vals = np.exp(vals - top)
        mean = float(vals.mean())
        m2 = float(((vals - mean) ** 2).sum())
        try:
            scale = math.exp(top)
        except OverflowError:
            out.append(None)
            continue
        out.append((mean * scale, math.sqrt(m2 / (n_samples - 1) / n_samples) * scale))
    return out


def _count_rows(monkeypatch, name):
    """Rows of every stack passed to np.linalg.<name>; the sweep cache is
    cleared so that the counted sweeps run their matrices."""
    detratio._stream_moments.cache_clear()
    rows = []
    fn = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        rows.append(a.shape[0])
        return fn(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return rows


def _count_svd_rows(monkeypatch):
    return _count_rows(monkeypatch, "svd")


class TestGramRoute:
    @pytest.mark.parametrize("n", [1, 4, 30])
    @pytest.mark.parametrize("beta,L", [(1, 0), (1, 2), (2, 0), (2, 1), (2, 2)])
    def test_matches_svd_reference(self, n, beta, L):
        zs = (0.7, 3.0, 1e12) if beta == 1 else (0.7, 0.5 + 0.4j, 3.0, 1e12)
        for z in zs:
            # p = 1e-8 on its own: in one sweep it would send every matrix
            # through the SVD fallback at 0.5 and 5 too
            for ps in ([0.5, 5.0], [1e-8]):
                ref = _ref_svd_sweep(n, beta, L, z, ps, 1000, seed=5)
                if None in ref:
                    with pytest.raises(DomainError):
                        detratio.detratio_mc_sweep(n, beta, L, z, ps, 1000, seed=5)
                    continue
                got = detratio.detratio_mc_sweep(n, beta, L, z, ps, 1000, seed=5)
                for (m_ref, s_ref), (m, s) in zip(ref, got):
                    assert m == pytest.approx(m_ref, rel=1e-12, abs=0), (z, ps)
                    # a per-sample change of a few ulps moves the stderr by
                    # about that much of the values, which is more than 1e-12
                    # of it where the values barely vary (n = 1, p = 1e-8)
                    assert s == pytest.approx(s_ref, rel=1e-12, abs=1e-14 * m_ref), (z, ps)

    def test_fallback_runs_where_the_gram_bound_fails(self, monkeypatch):
        rows = _count_svd_rows(monkeypatch)
        detratio.detratio_mc_sweep(4, 2, 1, 0.7, [1e-8], 2000, seed=5)
        assert sum(rows) == 2000
        rows.clear()
        detratio.detratio_mc_sweep(8, 2, 2, 1e12, [1.0], 1000, seed=1)
        assert sum(rows) == 1000
        rows.clear()
        # n = 1: only matrices with |z - g|^2 below ~4.5e-3 keep the Gram route
        detratio.detratio_mc_sweep(1, 2, 1, 0.5 + 0.4j, [1e-8], 2000, seed=5)
        assert 0 < sum(rows) < 2000

    def test_fallback_rows_skip_the_gram_route(self, monkeypatch):
        # p = 1e-8 sends every matrix to the SVD: no slogdet of A or of a shift
        svd_rows = _count_svd_rows(monkeypatch)
        slogdet_rows = _count_rows(monkeypatch, "slogdet")
        detratio.detratio_mc_sweep(4, 2, 1, 0.7, [1e-8], 2000, seed=5)
        assert sum(svd_rows) == 2000
        assert sum(slogdet_rows) == 0

    def test_no_fallback_at_oracle_inputs(self, monkeypatch):
        rows = _count_svd_rows(monkeypatch)
        for beta, L in ((1, 0), (1, 2), (2, 0), (2, 1), (2, 2)):
            z = 0.7 if beta == 1 else 0.5 + 0.4j
            detratio.detratio_mc_sweep(4, beta, L, z, [0.5, 1.0, 5.0], 8192, seed=41)
        assert rows == []


# ---------------------------------------------------------------------------
# reference: the single-L accumulation that detratio_mc_sweep ran before one
# pass over a (beta, z) stream served every L
# ---------------------------------------------------------------------------

def _ref_single_l_log_values(a, beta, L, shifts):
    cnt, n, _ = a.shape
    parts = a.reshape(cnt, n * n).view(float)
    trace = np.einsum("ij,ij->i", parts, parts)
    fallback = n * np.finfo(float).eps * trace > detratio._GRAM_LOGDET_TOL * min(shifts)
    has_fallback = bool(fallback.any())
    kept = a[~fallback] if has_fallback else a
    gram = np.matmul(kept.transpose(0, 2, 1) if beta == 1 else kept.conj().transpose(0, 2, 1),
                     kept)
    log_abs_det = beta * L * np.linalg.slogdet(kept)[1] if L else 0.0
    shifted = np.empty_like(gram)
    out = []
    for q in shifts:
        np.copyto(shifted, gram)
        shifted.reshape(len(kept), n * n)[:, ::n + 1] += q
        out.append(log_abs_det - 0.5 * beta * np.linalg.slogdet(shifted)[1])
    if has_fallback:
        svals = np.linalg.svd(a[fallback], compute_uv=False)
        logs = np.log(svals).sum(axis=1)
        for i, q in enumerate(shifts):
            vals = np.empty(cnt)
            vals[~fallback] = out[i]
            vals[fallback] = beta * L * logs - 0.5 * beta * np.log(q + svals**2).sum(axis=1)
            out[i] = vals
    return out


def _ref_single_l_sweep(n, beta, L, z, p_values, n_samples, seed=0, chunk=65536):
    spec = EnsembleSpec(n=n, beta=beta, seed=seed)
    acc = [None for _ in p_values]
    zc = complex(z) if beta == 2 else complex(z).real
    shifts = [2.0 * p if beta == 1 else p for p in p_values]
    for lo in range(0, n_samples, chunk):
        cnt = min(chunk, n_samples - lo)
        a = detratio.sample_ginibre_batch(spec, lo, cnt)
        np.negative(a, out=a)
        a.reshape(cnt, n * n)[:, ::n + 1] += zc
        for i, logs in enumerate(_ref_single_l_log_values(a, beta, L, shifts)):
            top = float(logs.max())
            vals = np.exp(logs - top)
            mean = float(vals.mean())
            acc[i] = detratio._merge_moments(acc[i], (vals.size, top, mean,
                                                      float(((vals - mean) ** 2).sum())))
    out = []
    for cnt_i, top, mean, m2 in acc:
        try:
            scale = math.exp(top)
        except OverflowError:
            raise DomainError("Monte Carlo values exceed the double range") from None
        out.append((mean * scale, math.sqrt(m2 / (cnt_i - 1) / cnt_i) * scale))
    return out


PAIRS = [(1, 0), (1, 2), (2, 0), (2, 1), (2, 2)]


@pytest.fixture
def fresh_streams():
    """An empty sweep cache before and after, so no stream drawn under a
    patched sampler outlives the test."""
    detratio._stream_moments.cache_clear()
    yield
    detratio._stream_moments.cache_clear()


class TestStreamSharing:
    # (n, z for beta = 1 and 2, p values, samples, chunk): no fallback over
    # two chunks; every matrix falling back (z = 1e12, p = 1e-8); some
    # falling back (n = 1)
    CASES = [(4, (0.7, 0.7 + 0.4j), [0.5, 1.0, 5.0], 3000, 1700),
             (4, (1e12, 1e12), [1e-8], 1000, 65536),
             (1, (0.5, 0.5 + 0.4j), [1e-8, 0.5], 2000, 65536)]

    @pytest.mark.parametrize("beta,L", PAIRS)
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_equals_single_l_accumulation(self, beta, L, case, fresh_streams):
        n, zs, ps, count, chunk = self.CASES[case]
        z = zs[beta - 1]
        got = detratio.detratio_mc_sweep(n, beta, L, z, ps, count, seed=5, chunk=chunk)
        assert got == _ref_single_l_sweep(n, beta, L, z, ps, count, seed=5, chunk=chunk)

    def test_call_order_does_not_matter(self, fresh_streams):
        def sweep(ell):
            return detratio.detratio_mc_sweep(4, 2, ell, 0.5 + 0.4j, [0.5, 5.0], 3000, seed=9)

        l2_first = [sweep(2), sweep(0)]
        detratio._stream_moments.cache_clear()
        l0_first = [sweep(0), sweep(2)]
        fresh = []
        for ell in (2, 0):
            detratio._stream_moments.cache_clear()
            fresh.append(sweep(ell))
        assert l2_first == l0_first[::-1] == fresh

    def test_second_l_draws_no_matrices(self, monkeypatch, fresh_streams):
        counts = []
        sample = detratio.sample_ginibre_batch

        def counting(spec, start, count):
            counts.append(count)
            return sample(spec, start, count)

        monkeypatch.setattr(detratio, "sample_ginibre_batch", counting)
        detratio.detratio_mc_sweep(4, 2, 1, 0.5 + 0.4j, [0.5, 1.0], 3000, seed=2, chunk=1000)
        assert sum(counts) == 3000
        counts.clear()
        for ell in (0, 2, 1):
            detratio.detratio_mc_sweep(4, 2, ell, 0.5 + 0.4j, [0.5, 1.0], 3000, seed=2,
                                       chunk=1000)
        assert counts == []
        # another p list, seed, z or chunk is another pass
        detratio.detratio_mc_sweep(4, 2, 1, 0.5 + 0.4j, [0.5], 3000, seed=2, chunk=1000)
        assert sum(counts) == 3000

    def test_returned_list_is_the_callers(self, fresh_streams):
        args = (4, 1, 2, 0.7, [0.5, 5.0], 2000)
        first = detratio.detratio_mc_sweep(*args, seed=4)
        kept = list(first)
        first[0] = (0.0, 0.0)
        first.clear()
        assert detratio.detratio_mc_sweep(*args, seed=4) == kept

    @pytest.mark.parametrize("order", [(0, 2), (2, 0)])
    def test_only_the_overflowing_l_raises(self, order, fresh_streams):
        # n = 26 at z = 1e12: the L = 2 values are ~e^718 (past the double
        # range), the L = 0 values ~e^-718 (subnormal, but representable)
        for ell in order:
            if ell == 2:
                with pytest.raises(DomainError):
                    detratio.detratio_mc_sweep(26, 1, 2, 1e12, [1.0], 1000, seed=1)
            else:
                [(mean, stderr)] = detratio.detratio_mc_sweep(26, 1, 0, 1e12, [1.0], 1000,
                                                              seed=1)
                assert 0.0 < mean < 1e-300 and math.isfinite(stderr)

    @pytest.mark.parametrize("beta,z", [(1, 0.7), (2, 0.5 + 0.4j)])
    def test_exactly_singular_a(self, beta, z, monkeypatch, fresh_streams):
        # every 7th matrix (by its index in the stream, however a sweep batches
        # its draws) is G = z I, so A = z I - G = 0 and log|det A| = -inf
        sample = detratio.sample_ginibre_batch

        def with_z_identity(spec, start, count):
            mats = sample(spec, start, count)
            mats[(-start) % 7::7] = z * np.eye(spec.n) if beta == 2 else z.real * np.eye(spec.n)
            return mats

        monkeypatch.setattr(detratio, "sample_ginibre_batch", with_z_identity)
        for L in (0, 2) if beta == 1 else (0, 1, 2):
            got = detratio.detratio_mc_sweep(4, beta, L, z, [0.5, 5.0], 2000, seed=3)
            assert got == _ref_single_l_sweep(4, beta, L, z, [0.5, 5.0], 2000, seed=3)
            assert not any(math.isnan(v) for pair in got for v in pair)
            if L == 0:
                assert all(math.isfinite(v) and v > 0.0 for pair in got for v in pair)


class TestIdentities:
    def test_l1_at_p0_is_one(self):
        for n in (2, 5, 10):
            for az in (0.0, 0.5 * math.sqrt(n), math.sqrt(n), 30.0):
                q = _q(n, 2, 1, az, 0.0)
                assert detratio.detratio_closed(q) == pytest.approx(1.0, abs=1e-8)

    def test_l0_beta2_large_p_scaling(self):
        # denominator dominates: p^n D -> 1
        for n in (2, 3):
            q = _q(n, 2, 0, 0.8, 1e5)
            assert detratio.detratio_closed(q) * 1e5**n == pytest.approx(1.0, rel=1e-3, abs=0)

    def test_eks_value_matches_p0_quadrature(self):
        for n, lam in ((3, 0.0), (4, 0.7), (6, 1.5), (6, 28.0), (10, 40.0)):
            via_integral = detratio.detratio_closed(_q(n, 1, 2, lam, 0.0))
            assert detratio.detratio_real_l2_p0(n, lam) == pytest.approx(
                via_integral, rel=1e-8, abs=0)

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
        assert detratio.mean_det_sq_real(2, 0.0) == pytest.approx(2.0, rel=1e-13, abs=0)
        assert detratio.mean_det_sq_real(3, 0.0) == pytest.approx(6.0, rel=1e-13, abs=0)
        assert detratio.mean_det_sq_real(2, 1.0) == pytest.approx(5.0, rel=1e-13, abs=0)

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
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=0)

    def test_complex_bridge_spot(self):
        n, az, p = 4, 1.0, 1.0
        a = az * az
        lhs, _ = integrate_semi_infinite(
            lambda t: np.exp(-p * t) * analytic_complex.jpd_complex(n, t, a),
            QuadSpec(1e-14, 1e-11, 4000))
        rhs = math.exp(-a) / (math.pi * math.factorial(n - 1)) \
            * detratio.detratio_closed(_q(n - 1, 2, 2, az, p))
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=0)


class TestRealL2AtPZero:
    """detratio_real_l2_p0, the (1, 2) row's tau-form integrated to T = 1,
    against the closed form of its docstring in 40-digit mpmath."""

    @staticmethod
    def _closed(n, lam):
        # (2/(2^{n/2} Gamma(n/2))) [e^{a/2} Gamma(n, a) + |lam|^n 2^{n/2-1} gamma(n/2, a/2)]
        lam = abs(mpmath.mpf(lam))
        a, h = lam * lam, mpmath.mpf(n) / 2
        return 2 / (2**h * mpmath.gamma(h)) * (
            mpmath.exp(a / 2) * mpmath.gammainc(n, a, mpmath.inf)
            + lam**n * 2 ** (h - 1) * mpmath.gammainc(h, 0, a / 2))

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 40])
    def test_against_mpmath(self, n):
        with mpmath.workdps(40):
            for lam in (0.0, 0.3, 1.0, 3.0, 10.0):
                ref = self._closed(n, lam)
                got = detratio.detratio_real_l2_p0(n, lam)
                assert abs(got - ref) <= 5e-14 * ref, (n, lam)
                assert detratio.detratio_real_l2_p0(n, -lam) == got


class TestSmallValues:
    """detratio_closed far below the quadrature's abs_tol, against 40-digit
    mpmath of its own row integrand, taken over tau = t/(1+t) in (0, 1):

        e^{log_pref} e^{-p tau/(1-tau) - x tau} tau^{s-1} (1-tau)^{j-2} sum_m c_m (1-tau)^m
    """

    @staticmethod
    def _row(n, L, a):
        # (log_pref, s, x, c, j) of the (2, 0) and (2, 2) rows
        if L == 0:
            return -mpmath.loggamma(n), n, a, (1.0,), 1
        log_pref, s, x, c = _tau_form(n + 1, a)
        return (mpmath.log(mpmath.pi) + mpmath.loggamma(n + 1) + a + float(log_pref),
                s, x, [float(cm) for cm in c], 2)

    @pytest.mark.parametrize("n, L, z, p", [(4, 0, 100.0, 1.0), (10, 0, 20.0, 1.0),
                                            (4, 0, 30.0, 1.0), (4, 0, 1.0, 1e6),
                                            (4, 2, 1.0, 1e6)])
    def test_against_mpmath(self, n, L, z, p):
        with mpmath.workdps(40):
            log_pref, s, x, c, j = self._row(n, L, z * z)

            def f(tau):
                om = 1 - tau
                if om == 0:
                    return mpmath.mpf(0)
                return (mpmath.exp(log_pref - p * tau / om - x * tau) * tau ** (s - 1)
                        * om ** (j - 2) * sum(cm * om**m for m, cm in enumerate(c)))

            # breakpoints down to 1e-12 resolve the peak near tau ~ (s - 1)/x or 1/p
            ref = mpmath.quad(f, [0] + [mpmath.mpf(10) ** -k for k in range(12, 0, -1)] + [1])
            got = detratio.detratio_closed(_q(n, 2, L, z, p))
            assert abs(got - ref) <= 1e-13 * ref, (n, L, z, p)
