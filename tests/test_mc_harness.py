import concurrent.futures
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginibre_overlaps import analytic_complex, analytic_real
from ginibre_overlaps import mc_harness as mh
from ginibre_overlaps.ensemble import (
    EnsembleSpec,
    _overlaps_bordered,
    _overlaps_core,
    sample_ginibre_batch,
)
from ginibre_overlaps.errors import (
    DomainError,
    EmptyWindowError,
    InsufficientSamplesError,
    QuadratureConvergenceError,
)
from ginibre_overlaps.quadrature import QuadSpec, integrate_finite


def _reference_conditional_cdf(spec, window, t_grid):
    """The conditional CDF by nested quadrature, as analytic_conditional_cdf
    computed it before the t-integral had a closed form: on the same outer
    nodes, one adaptive integral of the joint density per node and bin."""
    from ginibre_overlaps import analytic_complex, analytic_real
    seg_spec = QuadSpec(abs_tol=1e-14, rel_tol=1e-9, max_subdivisions=400)
    nodes, weights, mass = mh._outer_nodes(window, spec)
    cdf = np.zeros(t_grid.size)
    for x, wgt in zip(nodes, weights):
        if spec.beta == 1:
            def pdf(t, _x=x):
                return analytic_real.jpd_real(spec.n, t, _x)
        else:
            def pdf(t, _a=x * x):
                return analytic_complex.jpd_complex(spec.n, t, _a)

        # first segment via t = v^2: absorbs the integrable t^{-1/2}
        # endpoint of the real-ensemble density at n <= 3
        v0 = math.sqrt(t_grid[0])
        seg, _ = integrate_finite(lambda v: 2.0 * v * pdf(v * v), 0.0, v0, seg_spec)
        cum = np.empty(t_grid.size)
        cum[0] = seg
        for i in range(1, t_grid.size):
            seg, _ = integrate_finite(pdf, t_grid[i - 1], t_grid[i], seg_spec)
            cum[i] = cum[i - 1] + seg
        cdf += wgt * cum
    return cdf / mass


def _synthetic_hist(t_samples, n=4, window=None):
    edges = mh.default_bin_edges(n)
    window = window or mh.Window(kind=mh.ANNULUS, lo=0.0, hi=1.0)
    counts = np.histogram(t_samples, bins=edges)[0]
    return mh.ConditionedHistogram(
        window=window, bin_edges=edges, counts=counts,
        underflow=int((t_samples < edges[0]).sum()),
        overflow=int((t_samples > edges[-1]).sum()), n_matrices=1)


class TestWindow:
    def test_validation(self):
        with pytest.raises(DomainError):
            mh.Window(kind="disc", lo=0.0, hi=1.0)
        with pytest.raises(DomainError):
            mh.Window(kind=mh.REAL_INTERVAL, lo=1.0, hi=1.0)
        with pytest.raises(DomainError):
            mh.Window(kind=mh.ANNULUS, lo=-0.5, hi=1.0)

    def test_non_finite_bounds(self):
        # an infinite bound would reach the CDF's outer quadrature as NaN nodes
        for kind, lo, hi in ((mh.REAL_INTERVAL, 0.0, math.inf),
                             (mh.REAL_INTERVAL, -math.inf, 0.0),
                             (mh.ANNULUS, 0.0, math.inf),
                             (mh.REAL_INTERVAL, math.nan, 1.0)):
            with pytest.raises(DomainError, match="window"):
                mh.Window(kind=kind, lo=lo, hi=hi)


class TestCampaign:
    def test_merge_is_exact(self):
        spec = EnsembleSpec(n=4, beta=2, seed=11)
        win = mh.Window(kind=mh.ANNULUS, lo=0.0, hi=1.2)
        whole = mh.run_campaign(spec, 1500, win)
        left = mh.run_campaign(spec, 900, win)
        right = mh.run_campaign(spec, 600, win, start_index=900)
        merged = left.merge(right)
        assert np.array_equal(merged.counts, whole.counts)
        assert merged.underflow == whole.underflow
        assert merged.overflow == whole.overflow
        assert merged.n_samples == whole.n_samples

    def test_thread_invariance(self):
        spec = EnsembleSpec(n=4, beta=2, seed=11)
        win = mh.Window(kind=mh.ANNULUS, lo=0.0, hi=1.2)
        one = mh.run_campaign(spec, 1200, win, threads=1, chunk=256)
        many = mh.run_campaign(spec, 1200, win, threads=4, chunk=256)
        assert np.array_equal(one.counts, many.counts)
        assert one.n_samples == many.n_samples

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        spec = EnsembleSpec(n=4, beta=2, seed=11)
        win = mh.Window(kind=mh.ANNULUS, lo=0.0, hi=1.2)
        with pytest.raises(DomainError, match="threads"):
            mh.run_campaign(spec, 100, win, threads=threads)

    def test_empty_window(self):
        spec = EnsembleSpec(n=4, beta=2, seed=0)
        far = mh.Window(kind=mh.ANNULUS, lo=10.0 * 2.0, hi=11.0 * 2.0)
        with pytest.raises(EmptyWindowError):
            mh.run_campaign(spec, 50, far)

    def test_sample_count_matches_density_mass(self):
        # mean samples per matrix = window mass of the real-eigenvalue density
        from ginibre_overlaps import analytic_real
        spec = EnsembleSpec(n=6, beta=1, seed=21)
        half = 0.5 * math.sqrt(6.0)
        win = mh.Window(kind=mh.REAL_INTERVAL, lo=-half, hi=half)
        n_mat = 4000
        hist = mh.run_campaign(spec, n_mat, win)
        mass, _ = integrate_finite(lambda x: analytic_real.density_real(6, x), -half, half)
        expected = n_mat * mass
        assert abs(hist.n_samples - expected) <= 3.0 * math.sqrt(expected)

    def test_beta1_complex_samples_collected_but_unvalidated(self):
        # complex eigenvalues of the real ensemble are harvested like any
        # other sample, but no analytic conditional law exists for them
        spec = EnsembleSpec(n=6, beta=1, seed=3)
        win = mh.Window(kind=mh.ANNULUS, lo=0.0, hi=2.0)
        hist = mh.run_campaign(spec, 500, win)
        assert hist.n_samples > 0
        with pytest.raises(DomainError):
            mh.analytic_conditional_cdf(spec, win, hist.bin_edges)

    @pytest.mark.parametrize("chunk", [0, -5])
    def test_chunk_below_one(self, chunk):
        spec = EnsembleSpec(n=4, beta=2, seed=11)
        win = mh.Window(kind=mh.ANNULUS, lo=0.0, hi=1.2)
        with pytest.raises(DomainError):
            mh.run_campaign(spec, 100, win, chunk=chunk)
        with pytest.raises(DomainError):
            mh.collect_overlaps(spec, 100, win, chunk=chunk)

    def test_collect_overlaps_matches_histogram(self):
        spec = EnsembleSpec(n=4, beta=2, seed=11)
        win = mh.Window(kind=mh.ANNULUS, lo=0.0, hi=1.2)
        hist = mh.run_campaign(spec, 700, win)
        raw = mh.collect_overlaps(spec, 700, win)
        assert raw.size == hist.n_samples
        assert np.array_equal(np.histogram(raw, bins=hist.bin_edges)[0], hist.counts)

    @settings(max_examples=30, deadline=None)
    @given(split=st.integers(min_value=1, max_value=99))
    def test_merge_counts_commute(self, split):
        rng = np.random.default_rng(split)
        win = mh.Window(kind=mh.ANNULUS, lo=0.0, hi=1.0)
        a = _synthetic_hist(rng.pareto(1.5, size=200) + 0.01, window=win)
        b = _synthetic_hist(rng.pareto(1.5, size=300) + 0.01, window=win)
        ab, ba = a.merge(b), b.merge(a)
        assert np.array_equal(ab.counts, ba.counts)
        assert ab.n_samples == ba.n_samples == a.n_samples + b.n_samples


class TestWindowedOverlaps:
    """The campaign route (eigenvalues, then one bordered solve per windowed
    eigenvalue) against the eig/inv reference route."""

    @pytest.mark.parametrize("n", [1, 2, 6, 30])
    @pytest.mark.parametrize("beta,kind", [(1, mh.REAL_INTERVAL), (1, mh.ANNULUS),
                                           (2, mh.ANNULUS)])
    def test_matches_eig_inv(self, beta, kind, n):
        spec = EnsembleSpec(n=n, beta=beta, seed=17)
        scale = math.sqrt(n)
        if kind == mh.REAL_INTERVAL:
            win = mh.Window(kind=kind, lo=-0.6 * scale, hi=0.6 * scale)
        else:
            win = mh.Window(kind=kind, lo=0.2 * scale, hi=0.9 * scale)
        mats = sample_ginibre_batch(spec, 0, max(64, 4000 // (n * n)))
        w, t_ref, _, ok = _overlaps_core(mats)
        assert ok.all()
        assert np.array_equal(np.linalg.eigvals(mats), w)
        rows, cols = np.nonzero(mh._window_mask(spec, win, w))
        assert rows.size > 0 or (beta, kind, n) == (1, mh.ANNULUS, 1)
        t, good = _overlaps_bordered(mats, rows, w[rows, cols])
        assert good.all()
        np.testing.assert_allclose(t, t_ref[rows, cols], rtol=1e-10, atol=0.0)

    def test_empty_window(self):
        spec = EnsembleSpec(n=4, beta=2, seed=0)
        mats = sample_ginibre_batch(spec, 0, 10)
        t, good = _overlaps_bordered(mats, np.array([], dtype=int), np.array([], dtype=complex))
        assert t.shape == good.shape == (0,)
        far = mh.Window(kind=mh.ANNULUS, lo=20.0, hi=22.0)
        with pytest.raises(EmptyWindowError):
            mh.collect_overlaps(spec, 50, far)

    def test_passes_no_larger_than_the_chunk(self, monkeypatch):
        spec = EnsembleSpec(n=6, beta=2, seed=3)
        mats = sample_ginibre_batch(spec, 0, 5)
        rows = np.repeat(np.arange(5), 6)
        w = np.linalg.eigvals(mats).ravel()
        sizes = []
        solve = np.linalg.solve

        def recording(a, b):
            sizes.append(len(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        t, good = _overlaps_bordered(mats, rows, w)
        assert good.all() and max(sizes) <= 5 and sum(sizes) == 2 * 30

    def test_degenerate_matrix_rejected_and_counted(self, monkeypatch):
        # 0.5 I: G - 0.5 I = 0, so even the bordered system is singular
        spec = EnsembleSpec(n=3, beta=1, seed=2)
        win = mh.Window(kind=mh.REAL_INTERVAL, lo=-1.0, hi=1.0)
        clean = mh.collect_overlaps(spec, 200, win, chunk=64)
        sample = mh.sample_ginibre_batch
        w10 = np.linalg.eigvals(sample(spec, 10, 1))
        lost = int(mh._window_mask(spec, win, w10).sum())

        def with_identity(spec, start, count):
            mats = sample(spec, start, count)
            if start <= 10 < start + count:
                mats[10 - start] = 0.5 * np.eye(3)
            return mats

        monkeypatch.setattr(mh, "sample_ginibre_batch", with_identity)
        hist = mh.run_campaign(spec, 200, win, chunk=64)
        assert hist.n_rejected == 1
        assert hist.n_samples == clean.size - lost
        raw = mh.collect_overlaps(spec, 200, win, chunk=64)
        assert raw.size == clean.size - lost and np.isfinite(raw).all()

    @pytest.mark.parametrize("beta,kind,lo,hi", [(1, mh.REAL_INTERVAL, -1.2, 1.2),
                                                 (1, mh.ANNULUS, 0.5, 2.5),
                                                 (2, mh.ANNULUS, 0.5, 2.0)])
    def test_bytes_independent_of_chunk_and_threads(self, beta, kind, lo, hi):
        spec = EnsembleSpec(n=5, beta=beta, seed=23)
        win = mh.Window(kind=kind, lo=lo, hi=hi)
        chunks = (1, 7, 4096)

        def raw(chunk):
            return mh.collect_overlaps(spec, 300, win, chunk=chunk).tobytes()

        serial = [raw(c) for c in chunks]
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(raw, chunks))
        assert len(set(serial + threaded)) == 1

    def test_campaign_takes_no_eigenvectors(self, monkeypatch):
        calls = []
        eig = np.linalg.eig

        def counting(a):
            calls.append(a.shape)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counting)
        spec = EnsembleSpec(n=6, beta=1, seed=4)
        win = mh.Window(kind=mh.REAL_INTERVAL, lo=-1.0, hi=1.0)
        mh.run_campaign(spec, 300, win, threads=2, chunk=100)
        mh.collect_overlaps(spec, 300, mh.Window(kind=mh.ANNULUS, lo=0.5, hi=2.0))
        assert calls == []


class TestConditionalCdf:
    def test_endpoints_and_monotonicity(self):
        spec = EnsembleSpec(n=4, beta=2, seed=0)
        win = mh.Window(kind=mh.ANNULUS, lo=0.0, hi=1.0)
        grid = mh.default_bin_edges(4)
        cdf = mh.analytic_conditional_cdf(spec, win, grid)
        assert cdf[0] < 1e-4
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-6)

    def test_small_disc_matches_z0_law(self):
        # conditional law in a small disc around 0 at n = 2:
        # F(t) = 1 - 1/(1+t)^2 + O(r^2)
        spec = EnsembleSpec(n=2, beta=2, seed=0)
        win = mh.Window(kind=mh.ANNULUS, lo=0.0, hi=0.05)
        grid = np.geomspace(0.1, 1e4, 40)
        cdf = mh.analytic_conditional_cdf(spec, win, grid)
        ref = 1.0 - 1.0 / (1.0 + grid) ** 2
        assert np.abs(cdf - ref).max() < 5e-3

    def test_real_window_against_swapped_order_quadrature(self):
        # oracle: integrate over lambda first at fixed t, then over t
        from ginibre_overlaps import analytic_real
        n, lo, hi, t_star = 4, -1.0, 1.0, 2.0
        spec = EnsembleSpec(n=n, beta=1, seed=0)
        win = mh.Window(kind=mh.REAL_INTERVAL, lo=lo, hi=hi)
        cdf = mh.analytic_conditional_cdf(spec, win, np.array([t_star]))

        def g(t):
            return np.array([integrate_finite(
                lambda lam: analytic_real.jpd_real(n, float(ti), lam), lo, hi)[0]
                for ti in np.atleast_1d(t)])

        num, _ = integrate_finite(g, 1e-12, t_star, QuadSpec(1e-13, 1e-9, 600))
        den, _ = integrate_finite(lambda x: analytic_real.density_real(n, x), lo, hi)
        assert cdf[0] == pytest.approx(num / den, rel=1e-6, abs=0)

    @pytest.mark.parametrize("beta, n, kind, lo, hi", [
        (1, 6, mh.REAL_INTERVAL, -0.5, 0.5),     # the benchmark's campaign-real
        (2, 30, mh.ANNULUS, 0.45, 0.55),        # the benchmark's campaign-complex
        (1, 2, mh.REAL_INTERVAL, -0.3, 1.2),     # t^{-1/2} endpoint of the density
    ], ids=["campaign-real", "campaign-complex", "real-n2"])
    def test_matches_nested_quadrature(self, beta, n, kind, lo, hi):
        spec = EnsembleSpec(n=n, beta=beta, seed=0)
        win = mh.Window(kind=kind, lo=lo * math.sqrt(n), hi=hi * math.sqrt(n))
        grid = mh.default_bin_edges(n)
        cdf = mh.analytic_conditional_cdf(spec, win, grid)
        assert np.abs(cdf - _reference_conditional_cdf(spec, win, grid)).max() <= 1e-10

    @pytest.mark.parametrize("n, lo, hi", [(30, 0.45, 0.55), (10, 0.0, 0.9), (200, 0.0, 1.4)])
    def test_complex_window_matches_node_loop(self, n, lo, hi):
        # one jpd_complex_cumulative call over every window node against one
        # call per node
        spec = EnsembleSpec(n=n, beta=2, seed=0)
        win = mh.Window(kind=mh.ANNULUS, lo=lo * math.sqrt(n), hi=hi * math.sqrt(n))
        grid = mh.default_bin_edges(n)
        nodes, weights, mass = mh._outer_nodes(win, spec)
        loop = np.zeros(grid.size)
        for x, wgt in zip(nodes, weights):
            loop += wgt * analytic_complex.jpd_complex_cumulative(n, grid, x * x)
        np.testing.assert_allclose(mh.analytic_conditional_cdf(spec, win, grid), loop / mass,
                                   rtol=1e-13, atol=0.0)

    def test_unsupported_combinations(self):
        annulus = mh.Window(kind=mh.ANNULUS, lo=0.0, hi=1.0)
        interval = mh.Window(kind=mh.REAL_INTERVAL, lo=-1.0, hi=1.0)
        with pytest.raises(DomainError):
            mh.analytic_conditional_cdf(EnsembleSpec(n=4, beta=1, seed=0), annulus, [1.0])
        with pytest.raises(DomainError):
            mh.analytic_conditional_cdf(EnsembleSpec(n=4, beta=2, seed=0), interval, [1.0])


class TestWindowQuadrature:
    """_outer_nodes is one call of quadrature._adaptive: at n = 200 these two
    windows refine past the four seed panels."""

    # (beta, kind, lo, hi in units of sqrt(n), final panels)
    WINDOWS = [(1, mh.REAL_INTERVAL, -3.0, 3.0, 18), (2, mh.ANNULUS, 0.0, 1.4, 8)]

    @staticmethod
    def _window(beta, kind, lo, hi):
        n = 200
        spec = EnsembleSpec(n=n, beta=beta, seed=0)
        win = mh.Window(kind=kind, lo=lo * math.sqrt(n), hi=hi * math.sqrt(n))
        if beta == 1:
            def rho(x):
                return analytic_real.density_real(n, x)
        else:
            def rho(r):
                return 2.0 * math.pi * r * analytic_complex.density_complex(n, r * r)
        return spec, win, rho

    @pytest.mark.parametrize("beta, kind, lo, hi, panels", WINDOWS, ids=["real", "annulus"])
    def test_refined_window(self, beta, kind, lo, hi, panels):
        spec, win, rho = self._window(beta, kind, lo, hi)
        nodes, weights, mass = mh._outer_nodes(win, spec)
        assert nodes.size == weights.size == 15 * panels
        assert np.all(np.diff(nodes) > 0)
        assert win.lo <= nodes[0] and nodes[-1] <= win.hi
        assert np.all(weights > 0.0)
        ref, _ = integrate_finite(rho, win.lo, win.hi, QuadSpec(1e-15, 1e-13, 4000))
        assert mass == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_unresolved_window_raises(self, monkeypatch):
        spec, win, rho = self._window(*self.WINDOWS[0][:4])
        monkeypatch.setattr(mh, "_WINDOW_SPEC", QuadSpec(1e-15, 1e-10, 5))
        with pytest.raises(QuadratureConvergenceError) as info:
            mh._outer_nodes(win, spec)
        # the estimate reached and its error, which covers the true miss
        ref, _ = integrate_finite(rho, win.lo, win.hi)
        assert 1e-10 * ref < abs(info.value.value - ref) <= info.value.err_est


class TestKsCompare:
    def test_synthetic_self_test_passes(self):
        # inverse-CDF samples drawn exactly from the n=2, z=0 law
        rng = np.random.default_rng(8)
        u = rng.random(100_000)
        t = 1.0 / np.sqrt(1.0 - u) - 1.0          # F(t) = 1 - (1+t)^{-2}
        t = t[t > 0]
        hist = _synthetic_hist(t, n=2)
        edges = hist.bin_edges
        cdf = 1.0 - 1.0 / (1.0 + edges) ** 2
        report = mh.ks_compare(hist, cdf)
        assert report.passed
        assert report.statistic_value <= report.threshold

    def test_wrong_model_fails(self):
        rng = np.random.default_rng(8)
        u = rng.random(100_000)
        t = 1.0 / np.sqrt(1.0 - u) - 1.0
        hist = _synthetic_hist(t[t > 0], n=2)
        edges = hist.bin_edges
        # z = 0 law of n = 4 instead: pdf 12 t^2/(1+t)^5
        cdf_wrong = 1.0 - (1.0 + 4.0 * edges + 6.0 * edges**2) / (1.0 + edges) ** 4
        report = mh.ks_compare(hist, cdf_wrong)
        assert not report.passed

    def test_report_invariant(self):
        rng = np.random.default_rng(9)
        t = 1.0 / np.sqrt(1.0 - rng.random(5000)) - 1.0
        hist = _synthetic_hist(t[t > 0], n=2)
        cdf = 1.0 - 1.0 / (1.0 + hist.bin_edges) ** 2
        report = mh.ks_compare(hist, cdf)
        assert report.passed == (report.statistic_value <= report.threshold)
        assert report.sample_size == hist.n_samples

    def test_insufficient_samples(self):
        hist = _synthetic_hist(np.array([1.0, 2.0, 3.0]), n=2)
        with pytest.raises(InsufficientSamplesError):
            mh.ks_compare(hist, np.zeros_like(hist.bin_edges))

    def test_critical_constant(self):
        assert mh.ks_critical(1e-3) == pytest.approx(1.9495, abs=2e-4)


class TestTailExponent:
    def test_synthetic_pareto(self):
        rng = np.random.default_rng(12)
        for alpha, tol in ((1.0, 0.05), (2.0, 0.08)):
            t = 0.004 * 4.0 / rng.random(400_000) ** (1.0 / alpha)
            hist = _synthetic_hist(t, n=4)
            slope, stderr = mh.tail_exponent(hist, t_min=1.0)
            assert slope == pytest.approx(-alpha, abs=tol)
            assert stderr < 0.1

    def test_insufficient_tail(self):
        hist = _synthetic_hist(np.full(1000, 0.02), n=4)
        with pytest.raises(InsufficientSamplesError):
            mh.tail_exponent(hist, t_min=1.0)

    @pytest.mark.parametrize("min_tail_count, kept", [(30, 0), (5, 1), (4, 2), (3, 3)])
    def test_too_few_edges_after_the_count_cut(self, min_tail_count, kept):
        # five populated tail bins of one sample each pass the bin check, but
        # only the edges with >= min_tail_count samples above them are fitted
        edges = mh.default_bin_edges(4)
        j = int(np.argmax(edges > 1.0))
        tail = np.sqrt(edges[j:j + 5] * edges[j + 1:j + 6])
        hist = _synthetic_hist(np.concatenate([np.full(1000, 0.02), tail]), n=4)
        if kept < 3:
            with pytest.raises(InsufficientSamplesError):
                mh.tail_exponent(hist, t_min=1.0, min_tail_count=min_tail_count)
        else:
            slope, stderr = mh.tail_exponent(hist, t_min=1.0, min_tail_count=min_tail_count)
            assert slope < 0.0 and stderr > 0.0


class TestRealCdfLimit:
    """The real conditional CDF ends at 1 to rounding: at t -> inf its
    numerator and the window mass read the same tau-form at T = 1."""

    @pytest.mark.parametrize("n, lo, hi", [(6, -0.5, 0.5), (10, 1.5, 2.5), (30, -1.0, 1.0),
                                           (200, 0.9, 1.1)])
    def test_ends_at_one(self, n, lo, hi):
        rt = math.sqrt(n)
        window = mh.Window(kind=mh.REAL_INTERVAL, lo=lo * rt, hi=hi * rt)
        cdf = mh.analytic_conditional_cdf(EnsembleSpec(n=n, beta=1), window, [1e300])
        assert abs(cdf[0] - 1.0) <= 1e-15


class TestRejectedInputs:
    """Each input check of the harness raises its typed error."""

    WIN = mh.Window(kind=mh.ANNULUS, lo=0.0, hi=1.0)

    def test_merge_needs_the_same_window(self):
        t = np.array([0.5, 1.0, 2.0])
        other = mh.Window(kind=mh.ANNULUS, lo=0.0, hi=2.0)
        with pytest.raises(DomainError, match="cannot merge"):
            _synthetic_hist(t, window=self.WIN).merge(_synthetic_hist(t, window=other))

    def test_empty_histogram_has_no_ecdf(self):
        with pytest.raises(EmptyWindowError):
            _synthetic_hist(np.array([]), window=self.WIN).ecdf_at_edges()

    @pytest.mark.parametrize("edges", [[2.0, 1.0, 3.0], [[0.5, 1.0, 2.0]]],
                             ids=["decreasing", "2-d"])
    def test_bin_edges(self, edges):
        with pytest.raises(DomainError, match="bin_edges"):
            mh.run_campaign(EnsembleSpec(n=4, beta=2, seed=0), 10, self.WIN, bin_edges=edges)

    @pytest.mark.parametrize("t_grid", [1.0, [[1.0, 2.0]], [2.0, 1.0], [1.0, 1.0]],
                             ids=["scalar", "2-d", "decreasing", "repeated"])
    def test_t_grid(self, t_grid):
        # the CDF holds one value per grid point, so only a 1-d grid has one
        with pytest.raises(DomainError, match="t_grid"):
            mh.analytic_conditional_cdf(EnsembleSpec(n=4, beta=2), self.WIN, t_grid)

    def test_conditional_law_needs_n_2(self):
        with pytest.raises(DomainError, match="size >= 2"):
            mh.analytic_conditional_cdf(EnsembleSpec(n=1, beta=2), self.WIN, [1.0])

    def test_ks_cdf_on_the_bin_edges(self):
        hist = _synthetic_hist(np.full(200, 0.5), window=self.WIN)
        with pytest.raises(DomainError, match="bin edges"):
            mh.ks_compare(hist, np.zeros(hist.bin_edges.size - 1))
