"""ensemble.BATCH_BYTES: one byte budget bounds every large temporary of a
campaign, of the determinant-ratio oracle and of the truncated-gamma kernel,
and changes no result."""

import math
import tracemalloc

import numpy as np
import pytest

from ginibre_overlaps import detratio, ensemble, specfun
from ginibre_overlaps import mc_harness as mh
from ginibre_overlaps.ensemble import EnsembleSpec


def _traced_peak(f) -> int:
    """Peak bytes that numpy and Python allocate while f runs."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _complex_campaign():
    """The benchmark's campaign-complex configuration."""
    spec = EnsembleSpec(n=30, beta=2, seed=13)
    scale = math.sqrt(spec.n)
    return spec, mh.Window(kind=mh.ANNULUS, lo=0.45 * scale, hi=0.55 * scale)


class TestThreadShards:
    def test_small_campaign_runs_on_every_thread(self, monkeypatch):
        spec = EnsembleSpec(n=5, beta=2, seed=8)
        win = mh.Window(kind=mh.ANNULUS, lo=0.5, hi=2.0)
        serial = mh.run_campaign(spec, 512, win)
        ranges = []
        campaign_range = mh._campaign_range

        def recording(spec, start, stop, *args):
            ranges.append((start, stop))
            return campaign_range(spec, start, stop, *args)

        monkeypatch.setattr(mh, "_campaign_range", recording)
        threaded = mh.run_campaign(spec, 512, win, threads=2)
        assert sorted(ranges) == [(0, 256), (256, 512)]
        assert np.array_equal(threaded.counts, serial.counts)
        assert (threaded.underflow, threaded.overflow, threaded.n_rejected) == (
            serial.underflow, serial.overflow, serial.n_rejected)

    def test_chunk_still_bounds_the_shards(self, monkeypatch):
        spec = EnsembleSpec(n=4, beta=1, seed=8)
        win = mh.Window(kind=mh.REAL_INTERVAL, lo=-1.0, hi=1.0)
        ranges = []
        campaign_range = mh._campaign_range

        def recording(spec, start, stop, *args):
            ranges.append(stop - start)
            return campaign_range(spec, start, stop, *args)

        monkeypatch.setattr(mh, "_campaign_range", recording)
        mh.run_campaign(spec, 100, win, threads=2, chunk=30)
        assert sorted(ranges) == [10, 30, 30, 30]


class TestBitIdentity:
    """A 1-byte budget gives one matrix per step, one pair per pass and one
    element per kernel group; every count and byte stays the same."""

    @pytest.mark.parametrize("beta,kind,lo,hi", [(1, mh.REAL_INTERVAL, -1.0, 1.0),
                                                 (2, mh.ANNULUS, 0.2, 1.5)])
    def test_campaign_at_one_byte(self, beta, kind, lo, hi, monkeypatch):
        spec = EnsembleSpec(n=4, beta=beta, seed=31)
        win = mh.Window(kind=kind, lo=lo, hi=hi)
        edges = np.geomspace(0.2, 10.0, 31)   # narrow, so both tails are populated
        sample = mh.sample_ginibre_batch

        def with_degenerate(spec, start, count):
            # 0.5 I: its windowed eigenvalue 0.5 fails, so n_rejected >= 1
            mats = sample(spec, start, count)
            if start <= 40 < start + count:
                mats[40 - start] = 0.5 * np.eye(spec.n)
            return mats

        monkeypatch.setattr(mh, "sample_ginibre_batch", with_degenerate)

        def run():
            hist = mh.run_campaign(spec, 300, win, bin_edges=edges)
            raw = mh.collect_overlaps(spec, 300, win)
            return (hist.counts.tolist(), hist.underflow, hist.overflow,
                    hist.n_rejected, raw.tobytes())

        default = run()
        assert default[3] >= 1 and default[1] > 0 and default[2] > 0

        steps, systems = [], []
        solve = np.linalg.solve

        def counting_sample(spec, start, count):
            steps.append(count)
            return with_degenerate(spec, start, count)

        def counting_solve(a, b):
            systems.append(len(a) if a.ndim == 3 else 1)   # 2-D: the singular fallback
            return solve(a, b)

        monkeypatch.setattr(mh, "sample_ginibre_batch", counting_sample)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        monkeypatch.setattr(ensemble, "BATCH_BYTES", 1)
        assert run() == default
        assert set(steps) == {1} and set(systems) == {1}

    @pytest.mark.parametrize("budget", [1, 8 * 3 * 32 * 5])
    def test_kernel_groups_equal_single_elements(self, budget, monkeypatch):
        # rows of x and weights against a T grid; long series (x up to 2000)
        # beside short ones; with the budget of 5 elements at three weights a
        # row of 7 spans two groups, and at 1 byte every element is its own
        x = np.array([[0.0], [0.3], [2000.0], [45.0], [700.0]])
        T = np.array([1e-6, 0.1, 0.5, 0.9, 0.999, 1.0, 0.25])
        rng = np.random.default_rng(5)
        c = rng.random((5, 1, 3))
        monkeypatch.setattr(ensemble, "BATCH_BYTES", budget)
        grid = specfun.log_lower_integral(1.5, x, T, c)
        monkeypatch.undo()
        assert grid.shape == (5, 7)
        for a in range(5):
            for b in range(7):
                assert grid[a, b] == specfun.log_lower_integral(1.5, x[a, 0], T[b], c[a, 0])

    def test_kernel_spans_default_groups(self):
        # 1,200 elements at four weights: more than one group at the default budget
        assert 1200 * 4 * specfun._BLOCK * 8 > ensemble.BATCH_BYTES
        x = np.linspace(0.0, 5.0, 1200)
        x[::12] = np.linspace(200.0, 2000.0, 100)   # long series in every group
        c = np.array([0.0, 1.0, 0.5, 2.0])
        got = specfun.log_lower_integral(29.0, x, 0.8, c)
        want = [specfun.log_lower_integral(29.0, v, 0.8, c) for v in x.tolist()]
        assert np.array_equal(got, want)


@pytest.fixture
def fresh_streams():
    """An empty oracle cache before and after, so every sweep draws its matrices."""
    detratio._stream_moments.cache_clear()
    yield
    detratio._stream_moments.cache_clear()


class TestOracleSteps:
    """The oracle samples a chunk in steps that fit in the budget; the moments
    stay those of the whole chunk, bit for bit."""

    # (n, beta, L, z, p values, samples, chunk): the oracle's beta = 2 stream
    # over two chunks; some matrices taking the SVD; every matrix taking it
    CASES = [(4, 2, 2, 0.5 + 0.4j, [0.5, 1.0, 5.0], 3000, 1700),
             (3, 1, 2, 0.5, [1e-4, 1.0], 2000, 65536),
             (4, 2, 0, 1e12, [1e-8], 1000, 65536)]

    @pytest.mark.parametrize("budget", [1, 4096])
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_small_budget_gives_the_same_moments(self, case, budget, monkeypatch,
                                                 fresh_streams):
        n, beta, L, z, ps, count, chunk = self.CASES[case]

        def sweep():
            detratio._stream_moments.cache_clear()
            return detratio.detratio_mc_sweep(n, beta, L, z, ps, count, seed=5, chunk=chunk)

        default = sweep()
        steps = []
        sample = detratio.sample_ginibre_batch

        def counting(spec, start, cnt):
            steps.append(cnt)
            return sample(spec, start, cnt)

        monkeypatch.setattr(detratio, "sample_ginibre_batch", counting)
        monkeypatch.setattr(ensemble, "BATCH_BYTES", budget)
        assert sweep() == default
        assert sum(steps) == count
        assert max(steps) == max(1, budget // ((2 + len(ps)) * 8 * beta * n * n))

    @pytest.mark.parametrize("chunk", [65536, 250])
    def test_peak_at_n60_whatever_the_chunk(self, chunk, fresh_streams):
        # a 60 x 60 complex matrix is 56 KiB: before the budget the pass held
        # about four arrays of 1,000 of them (166 MB)
        peak = _traced_peak(lambda: detratio.detratio_mc_sweep(60, 2, 1, 0.5, [1.0], 1000,
                                                               chunk=chunk))
        assert peak <= 3 * ensemble.BATCH_BYTES

    def test_moment_pass_reuses_one_buffer(self, fresh_streams):
        # one chunk of 65,536 matrices: the chunk's 1 + 3 log arrays, the L = 1
        # numerator and one buffer that takes each pass's logs, values and
        # squared deviations in turn; three temporaries per pass before (5.3 MiB)
        chunk_array = 8 * 65536
        peak = _traced_peak(lambda: detratio.detratio_mc_sweep(
            4, 2, 1, 0.5 + 0.4j, [0.5, 1.0, 5.0], 65536))
        assert peak <= 9 * chunk_array


class TestMemoryBound:
    """tracemalloc peaks (numpy's buffers, not process RSS), in units of the
    budget; before the budget these were 15 (CDF) and 24 (campaign)."""

    def test_complex_window_cdf(self):
        spec, win = _complex_campaign()
        edges = mh.default_bin_edges(spec.n)
        peak = _traced_peak(lambda: mh.analytic_conditional_cdf(spec, win, edges))
        assert peak <= 4 * ensemble.BATCH_BYTES

    def test_complex_campaign(self):
        spec, win = _complex_campaign()
        peak = _traced_peak(lambda: mh.run_campaign(spec, 512, win))
        assert peak <= 6 * ensemble.BATCH_BYTES

    def test_large_matrices_do_not_add_up(self):
        # one 200 x 200 complex matrix (640 KB) per step: doubling the matrix
        # count leaves the peak where it was
        spec = EnsembleSpec(n=200, beta=2, seed=1)
        scale = math.sqrt(spec.n)
        win = mh.Window(kind=mh.ANNULUS, lo=0.5 * scale, hi=0.52 * scale)
        peaks = [_traced_peak(lambda k=k: mh.collect_overlaps(spec, k, win)) for k in (2, 4)]
        assert peaks[1] <= peaks[0] + ensemble.BATCH_BYTES // 16
        assert peaks[1] <= 6 * ensemble.BATCH_BYTES
