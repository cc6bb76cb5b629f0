"""Sampling campaigns, eigenvalue-windowed overlap histograms, and
statistical comparison against the closed-form densities.

A campaign samples matrices index 0..n-1 from the deterministic stream,
keeps eigenvalues inside a window (an interval on the real axis for real
eigenvalues, or an annulus for complex ones), and log-bins the overlap
variable t.  Only the windowed eigenvalues get an overlap: the eigenvalues
come without eigenvectors, and each windowed one takes one bordered solve
(ensemble._overlaps_bordered).  Histograms from disjoint index ranges merge
exactly, so a run sharded over threads reproduces the single-threaded
counts bit for bit.

The analytic side of a comparison is the conditional law of t given that
the eigenvalue falls in the window:

    F(t) = int_W dmu(z) int_0^t P(u, z) du  /  int_W dmu(z) rho(z)

The inner integral over t is in closed form (jpd_real_cumulative,
jpd_complex_cumulative: truncated gamma integrals after tau = t/(1+t)); the
outer one is a Gauss-Kronrod composite over the window (the annulus case
reduces to one radial integral by rotation invariance).
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field

import numpy as np

from . import analytic_complex, analytic_real, ensemble
from .ensemble import (
    EnsembleSpec,
    _overlaps_bordered,
    default_real_tolerance,
    near_real,
    sample_ginibre_batch,
)
from .errors import DomainError, EmptyWindowError, InsufficientSamplesError, integer
# integrate_finite is unused here: the benchmark's mc_harness.cdf_inner_s and
# mc_harness.cdf_inner_calls are the spans of this module's binding of it, and
# read 0 now that the t-integral is in closed form.  The binding goes after the
# benchmark re-base retires both metrics; without it they vanish today.
from .quadrature import QuadSpec, _adaptive, integrate_finite, panel_nodes  # noqa: F401

REAL_INTERVAL = "real-interval"
ANNULUS = "annulus"

#: one-sided Kolmogorov critical constant at alpha = 0.001:
#: c(alpha) = sqrt(-ln(alpha/2)/2) = 1.9495 for the D <= c/sqrt(n) test
KS_ALPHA = 1e-3

#: tolerances and panel budget of the window-mass integral (_outer_nodes)
_WINDOW_SPEC = QuadSpec(abs_tol=1e-15, rel_tol=1e-10, max_subdivisions=64)


def ks_critical(alpha: float = KS_ALPHA) -> float:
    return math.sqrt(-0.5 * math.log(alpha / 2.0))


@dataclass(frozen=True)
class Window:
    """Eigenvalue conditioning region: [lo, hi] on the real line, or
    lo <= |z| <= hi in the complex plane."""

    kind: str
    lo: float
    hi: float

    def __post_init__(self):
        if self.kind not in (REAL_INTERVAL, ANNULUS):
            raise DomainError(f"unknown window kind {self.kind!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"window {self.kind}:{self.lo}:{self.hi} needs finite bounds")
        if not self.lo < self.hi:
            raise DomainError("window requires lo < hi")
        if self.kind == ANNULUS and self.lo < 0.0:
            raise DomainError("annulus radii must be >= 0")


def default_bin_edges(n: int, bins: int = 120) -> np.ndarray:
    """Log-spaced t bins spanning [1e-3 n, 1e5 n]: the heavy tail needs
    decades of range while the n-scaling keeps the bulk resolved."""
    return np.geomspace(1e-3 * n, 1e5 * n, bins + 1)


@dataclass
class ConditionedHistogram:
    """Mergeable log-binned histogram of t, conditioned on the window.

    Samples below/above the edge range are tracked separately so that
    underflow + sum(counts) + overflow == n_samples exactly.  n_rejected
    counts the matrices left out: those with a non-finite eigenvalue or
    with a windowed eigenvalue whose overlap fails a check (non-finite,
    O > OVERLAP_REJECT_THRESHOLD, or an eigen-residual above
    RESIDUAL_TOLERANCE ||G|| ||r||); eigenvalues outside the window are not
    checked.  t >= 0 by construction, so there is no check on its sign.
    """

    window: Window
    bin_edges: np.ndarray
    counts: np.ndarray
    underflow: int = 0
    overflow: int = 0
    n_matrices: int = 0
    n_rejected: int = 0
    spec: EnsembleSpec | None = None

    @property
    def n_samples(self) -> int:
        return int(self.underflow + self.counts.sum() + self.overflow)

    def merge(self, other: "ConditionedHistogram") -> "ConditionedHistogram":
        if self.window != other.window or not np.array_equal(self.bin_edges, other.bin_edges):
            raise DomainError("histograms with different windows/edges cannot merge")
        return ConditionedHistogram(
            window=self.window,
            bin_edges=self.bin_edges,
            counts=self.counts + other.counts,
            underflow=self.underflow + other.underflow,
            overflow=self.overflow + other.overflow,
            n_matrices=self.n_matrices + other.n_matrices,
            n_rejected=self.n_rejected + other.n_rejected,
            spec=self.spec or other.spec,
        )

    def ecdf_at_edges(self) -> np.ndarray:
        """Empirical CDF evaluated at every bin edge."""
        n = self.n_samples
        if n == 0:
            raise EmptyWindowError("histogram holds no samples")
        cum = self.underflow + np.concatenate([[0], np.cumsum(self.counts)])
        return cum / n

    def survival_at_edges(self) -> np.ndarray:
        return 1.0 - self.ecdf_at_edges()


@dataclass
class ComparisonReport:
    """Outcome of one statistical MC-vs-analytic check."""

    statistic_name: str
    statistic_value: float
    threshold: float
    sample_size: int
    passed: bool
    metadata: dict = field(default_factory=dict)


def _window_mask(spec: EnsembleSpec, window: Window, w: np.ndarray) -> np.ndarray:
    """Which eigenvalues w (one row per matrix) the window keeps."""
    real = near_real(w, default_real_tolerance(spec.n))
    if window.kind == REAL_INTERVAL:
        return real & (w.real >= window.lo) & (w.real <= window.hi)
    r = np.abs(w)
    mask = (r >= window.lo) & (r <= window.hi)
    if spec.beta == 1:
        mask &= ~real
    return mask


def _windowed_chunks(spec: EnsembleSpec, start: int, stop: int, window: Window, chunk: int):
    """Yield (windowed t values, number of rejected matrices) per step over
    the matrices with indices start..stop-1.  A step takes at most chunk
    matrices, and no more than fit in ensemble.BATCH_BYTES (at least one).
    A matrix is rejected when one of its eigenvalues is not finite or one of
    its windowed eigenvalues fails a check of _overlaps_bordered."""
    matrix_bytes = 8 * spec.beta * spec.n * spec.n   # float64, or complex128 for beta = 2
    step = max(1, min(chunk, ensemble.BATCH_BYTES // matrix_bytes))
    for lo in range(start, stop, step):
        mats = sample_ginibre_batch(spec, lo, min(lo + step, stop) - lo)
        w = np.linalg.eigvals(mats)
        rows, cols = np.nonzero(_window_mask(spec, window, w))
        t, ok = _overlaps_bordered(mats, rows, w[rows, cols])
        rejected = ~np.isfinite(w).all(axis=1)
        rejected[rows[~ok]] = True
        yield t[~rejected[rows]], int(rejected.sum())


def _campaign_range(spec: EnsembleSpec, start: int, stop: int, window: Window,
                    edges: np.ndarray, chunk: int) -> ConditionedHistogram:
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    under = over = rejected = 0
    for ts, n_rejected in _windowed_chunks(spec, start, stop, window, chunk):
        rejected += n_rejected
        if ts.size:
            counts += np.histogram(ts, bins=edges)[0]
            under += int((ts < edges[0]).sum())
            over += int((ts > edges[-1]).sum())
    return ConditionedHistogram(window=window, bin_edges=edges, counts=counts,
                                underflow=under, overflow=over,
                                n_matrices=stop - start, n_rejected=rejected, spec=spec)


def collect_overlaps(spec: EnsembleSpec, n_matrices: int, window: Window, *,
                     start_index: int = 0, chunk: int = 4096) -> np.ndarray:
    """Raw windowed overlap values (for moment estimates rather than
    histograms).  Same selection rules, determinism and chunk as run_campaign."""
    n_matrices = integer("n_matrices", n_matrices, 1)
    start_index = integer("start_index", start_index, 0)
    chunk = integer("chunk", chunk, 1)
    pieces = [ts for ts, _ in _windowed_chunks(spec, start_index, start_index + n_matrices,
                                               window, chunk) if ts.size]
    if not pieces:
        raise EmptyWindowError(f"no eigenvalues inside {window}")
    return np.concatenate(pieces)


def run_campaign(spec: EnsembleSpec, n_matrices: int, window: Window, *,
                 bin_edges: np.ndarray | None = None, threads: int = 1,
                 start_index: int = 0, chunk: int = 4096) -> ConditionedHistogram:
    """Sample n_matrices matrices and histogram the windowed overlaps.

    Deterministic in (spec, start_index, n_matrices, window, bin_edges);
    threads and chunk only affect speed.  With threads > 1 the range is
    split into shards of min(chunk, ceil(n_matrices / threads)) matrices,
    so every thread gets work.  chunk also caps the matrices a step
    holds at once; ensemble.BATCH_BYTES caps them further, so peak memory
    does not grow with chunk, n or the window.  Raises EmptyWindowError
    when no eigenvalue lands in the window.
    """
    n_matrices = integer("n_matrices", n_matrices, 1)
    threads = integer("threads", threads, 1)
    start_index = integer("start_index", start_index, 0)
    chunk = integer("chunk", chunk, 1)
    edges = default_bin_edges(spec.n) if bin_edges is None else np.asarray(bin_edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0) or edges[0] <= 0:
        raise DomainError("bin edges must be a strictly increasing positive sequence")
    stop = start_index + n_matrices
    if threads == 1:
        hist = _campaign_range(spec, start_index, stop, window, edges, chunk)
    else:
        shard = min(chunk, -(-n_matrices // threads))
        bounds = list(range(start_index, stop, shard)) + [stop]
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(
                lambda ab: _campaign_range(spec, ab[0], ab[1], window, edges, chunk),
                zip(bounds[:-1], bounds[1:])))
        hist = parts[0]
        for part in parts[1:]:
            hist = hist.merge(part)
    if hist.n_samples == 0:
        raise EmptyWindowError(
            f"no eigenvalues inside {window} after {n_matrices} matrices")
    return hist


# ---------------------------------------------------------------------------
# analytic conditional law
# ---------------------------------------------------------------------------

def _outer_nodes(window: Window, spec: EnsembleSpec):
    """Quadrature nodes (ascending), weights and mass of the window for the
    eigenvalue integral.

    quadrature._adaptive refines the density from four equal seed panels
    until the window mass meets _WINDOW_SPEC (1e-10 relative, 1e-15 absolute)
    within 64 panels, or raises QuadratureConvergenceError with the value and
    error reached; the final panels serve every CDF component.  Annulus
    weights absorb the 2 pi r radial measure.
    """
    if window.kind == REAL_INTERVAL:
        def rho(x):
            return analytic_real.density_real(spec.n, x)
    else:
        def rho(r):
            return 2.0 * math.pi * r * analytic_complex.density_complex(spec.n, r * r)

    mass, _, panels = _adaptive(rho, np.linspace(window.lo, window.hi, 5).tolist(),
                                _WINDOW_SPEC)
    nodes, weights = panel_nodes(panels[:, 0], panels[:, 1])
    if window.kind == ANNULUS:
        weights = weights * (2.0 * math.pi * nodes)
    return nodes.ravel(), weights.ravel(), mass


def analytic_conditional_cdf(spec: EnsembleSpec, window: Window, t_grid) -> np.ndarray:
    """Conditional CDF of t for eigenvalues inside the window, on t_grid.

    Nondecreasing with limit 1; the normalizing denominator is the window
    mass of the mean eigenvalue density.
    """
    if spec.n < 2:
        raise DomainError("conditional law needs matrix size >= 2")
    if spec.beta == 1 and window.kind != REAL_INTERVAL:
        raise DomainError("no closed-form law for complex eigenvalues of the real ensemble")
    if spec.beta == 2 and window.kind != ANNULUS:
        raise DomainError("complex-ensemble windows must be annuli")
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0.0) or np.any(np.diff(t_grid) <= 0):
        raise DomainError("t_grid must be positive and increasing")

    nodes, weights, mass = _outer_nodes(window, spec)
    if spec.beta == 1:
        return weights @ analytic_real.jpd_real_cumulative(spec.n, t_grid, nodes[:, None]) / mass
    return weights @ analytic_complex.jpd_complex_cumulative(
        spec.n, t_grid, (nodes * nodes)[:, None]) / mass


def ks_compare(hist: ConditionedHistogram, cdf, *, alpha: float = KS_ALPHA) -> ComparisonReport:
    """Sup-distance between the empirical CDF at the bin edges and the
    analytic conditional CDF, with threshold c(alpha)/sqrt(n)."""
    cdf = np.asarray(cdf, dtype=float)
    if cdf.shape != hist.bin_edges.shape:
        raise DomainError("cdf must be evaluated on the histogram bin edges")
    n = hist.n_samples
    if n < 100:
        raise InsufficientSamplesError(f"KS comparison needs >= 100 samples, got {n}")
    dist = float(np.max(np.abs(hist.ecdf_at_edges() - cdf)))
    threshold = ks_critical(alpha) / math.sqrt(n)
    meta = {"alpha": alpha, "window": (hist.window.kind, hist.window.lo, hist.window.hi),
            "n_matrices": hist.n_matrices, "n_rejected": hist.n_rejected}
    if hist.spec is not None:
        meta.update(seed=hist.spec.seed, n=hist.spec.n, beta=hist.spec.beta)
    return ComparisonReport(statistic_name="ks", statistic_value=dist,
                            threshold=threshold, sample_size=n,
                            passed=dist <= threshold, metadata=meta)


def tail_exponent(hist: ConditionedHistogram, t_min: float, *, min_tail_count: int = 30):
    """Least-squares slope of log survival vs log t above t_min, with its
    standard error.  Needs >= 5 populated bins above t_min and >= 3 edges kept.

    Edges with fewer than min_tail_count samples remaining above them are
    excluded: the log of a survival estimate based on a handful of samples
    is noisy and systematically biased low.
    """
    edges = hist.bin_edges
    surv = hist.survival_at_edges()
    populated = (edges[:-1] > t_min) & (hist.counts > 0)
    use = (edges > t_min) & (surv * hist.n_samples >= min_tail_count)
    if int(populated.sum()) < 5 or int(use.sum()) < 3:
        raise InsufficientSamplesError("a tail fit needs >= 5 populated bins above t_min "
                                       "and >= 3 edges with min_tail_count samples above")
    x = np.log(edges[use])
    y = np.log(surv[use])
    m = x.size
    xbar = x.mean()
    sxx = float(((x - xbar) ** 2).sum())
    slope = float(((x - xbar) * (y - y.mean())).sum() / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    s2 = float((resid ** 2).sum() / (m - 2))
    return slope, math.sqrt(s2 / sxx)
