"""Child process of the benchmark: runs one workload in process for a fixed
time, checks every repetition, and prints one JSON line with what it measured.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

run.py starts it with src/ on PYTHONPATH and the BLAS thread variables set
to 1.  With TRACE=0 every repetition runs with only the two meter hooks
(the sampling-loop entry points, for matrices per second), and the set-up
time is measured first.  With TRACE=1 untraced and fully traced repetitions
alternate, so the tracing overhead is measured in the same process.

Every timed step (a repetition, a fresh-interpreter import) runs with the
host-speed sampler of speed.py, and every time this worker reports is the
time on a host where its kernel takes speed.REF_S.  The first repetition
runs before anything else, untimed, and the process's peak resident memory
after it is the peak of a fresh process running the workload once.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import ginibre_overlaps
from ginibre_overlaps import cli, detratio, mc_harness
from ginibre_overlaps.ensemble import EnsembleSpec
import speed
from run import DEFAULT_SEEDS
from tracer import Hook, Tracer, package_modules

# Histogram digest (counts, underflow, overflow, matrices, rejections) of each
# campaign at its default seed, recorded from the seed implementation with
# OpenBLAS 0.3.31 on x86-64.  The sampler is a pure function of (seed, index),
# so any change to the sampled matrices or to the overlap selection shows here.
REFERENCE_DIGESTS = {
    "campaign-real": "6f5a29fd9592c4e35ffd75d34435c6898aa4dad2df46f506a25778409142aa5e",
    "campaign-complex": "872fb018ddd4dc58adb8b370d5d2a26b1bec6465163d5bfabcf01145af0ef4d7",
}

ORACLE_P = (0.5, 1.0, 5.0)
ORACLE_PAIRS = ((1, 0, 0.7), (1, 2, 0.7), (2, 0, 0.5 + 0.4j), (2, 1, 0.5 + 0.4j),
                (2, 2, 0.5 + 0.4j))
# Family-wise bound on the oracle's 15 |z| (5 pairs x 3 shifts) at the KS
# gate's alpha = 1e-3, Bonferroni-split: 3.99.  Criterion 10's 3-sigma bound
# is for one fixed seed; over arbitrary seeds, 15 tests at 3 sigma would fail
# correct code in up to 15 x 0.27% = 4% of runs.
ORACLE_Z = statistics.NormalDist().inv_cdf(
    1.0 - 1e-3 / (2 * len(ORACLE_PAIRS) * len(ORACLE_P)))


def _tally_campaign(counters, bound, hist):
    spec = bound["spec"]
    counters["n_matrices"] = counters.get("n_matrices", 0) + hist.n_matrices
    counters["n_rejected"] = counters.get("n_rejected", 0) + hist.n_rejected
    counters["n_kept"] = counters.get("n_kept", 0) + hist.n_samples
    counters["n_eigenvalues"] = counters.get("n_eigenvalues", 0) + hist.n_matrices * spec.n


def _tally_sampling(counters, bound, _mats):
    # words of the Philox stream per matrix: one 64-bit word per uniform,
    # Box-Muller pairs, 2 n^2 normals for beta = 2 (module docstring of ensemble)
    spec, count = bound["spec"], bound["count"]
    normals = spec.n * spec.n * spec.beta
    counters["matrices"] = counters.get("matrices", 0) + count
    counters["words"] = counters.get("words", 0) + count * 2 * ((normals + 1) // 2)


METER_HOOKS = [
    Hook("mc_harness.run_campaign", tally=_tally_campaign, keep=True),
    Hook("detratio.detratio_mc_sweep"),
]

LAYER_HOOKS = METER_HOOKS + [Hook(t) for t in (
    "cli.dispatch",
    "ensemble._stream",
    "ensemble._normals",
    "ensemble._overlaps_core",
    "numpy.linalg.eig",
    "numpy.linalg.inv",
    "numpy.linalg.svd",
    "mc_harness._campaign_range",
    "mc_harness.analytic_conditional_cdf",
    "mc_harness._outer_nodes",
    "mc_harness.ks_compare",
    "quadrature.integrate_finite",
    "quadrature.kronrod_panel",
    "specfun.reg_gamma_q",
    "analytic_real.jpd_real",
    "analytic_complex.jpd_complex",
    "detratio.detratio_closed",
)] + [Hook("ensemble.sample_ginibre_batch", tally=_tally_sampling)]

# per-layer metric: (name, unit, reduction, hooked function, binding module or None)
# "total" is the spans' summed duration, "self" that minus their children's,
# "longest" the longest single span; None sums every binding of the function
SPAN_METRICS = [
    ("ensemble.sample_s", "s", "total", "ensemble.sample_ginibre_batch", None),
    ("ensemble.philox_s", "s", "total", "ensemble._stream", None),
    ("ensemble.boxmuller_s", "s", "total", "ensemble._normals", None),
    ("ensemble.eig_s", "s", "total", "numpy.linalg.eig", None),
    ("ensemble.inv_s", "s", "total", "numpy.linalg.inv", None),
    ("ensemble.residual_s", "s", "self", "ensemble._overlaps_core", None),
    ("mc_harness.campaign_s", "s", "total", "mc_harness.run_campaign", None),
    ("mc_harness.select_hist_s", "s", "self", "mc_harness._campaign_range", None),
    ("mc_harness.shard_busy_max_s", "s", "longest", "mc_harness._campaign_range", None),
    ("mc_harness.shard_busy_sum_s", "s", "total", "mc_harness._campaign_range", None),
    ("mc_harness.cdf_s", "s", "total", "mc_harness.analytic_conditional_cdf", None),
    ("mc_harness.cdf_outer_s", "s", "total", "mc_harness._outer_nodes", None),
    ("mc_harness.cdf_inner_s", "s", "total", "quadrature.integrate_finite", "mc_harness"),
    ("mc_harness.cdf_inner_calls", "count", "calls", "quadrature.integrate_finite", "mc_harness"),
    ("mc_harness.ks_s", "s", "total", "mc_harness.ks_compare", None),
    ("quadrature.panels", "count", "calls", "quadrature.kronrod_panel", None),
    ("quadrature.panel_s", "s", "self", "quadrature.kronrod_panel", None),
    ("specfun.reg_gamma_q_calls", "count", "calls", "specfun.reg_gamma_q", None),
    ("specfun.reg_gamma_q_s", "s", "self", "specfun.reg_gamma_q", None),
    ("analytic_real.jpd_real_s", "s", "self", "analytic_real.jpd_real", None),
    ("analytic_complex.jpd_complex_s", "s", "self", "analytic_complex.jpd_complex", None),
    ("detratio.svd_s", "s", "total", "numpy.linalg.svd", None),
    ("detratio.accumulate_s", "s", "self", "detratio.detratio_mc_sweep", None),
    ("detratio.closed_s", "s", "total", "detratio.detratio_closed", None),
    ("cli.dispatch_s", "s", "total", "cli.dispatch", None),
    ("cli.emit_s", "s", "self", "cli.dispatch", None),
]

# per-layer metric from hook tallies: (name, unit, hooked function, numerator, denominator)
COUNT_METRICS = [
    ("ensemble.words", "count", "ensemble.sample_ginibre_batch", "words", None),
    ("ensemble.matrices", "count", "ensemble.sample_ginibre_batch", "matrices", None),
    ("ensemble.reject_frac", "ratio", "mc_harness.run_campaign", "n_rejected", "n_matrices"),
    ("mc_harness.window_yield", "ratio", "mc_harness.run_campaign", "n_kept", "n_eigenvalues"),
]

SETUP_REPEATS = 9
SETUP_CMD = [sys.executable, "-c", "import ginibre_overlaps.cli as c; c.build_parser()"]


def measure_setup(sampler: speed.Sampler) -> list[float]:
    """Fresh interpreters importing the CLI and building its parser, in reference
    seconds: each import's time over the mean of the speed probes either side."""
    subprocess.run(SETUP_CMD, check=True)   # first import writes the bytecode caches
    probes, times = [sampler.probe_s()], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(SETUP_CMD, check=True)
        elapsed = time.perf_counter() - t0
        probes.append(sampler.probe_s())
        times.append(elapsed * speed.REF_S / (0.5 * (probes[-2] + probes[-1])))
    return times


TRACE_METRICS = [("trace.overhead_s", "s"), ("trace.coverage", "ratio")]


def layer_units() -> dict:
    return {m[0]: m[1] for m in SPAN_METRICS + COUNT_METRICS + TRACE_METRICS}


def _layer_values(tracer: Tracer, rep) -> dict:
    out = {}
    for name, _unit, reduce, home, via in SPAN_METRICS:
        attr = home.rsplit(".", 1)[1]
        names = [n for n, h in zip(tracer.names, tracer.homes)
                 if h == home and (via is None or n == f"{via}.{attr}")]
        if not names:
            continue
        if reduce == "longest":
            out[name] = max(rep.longest[n] for n in names)
        else:
            table = {"total": rep.total, "self": rep.self_time, "calls": rep.calls}[reduce]
            out[name] = sum(table[n] for n in names)
    for name, _unit, home, num, den in COUNT_METRICS:
        if home in tracer.absent:
            continue
        value = rep.counters.get(num, 0)
        if den is not None:
            value = value / rep.counters[den] if rep.counters.get(den) else 0.0
        out[name] = value
    return out


def _quiet_dispatch(argv) -> int:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return cli.dispatch(argv)


def _hist_digest(hist) -> str:
    h = hashlib.sha256(np.ascontiguousarray(hist.counts, dtype="<i8").tobytes())
    h.update(json.dumps([int(hist.underflow), int(hist.overflow), int(hist.n_matrices),
                         int(hist.n_rejected)]).encode())
    return h.hexdigest()


class Campaign:
    """`ginibre-overlaps compare ...` run in process through cli.dispatch.

    Timed repetitions use --threads 1: on a two-CPU host a threaded run
    times the scheduler and the GIL as much as the program.  With
    check_threads > 1 the threaded paths are checked once, untimed, against
    the timed output: the CLI with --threads check_threads, and run_campaign
    split into check_threads shards, so that the shard-and-merge path runs.
    """

    mc_call = "mc_harness.run_campaign"

    def __init__(self, name, seed, workdir, *, beta, n, matrices, window, check_threads=1):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.beta, self.n, self.matrices, self.window = beta, n, matrices, window
        self.check_threads = check_threads
        self.expected = None      # (histogram digest, file digest) every repetition must give
        self.expected_from = ""

    def _argv(self, threads: int, out: str):
        return ["compare", "--beta", str(self.beta), "--n", str(self.n),
                "--matrices", str(self.matrices), "--window", self.window,
                "--seed", str(self.seed), "--threads", str(threads), "--out", out]

    def prepare(self, run_rep):
        if self.check_threads > 1:
            return run_rep(self._threaded_reference)
        return None

    def _threaded_reference(self, tracer):
        threads = self.check_threads
        problems = self._run_checked(tracer, threads, "reference.json")
        kind, lo, hi = self.window.split(":")
        scale = math.sqrt(self.n)    # --window-units scaled
        window = mc_harness.Window(kind=mc_harness.ANNULUS if kind == "annulus"
                                   else mc_harness.REAL_INTERVAL,
                                   lo=float(lo) * scale, hi=float(hi) * scale)
        hist = mc_harness.run_campaign(EnsembleSpec(n=self.n, beta=self.beta, seed=self.seed),
                                       self.matrices, window, threads=threads,
                                       chunk=-(-self.matrices // threads))
        if _hist_digest(hist) != self.expected[0]:
            problems.append(f"run_campaign on {threads} shards differs from the "
                            f"{self.expected_from} run")
        return problems

    def run(self, tracer):
        return self._run_checked(tracer, 1, "compare.json")

    def _run_checked(self, tracer, threads: int, filename: str):
        out = os.path.join(self.workdir, filename)
        if os.path.exists(out):   # a run that writes nothing must not pass on an old file
            os.remove(out)
        rc = _quiet_dispatch(self._argv(threads, out))
        problems = [] if rc == 0 else [f"compare exited {rc}"]
        with open(out, "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)["report"]
        if report["pass"] is not True:
            problems.append(f"KS failed: D = {report['statistic_value']:.6g} > "
                            f"{report['threshold']:.6g} at n = {report['sample_size']}")
        if _quiet_dispatch(["--verify-metadata", out]) != 0:
            problems.append("--verify-metadata failed")
        hists = tracer.results(self.mc_call)
        if len(hists) != 1:
            return problems + [f"expected one run_campaign call, saw {len(hists)}"]
        digest = (_hist_digest(hists[0]), hashlib.sha256(raw).hexdigest())
        if self.seed == DEFAULT_SEEDS[self.name] and digest[0] != REFERENCE_DIGESTS[self.name]:
            problems.append(f"histogram digest {digest[0]} differs from the recorded reference")
        if self.expected is None:
            self.expected, self.expected_from = digest, f"--threads {threads}"
        elif digest != self.expected:
            problems.append(f"--threads {threads} output differs from the {self.expected_from} run")
        return problems


class Oracle:
    """Criterion 10's Monte Carlo oracle: detratio_mc_sweep against detratio_closed."""

    mc_call = "detratio.detratio_mc_sweep"

    def __init__(self, name, seed, workdir, *, n, samples):
        self.name, self.seed, self.n, self.samples = name, seed, n, samples
        self.matrices = samples * len(ORACLE_PAIRS)
        self.expected = None
        self.worst_z = 0.0

    def prepare(self, run_rep):
        return None

    def run(self, tracer):
        problems, values = [], []
        worst = 0.0
        for beta, ell, z in ORACLE_PAIRS:
            sweep = detratio.detratio_mc_sweep(self.n, beta, ell, z, ORACLE_P, self.samples,
                                               seed=self.seed)
            for p, (mean, stderr) in zip(ORACLE_P, sweep):
                closed = detratio.detratio_closed(
                    detratio.DetRatioQuery(n=self.n, beta=beta, L=ell, z=z, p=p))
                values += [mean, stderr, closed]
                if not (math.isfinite(mean) and math.isfinite(closed) and stderr > 0.0):
                    problems.append(f"({beta},{ell}) p={p}: mean {mean}, stderr {stderr}, "
                                    f"closed {closed}")
                    continue
                zscore = abs(mean - closed) / stderr
                worst = max(worst, zscore)
                if zscore > ORACLE_Z:
                    problems.append(f"({beta},{ell}) p={p}: |z| = {zscore:.3f} > {ORACLE_Z:.3f}")
        self.worst_z = worst
        digest = hashlib.sha256(json.dumps([repr(v) for v in values]).encode()).hexdigest()
        if self.expected is None:
            self.expected = digest
        elif digest != self.expected:
            problems.append("Monte Carlo means differ from the first repetition")
        return problems


def make_workload(name: str, seed: int, workdir: str):
    if name == "campaign-real":
        return Campaign(name, seed, workdir, beta=1, n=6, matrices=8192,
                        window="real:-0.5:0.5")
    if name == "campaign-complex":
        return Campaign(name, seed, workdir, beta=2, n=30, matrices=512,
                        window="annulus:0.45:0.55", check_threads=2)
    if name == "detratio-oracle":
        return Oracle(name, seed, workdir, n=4, samples=8192)
    raise SystemExit(f"unknown workload {name!r}")


def _clear_caches() -> None:
    # every CLI invocation starts with empty lru_caches; so does every repetition
    for mod in package_modules():
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@dataclass
class Rep:
    traced: bool
    start: float
    end: float
    mc_spans: list      # (start, end) of every call to the workload's sampling loop
    problems: list
    layers: dict
    coverage: float
    wall_s: float = math.nan        # on the reference host (speed.py)
    mc_s: float = math.nan
    layer_scale: float = math.nan   # speed.REF_S over the mean kernel time


def run_rep(body, hooks, traced: bool, mc_call: str) -> Rep:
    _clear_caches()
    tracer = Tracer(hooks).install()
    try:
        tracer.begin()
        t0 = time.perf_counter()
        try:
            problems = body(tracer)
        except Exception:   # a failing repetition is counted, the run goes on
            problems = ["raised:\n" + traceback.format_exc()]
        t1 = time.perf_counter()
        rep = tracer.end()
    finally:
        tracer.uninstall()
    mc_codes = [i for i, h in enumerate(tracer.homes) if h == mc_call]
    layers = _layer_values(tracer, rep) if traced else {}
    return Rep(traced, t0, t1, rep.intervals(mc_codes), problems, layers,
               rep.covered_s / (t1 - t0))


def timed_rep(sampler: speed.Sampler, wl, traced: bool) -> Rep:
    """One repetition under the speed sampler, its times on the reference host."""
    rep, samples = sampler.measure(
        lambda: run_rep(wl.run, LAYER_HOOKS if traced else METER_HOOKS, traced, wl.mc_call))
    rep.wall_s = samples.reference_s([(rep.start, rep.end)])
    rep.mc_s = samples.reference_s(rep.mc_spans)
    rep.layer_scale = speed.REF_S / float(samples.kernel_s().mean())
    return rep


def machine_facts() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "package_version": ginibre_overlaps.__version__,
    }


def main(argv) -> int:
    name, seed, seconds, trace, workdir = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    os.makedirs(workdir, exist_ok=True)
    wl = make_workload(name, seed, workdir)
    reps = [run_rep(wl.run, METER_HOOKS, False, wl.mc_call)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref = wl.prepare(lambda body: run_rep(body, METER_HOOKS, False, wl.mc_call))
    if ref is not None:
        reps.append(ref)
    sampler = speed.Sampler()
    setup = [] if trace else measure_setup(sampler)
    deadline = time.perf_counter() + seconds
    plan = (False, True) if trace else (False,)
    measured = []
    while True:
        start = time.perf_counter()
        for traced in plan:
            measured.append(timed_rep(sampler, wl, traced))
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    reps += measured
    for i, rep in enumerate(reps):
        for problem in rep.problems:
            print(f"repetition {i}: {problem}", file=sys.stderr)
    plain = [r for r in measured if not r.traced]
    traced = [r for r in measured if r.traced]
    units = layer_units()
    result = {
        "attempted": len(reps),
        "failed": sum(1 for r in reps if r.problems),
        "wall_s": [r.wall_s for r in plain],
        "unscaled_wall_s": [r.end - r.start for r in plain],
        "matrices_per_s": [wl.matrices / r.mc_s if r.mc_s > 0 else 0.0 for r in plain],
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kernel_ref_s": speed.REF_S,
        "facts": machine_facts(),
    }
    if isinstance(wl, Oracle):
        result["worst_z"] = wl.worst_z
    if traced:
        layers = {}
        for key in {k for r in traced for k in r.layers}:
            layers[key] = statistics.median(
                r.layers[key] * (r.layer_scale if units[key] == "s" else 1.0)
                for r in traced if key in r.layers)
        layers["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                      - statistics.median(result["wall_s"]))
        layers["trace.coverage"] = statistics.median(r.coverage for r in traced)
        result["layers"] = layers
        result["layer_units"] = units
        result["traced_wall_s"] = [r.wall_s for r in traced]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
