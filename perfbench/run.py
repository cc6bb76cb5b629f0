"""Benchmark of the ginibre_overlaps package: end-to-end and per-layer metrics
for three workloads.

    python3 perfbench/run.py --workload campaign-real [--seed 7] [--seconds 30] [--trace 0|1]

Run it from the repository root; it imports the package from ./src.  It
writes only under ./.bench_build/.

Workloads (BENCHMARK.json says why each was chosen):
  campaign-real     compare --beta 1 --n 6 --matrices 8192 --window real:-0.5:0.5
                    --threads 1, in process through cli.dispatch (criterion 05)
  campaign-complex  compare --beta 2 --n 30 --matrices 512 --window annulus:0.45:0.55
                    --threads 1 (criteria 07/08); --threads 2 and run_campaign on two
                    shards are checked against it once, untimed
  detratio-oracle   detratio_mc_sweep(4, beta, L, z, [0.5, 1, 5], 8192) against
                    detratio_closed for the five (beta, L) pairs (criterion 10)

The seed given is the program's --seed; defaults 7, 13 and 41.

Every repetition passes a correctness gate or counts as failed: the KS test
passes, --verify-metadata accepts the output, the histogram and the output
file are identical in every repetition (and to the threaded runs on
campaign-complex, and to a recorded digest at the default seed), and the
oracle's z-scores stay within their family-wise bound.

With --trace 0 the last line reports wall_s, matrices_per_s, setup_s and
peak_rss_mb; with --trace 1 it reports the per-layer metrics of a traced run,
the tracing overhead and the share of wall time the spans cover.  The
fraction of failed repetitions is failed / attempted in the same line.

Times are medians over the repetitions of a run, each stated on a host of
fixed speed by a kernel sampled while the repetition runs (speed.py); the
unscaled wall times print above the result line.  peak_rss_mb is the peak
resident memory of the fresh worker process after its first repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

DEFAULT_SEEDS = {"campaign-real": 7, "campaign-complex": 13, "detratio-oracle": 41}
CHILD_TIMEOUT_S = 170
HERE = os.path.dirname(os.path.abspath(__file__))


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def git_commit(root: str) -> str | None:
    """HEAD of the checkout when it is a git work tree (read from .git only)."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    path = os.path.join(root, ".git", ref)
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def minmax(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ginibre_overlaps", "cli.py")):
        print(f"error: no ginibre_overlaps package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = child_env(src)
    workdir = os.path.join(root, ".bench_build", "perfbench", args.workload)

    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(seed),
         str(args.seconds), str(args.trace), workdir],
        env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(lines[-1])

    facts = dict(res["facts"], git_commit=git_commit(root), workload=args.workload,
                 seed=seed, seconds=args.seconds, trace=args.trace)
    print("facts " + json.dumps(facts, sort_keys=True))
    metrics = {}
    if args.trace:
        units = res["layer_units"]
        for name in sorted(units):
            if name in res["layers"]:
                metrics[name] = {"value": res["layers"][name], "unit": units[name]}
        absent = sorted(set(units) - set(metrics))
        if absent:
            print("absent (hook target no longer in the package): " + ", ".join(absent))
        print(f"traced wall_s {minmax(res['traced_wall_s'])}; untraced {minmax(res['wall_s'])}")
    else:
        metrics["wall_s"] = {"value": statistics.median(res["wall_s"]), "unit": "s"}
        metrics["matrices_per_s"] = {"value": statistics.median(res["matrices_per_s"]),
                                     "unit": "1/s"}
        metrics["setup_s"] = {"value": statistics.median(res["setup_s"]), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
        print(f"wall_s {minmax(res['wall_s'])}; matrices_per_s {minmax(res['matrices_per_s'])}; "
              f"setup_s {minmax(res['setup_s'])}; peak RSS at the end of the run "
              f"{res['maxrss_mb']:.6g} MB")
        print(f"unscaled wall_s {minmax(res['unscaled_wall_s'])}, median "
              f"{statistics.median(res['unscaled_wall_s']):.6g}; speed kernel reference "
              f"{res['kernel_ref_s']} s")
    if "worst_z" in res:
        print(f"worst |z| {res['worst_z']:.4f}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {res['failed']}/{res['attempted']} = {res['failed'] / res['attempted']:.6g}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
