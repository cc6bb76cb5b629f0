"""Repeated benchmark runs: median, quartiles and spread of every metric.

    python3 perfbench/repeat.py --label seed [--runs 10] [--first-seed 101]
                                [--workload campaign-real ...] [--trace 0|1]

Run from the repository root.  Runs perfbench/run.py once per workload and
seed (seeds first-seed .. first-seed + runs - 1) with the run length from
BENCHMARK.json, and writes perfbench/results/BENCH_<label>.json: machine
facts, the result line of every run, and per workload and metric the median,
the first and third quartile (statistics.quantiles, n=4) and the quartile
spread as a share of the median.  With --trace 0 a spread above a third of
the metric's bound in BENCHMARK.json is flagged, as is any failed run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"label": args.label, "run_seconds": bench["run_seconds"], "trace": args.trace,
              "facts": None, "runs": [], "summary": {}}
    flagged = []
    for wl in workloads:
        per_metric: dict = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                flagged.append(f"{wl} seed {seed}: exit {proc.returncode}")
                continue
            facts = json.loads(next(x for x in lines if x.startswith("facts "))[len("facts "):])
            record["facts"] = record["facts"] or {k: v for k, v in facts.items()
                                                  if k not in ("workload", "seed", "trace")}
            result = json.loads(lines[-1])
            record["runs"].append({"workload": wl, "seed": seed, **result})
            if not result["correct"]:
                flagged.append(f"{wl} seed {seed}: {result['failed']}/{result['attempted']} failed")
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                if k in bounds or args.trace), flush=True)
        summary = {name: summarize(vals) for name, vals in per_metric.items()}
        record["summary"][wl] = summary
        for name, s in summary.items():
            if args.trace == 0 and name in bounds and name != "setup_s" \
                    and s["spread"] > bounds[name] / 3:
                flagged.append(f"{wl} {name}: spread {s['spread']:.4f} > bound/3 "
                               f"{bounds[name] / 3:.4f}")
            print(f"  {wl:18s} {name:32s} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    out = os.path.join(HERE, "results", f"BENCH_{args.label}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(out)}")
    for line in flagged:
        print("FLAG " + line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
