"""Command-line interface: analytic evaluation, sampling campaigns, and
MC-vs-analytic comparisons with reproducible, provenance-stamped outputs.

Subcommands: analytic, density, sample, compare, detratio, selftest.
Every emitted file embeds a provenance block (command, parameters, seed,
package version, config hash); outputs are byte-identical for identical
configurations.  Exit codes: 0 success, 1 validation failure, 2 a
statistical comparison failed its threshold.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__, analytic_complex, analytic_real, detratio, mc_harness
from .ensemble import EnsembleSpec
from .errors import (DomainError, EmptyWindowError, InsufficientSamplesError,
                     QuadratureConvergenceError)
from .mc_harness import ANNULUS, REAL_INTERVAL, Window


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the CLI contract reserves 2 for
    # statistical failures, so usage problems map to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 4 or parts[0] not in ("log", "lin"):
        raise DomainError(f"grid must be log:lo:hi:count or lin:lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError:
        raise DomainError(f"grid bounds and count must be numbers, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"grid bounds must be finite, got {text!r}")
    if count < 1 or not lo < hi:
        raise DomainError(f"bad grid bounds in {text!r}")
    if parts[0] == "log":
        if lo <= 0:
            raise DomainError("log grid needs positive bounds")
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _parse_window(text: str, n: int, units: str) -> Window:
    parts = text.split(":")
    if len(parts) != 3 or parts[0] not in ("real", "annulus"):
        raise DomainError(f"window must be real:a:b or annulus:r1:r2, got {text!r}")
    try:
        lo, hi = float(parts[1]), float(parts[2])
    except ValueError:
        raise DomainError(f"window bounds must be numbers, got {text!r}") from None
    if units == "scaled":
        scale = math.sqrt(n)
        lo, hi = lo * scale, hi * scale
    kind = REAL_INTERVAL if parts[0] == "real" else ANNULUS
    return Window(kind=kind, lo=lo, hi=hi)


def _canonical(obj) -> str:
    """Compact, key-sorted JSON: the form the config hash is taken over."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_sha256(body: dict) -> str:
    return hashlib.sha256(_canonical(body).encode()).hexdigest()


def _provenance(command: str, params: dict, seed: int | None) -> dict:
    body = {"command": command, "params": params, "seed": seed, "version": __version__}
    return {**body, "config_sha256": _config_sha256(body)}


def _emit(args, rows: list[dict], provenance: dict, columns: list[str]) -> None:
    if args.format == "json":
        return _write_json(args, {"provenance": provenance, "data": rows})
    lines = ["# provenance: " + _canonical(provenance), ",".join(columns)]
    # str of a float is its shortest round-trip repr
    lines += [",".join(str(row[c]) for c in columns) for row in rows]
    _write(args, "\n".join(lines) + "\n")
    if args.out and args.emit_plot:
        _write_plot_script(args.out, columns)


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(args, payload: dict) -> None:
    _write(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_plot_script(out_path: str, columns: list[str]) -> None:
    stem = out_path.rsplit(".", 1)[0]
    xcol = len(columns) - 1
    script = "\n".join([
        "set datafile separator ','",
        "set logscale xy",
        f"set xlabel '{columns[-2]}'",
        f"set ylabel '{columns[-1]}'",
        f"plot '{out_path}' every ::1 using {xcol}:{xcol + 1} with lines title '{columns[-1]}'",
        "pause -1",
    ]) + "\n"
    with open(stem + ".gp", "w") as fh:
        fh.write(script)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_analytic(args) -> int:
    t_grid = _parse_grid(args.t_grid)
    if args.ensemble == "real":
        loc = args.lam
        vals = analytic_real.jpd_real(args.n, t_grid, loc, form=args.form)
        beta = 1
    else:
        loc = args.abs_z
        vals = analytic_complex.jpd_complex(args.n, t_grid, loc * loc)
        beta = 2
    rows = [{"n": args.n, "beta": beta, "lambda_or_abs_z": float(loc),
             "t": float(t), "density": float(v)} for t, v in zip(t_grid, vals)]
    prov = _provenance("analytic", {"ensemble": args.ensemble, "n": args.n,
                                    "location": float(loc), "t_grid": args.t_grid,
                                    "form": args.form}, None)
    _emit(args, rows, prov, ["n", "beta", "lambda_or_abs_z", "t", "density"])
    return 0


def _cmd_density(args) -> int:
    grid = _parse_grid(args.grid)
    if args.ensemble == "real":
        vals = analytic_real.density_real(args.n, grid)
        beta = 1
    else:
        vals = analytic_complex.density_complex(args.n, grid ** 2)
        beta = 2
    rows = [{"n": args.n, "beta": beta, "lambda_or_abs_z": float(x), "density": float(v)}
            for x, v in zip(grid, vals)]
    prov = _provenance("density", {"ensemble": args.ensemble, "n": args.n,
                                   "grid": args.grid}, None)
    _emit(args, rows, prov, ["n", "beta", "lambda_or_abs_z", "density"])
    return 0


def _run_campaign(args):
    window = _parse_window(args.window, args.n, args.window_units)
    spec = EnsembleSpec(n=args.n, beta=args.beta, seed=args.seed)
    hist = mc_harness.run_campaign(spec, args.matrices, window, threads=args.threads)
    return spec, window, hist


def _hist_payload(hist) -> dict:
    return {
        "bin_edges": [float(e) for e in hist.bin_edges],
        "counts": [int(c) for c in hist.counts],
        "underflow": hist.underflow,
        "overflow": hist.overflow,
        "n_matrices": hist.n_matrices,
        "n_rejected": hist.n_rejected,
        "n_samples": hist.n_samples,
    }


def _cmd_sample(args) -> int:
    spec, window, hist = _run_campaign(args)
    prov = _provenance("sample", {"beta": args.beta, "n": args.n,
                                  "matrices": args.matrices, "window": args.window,
                                  "window_units": args.window_units}, args.seed)
    if args.format == "json":
        _write_json(args, {"provenance": prov, "histogram": _hist_payload(hist)})
        return 0
    rows = [{"bin_lo": float(hist.bin_edges[i]), "bin_hi": float(hist.bin_edges[i + 1]),
             "count": int(c)} for i, c in enumerate(hist.counts)]
    _emit(args, rows, prov, ["bin_lo", "bin_hi", "count"])
    return 0


def _cmd_compare(args) -> int:
    spec, window, hist = _run_campaign(args)
    analytic_n = args.n if args.analytic_n is None else args.analytic_n
    law_spec = EnsembleSpec(n=analytic_n, beta=args.beta, seed=args.seed)
    cdf = mc_harness.analytic_conditional_cdf(law_spec, window, hist.bin_edges)
    report = mc_harness.ks_compare(hist, cdf)
    prov = _provenance("compare", {"beta": args.beta, "n": args.n,
                                   "analytic_n": analytic_n,
                                   "matrices": args.matrices, "window": args.window,
                                   "window_units": args.window_units}, args.seed)
    _write_json(args, {"provenance": prov, "report": {
        "statistic_name": report.statistic_name,
        "statistic_value": report.statistic_value,
        "threshold": report.threshold,
        "sample_size": report.sample_size,
        "pass": report.passed,
        "metadata": report.metadata,
    }})
    return 0 if report.passed else 2


def _cmd_detratio(args) -> int:
    z = args.lam if args.beta == 1 else args.abs_z
    q = detratio.DetRatioQuery(n=args.n, beta=args.beta, L=args.L, z=z, p=args.p)
    closed = detratio.detratio_closed(q)
    row = {"n": args.n, "beta": args.beta, "L": args.L, "z": float(z), "p": args.p,
           "closed": float(closed)}
    if args.mc > 0:
        mean, stderr = detratio.detratio_mc(q, args.mc, seed=args.seed)
        row.update(mc_mean=float(mean), mc_stderr=float(stderr),
                   z_score=float((mean - closed) / stderr) if stderr > 0 else 0.0)
    prov = _provenance("detratio", {"beta": args.beta, "L": args.L, "n": args.n,
                                    "z": float(z), "p": args.p, "mc": args.mc}, args.seed)
    _emit(args, [row], prov, list(row.keys()))
    return 0


def _cmd_selftest(args) -> int:
    failures = []

    def check(name, ok):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    from . import specfun

    check("reg_gamma_q(3,2) = 5 e^-2",
          abs(specfun.reg_gamma_q(3, 2.0) - 5.0 * math.exp(-2.0)) < 1e-14)
    v_sum = analytic_real.jpd_real(5, 1.3, 0.8, form="sum")
    v_gam = analytic_real.jpd_real(5, 1.3, 0.8, form="gamma")
    check("real JPD form equivalence", abs(v_sum - v_gam) <= 1e-12 * v_gam)
    from .quadrature import integrate_semi_infinite

    val, _ = integrate_semi_infinite(lambda t: analytic_real.jpd_real(4, t, 0.5))
    check("real normalization at n=4",
          abs(val - analytic_real.density_real(4, 0.5)) < 1e-8 * val)
    t = 2.7
    check("complex z=0 collapse at n=8",
          abs(analytic_complex.jpd_complex(8, t, 0.0)
              - analytic_complex.jpd_complex_zero(8, t)) < 1e-12)
    q = detratio.DetRatioQuery(n=5, beta=2, L=1, z=1.0 + 0j, p=0.0)
    check("detratio D^(1)(z, 0) = 1", abs(detratio.detratio_closed(q) - 1.0) < 1e-8)
    spec = EnsembleSpec(n=4, beta=2, seed=11)
    win = Window(kind=ANNULUS, lo=0.0, hi=1.0)
    hist = mc_harness.run_campaign(spec, 2000, win)
    cdf = mc_harness.analytic_conditional_cdf(spec, win, hist.bin_edges)
    rep = mc_harness.ks_compare(hist, cdf)
    check(f"KS self-test (D={rep.statistic_value:.4f} <= {rep.threshold:.4f})", rep.passed)
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# metadata verification
# ---------------------------------------------------------------------------

def _verify_metadata(path: str) -> int:
    try:
        with open(path) as fh:
            first = fh.readline()
            if first.startswith("# provenance: "):
                prov = json.loads(first[len("# provenance: "):])
            else:
                fh.seek(0)
                prov = json.load(fh)["provenance"]
        claimed = prov.pop("config_sha256", None)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        # unreadable, not JSON, or JSON without a provenance object
        print(f"error: cannot read a provenance block from {path} "
              f"({type(exc).__name__}: {exc})", file=sys.stderr)
        return 1
    digest = _config_sha256(prov)
    if digest == claimed:
        print(f"ok: {path} config hash verified")
        return 0
    print(f"MISMATCH: {path} embeds {claimed}, recomputed {digest}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_output(sub, tabular=True):
    """--out; with tabular, also --format and --emit-plot, which _emit reads."""
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    if tabular:
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        sub.add_argument("--emit-plot", action="store_true",
                         help="write a companion gnuplot script next to --out")


def _add_sampling(sub):
    sub.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    sub.add_argument("--threads", type=int, default=1,
                     help="worker threads (speed only, never results)")
    sub.add_argument("--beta", type=int, choices=(1, 2), required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--matrices", type=int, required=True)
    sub.add_argument("--window", required=True,
                     help="real:a:b or annulus:r1:r2")
    sub.add_argument("--window-units", choices=("scaled", "matrix"), default="scaled",
                     help="'scaled' multiplies bounds by sqrt(n)")


def build_parser() -> _Parser:
    parser = _Parser(prog="ginibre-overlaps", description=__doc__)
    parser.add_argument("--verify-metadata", metavar="FILE",
                        help="recompute and check the config hash embedded in FILE")
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("analytic", help="evaluate the finite-N joint density")
    p.add_argument("--ensemble", choices=("real", "complex"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--abs-z", type=float, default=0.0)
    p.add_argument("--t-grid", required=True, help="log:lo:hi:count or lin:lo:hi:count")
    p.add_argument("--form", choices=("gamma", "sum"), default="gamma")
    _add_output(p)

    p = subs.add_parser("density", help="evaluate the mean eigenvalue density")
    p.add_argument("--ensemble", choices=("real", "complex"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", required=True)
    _add_output(p)

    p = subs.add_parser("sample", help="run a sampling campaign, emit the histogram")
    _add_sampling(p)
    _add_output(p)

    p = subs.add_parser("compare", help="campaign + KS test against the analytic law")
    _add_sampling(p)
    p.add_argument("--analytic-n", type=int, default=None,
                   help="compare against the law of a different size (power studies)")
    _add_output(p, tabular=False)

    p = subs.add_parser("detratio", help="determinant-ratio closed form and MC")
    p.add_argument("--beta", type=int, choices=(1, 2), required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--abs-z", type=float, default=0.0)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--mc", type=int, default=0, help="MC sample count (0 = closed form only)")
    p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed for --mc")
    _add_output(p)

    subs.add_parser("selftest", help="quick internal consistency checks")
    return parser


_HANDLERS = {
    "analytic": _cmd_analytic,
    "density": _cmd_density,
    "sample": _cmd_sample,
    "compare": _cmd_compare,
    "detratio": _cmd_detratio,
    "selftest": _cmd_selftest,
}


def dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verify_metadata:
        return _verify_metadata(args.verify_metadata)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _HANDLERS[args.command](args)
    except (DomainError, EmptyWindowError, InsufficientSamplesError,
            QuadratureConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
