"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).  Tolerances are fixed here and
nowhere else; every expected value traces to a closed form or an
independent oracle."""

import math
import time

import numpy as np
import pytest

from ginibre_overlaps import (
    analytic_complex as ac,
)
from ginibre_overlaps import (
    analytic_real as ar,
)
from ginibre_overlaps import (
    detratio,
    mc_harness as mh,
    specfun,
)
from ginibre_overlaps.ensemble import (
    EnsembleSpec,
    overlap_schur_real,
    sample_ginibre,
    sample_ginibre_batch,
)
from ginibre_overlaps.mc_harness import ANNULUS, REAL_INTERVAL, Window
from ginibre_overlaps.quadrature import QuadSpec, integrate_semi_infinite
from reference import jpd_real_gamma, overlap_matrix_full, overlaps_biorthogonal

TIGHT = QuadSpec(abs_tol=1e-15, rel_tol=1e-11, max_subdivisions=4000)


def _report(num, name, ok, detail):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _lambda_grid(n):
    return [0.0, 0.5, 1.0, 0.5 * math.sqrt(n), 0.9 * math.sqrt(n)]


# ---------------------------------------------------------------------------
# shared campaigns
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def real_bulk_hist():
    spec = EnsembleSpec(n=6, beta=1, seed=7)
    half = 0.5 * math.sqrt(6.0)
    win = Window(kind=REAL_INTERVAL, lo=-half, hi=half)
    return spec, win, mh.run_campaign(spec, 200_000, win, chunk=8192, threads=2)


@pytest.fixture(scope="module")
def complex_bulk_hist():
    spec = EnsembleSpec(n=10, beta=2, seed=11)
    win = Window(kind=ANNULUS, lo=0.0, hi=0.5 * math.sqrt(10.0))
    return spec, win, mh.run_campaign(spec, 10_000, win, chunk=8192, threads=2)


@pytest.fixture(scope="module")
def complex_tail_hist(complex_bulk_hist):
    spec, win, head = complex_bulk_hist
    more = mh.run_campaign(spec, 190_000, win, start_index=10_000, chunk=8192,
                           threads=2)
    return spec, win, head.merge(more)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_real_normalization():
    t0 = time.monotonic()
    worst = 0.0
    for n in (2, 3, 5, 8, 13, 20):
        hint = 0.5 * (n - 3) if n < 3 else None
        for lam in _lambda_grid(n):
            val, _ = integrate_semi_infinite(
                lambda t: ar.jpd_real(n, t, lam), TIGHT, singular_exponent_at_zero=hint)
            rho = ar.density_real(n, lam)
            worst = max(worst, abs(val - rho) / rho)
    elapsed = time.monotonic() - t0
    _report(1, "real normalization", worst <= 1e-8 and elapsed < 60.0,
            f"max rel dev {worst:.2e} (tol 1e-8), {elapsed:.1f}s (< 60s)")


def test_criterion_02_form_equivalence():
    tgrid = np.geomspace(1e-3, 1e3, 25)
    worst = 0.0
    for n in (2, 3, 5, 8, 13, 20):
        for lam in _lambda_grid(n):
            a = jpd_real_gamma(n, tgrid, lam)   # the gamma form at 40 digits
            b = ar.jpd_real(n, tgrid, lam)
            worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(a, 1e-300))))
    _report(2, "tau-form/gamma form equivalence", worst <= 1e-12,
            f"max rel dev {worst:.2e} (tol 1e-12)")


def test_criterion_03_complex_normalization():
    t0 = time.monotonic()
    worst = 0.0
    for n in range(2, 13):
        for frac in (0.0, 0.3, 0.7, 0.95):
            a = (frac * math.sqrt(n)) ** 2
            val, _ = integrate_semi_infinite(
                lambda t: ac.jpd_complex(n, t, a),
                QuadSpec(abs_tol=1e-14, rel_tol=1e-9, max_subdivisions=4000))
            rho = ac.density_complex(n, a)
            worst = max(worst, abs(val - rho) / rho)
    elapsed = time.monotonic() - t0
    _report(3, "complex normalization", worst <= 1e-6 and elapsed < 120.0,
            f"max rel dev {worst:.2e} (tol 1e-6), {elapsed:.1f}s (< 120s)")


def test_criterion_04_z0_collapse():
    tgrid = np.geomspace(1e-3, 1e4, 21)
    worst = 0.0
    for n in range(2, 41):
        a = ac.jpd_complex(n, tgrid, 0.0)
        b = ac.jpd_complex_zero(n, tgrid)
        worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(b, 1e-300))))
    _report(4, "z=0 collapse", worst <= 1e-12, f"max rel dev {worst:.2e} (tol 1e-12)")


def test_criterion_05_mc_real_bulk(real_bulk_hist):
    spec, win, hist = real_bulk_hist
    cdf = mh.analytic_conditional_cdf(spec, win, hist.bin_edges)
    rep = mh.ks_compare(hist, cdf)
    ok = rep.statistic_value <= 0.01 and rep.sample_size >= 60_000
    _report(5, "MC real bulk KS", ok,
            f"D = {rep.statistic_value:.5f} (tol 0.01), n = {rep.sample_size}, "
            f"alpha=0.001 critical {rep.threshold:.5f}")


def test_criterion_06_mc_complex_bulk(complex_bulk_hist):
    spec, win, hist = complex_bulk_hist
    cdf = mh.analytic_conditional_cdf(spec, win, hist.bin_edges)
    rep = mh.ks_compare(hist, cdf)
    _report(6, "MC complex bulk KS", rep.statistic_value <= 0.01,
            f"D = {rep.statistic_value:.5f} (tol 0.01), n = {rep.sample_size}")


def test_criterion_07_tail_exponents(real_bulk_hist, complex_tail_hist):
    _, _, hist_r = real_bulk_hist
    slope_r, se_r = mh.tail_exponent(hist_r, t_min=20.0 * 6)
    _, _, hist_c = complex_tail_hist
    slope_c, se_c = mh.tail_exponent(hist_c, t_min=10.0 * 10, min_tail_count=50)
    ok = abs(slope_r + 1.0) <= 0.1 and abs(slope_c + 2.0) <= 0.1
    _report(7, "survival tail exponents", ok,
            f"real {slope_r:.3f}+-{se_r:.3f} (target -1.0+-0.1), "
            f"complex {slope_c:.3f}+-{se_c:.3f} (target -2.0+-0.1)")


def test_criterion_08_bulk_conditional_mean():
    n = 30
    spec = EnsembleSpec(n=n, beta=2, seed=13)
    win = Window(kind=ANNULUS, lo=0.45 * math.sqrt(n), hi=0.55 * math.sqrt(n))
    s_vals = mh.collect_overlaps(spec, 6000, win, chunk=512) / n
    emp = float(s_vals.mean())
    se = float(s_vals.std(ddof=1) / math.sqrt(s_vals.size))

    from ginibre_overlaps.quadrature import panel_nodes

    def first_moment(a):
        val, _ = integrate_semi_infinite(
            lambda t: t * ac.jpd_complex(n, t, a), QuadSpec(1e-13, 1e-9, 3000))
        return val

    pts = np.linspace(win.lo, win.hi, 9)
    num = den = 0.0
    for aa, bb in zip(pts[:-1], pts[1:]):
        x, wt = panel_nodes(aa, bb)
        for r, w in zip(x, wt):
            num += w * 2.0 * math.pi * r * first_moment(r * r)
            den += w * 2.0 * math.pi * r * ac.density_complex(n, r * r)
    fin = num / (n * den)
    bulk = 1.0 - 0.5**2
    ok = abs(emp - fin) <= 3.0 * se and abs(fin - bulk) <= 0.1 * bulk
    _report(8, "bulk conditional mean of s", ok,
            f"empirical {emp:.4f}+-{se:.4f}, finite-N {fin:.4f} "
            f"(|z|={abs(emp - fin) / se:.2f} sigma), bulk {bulk:.3f} "
            f"(finite-N off by {abs(fin - bulk) / bulk * 100:.1f}%, tol 10%)")


def test_criterion_09_edge_values():
    val_r, _ = integrate_semi_infinite(lambda s: ar.jpd_real_edge(s, 0.0), TIGHT)
    # closed form: (1/(2 sqrt(2 pi)))(1 + 1/sqrt(2)) = 0.34051853608766
    target_r = 0.5 / math.sqrt(2.0 * math.pi) * (1.0 + 1.0 / math.sqrt(2.0))
    val_c, _ = integrate_semi_infinite(lambda s: ac.jpd_complex_edge(s, 0.0), TIGHT)
    target_c = 1.0 / (2.0 * math.pi)

    grid = [(s, w) for s in (0.5, 1.0, 2.0) for w in (0.3, 0.5, 0.7)]
    sups = []
    for n in (25, 100, 400):
        rt = math.sqrt(n)
        sups.append(max(
            abs(rt * ac.jpd_complex_edge(rt * s, 0.5 * rt * (w * w - 1.0))
                - ac.jpd_complex_bulk(s, w)) for s, w in grid))
    ok = (abs(val_r - target_r) <= 1e-6 and abs(val_c - target_c) <= 1e-6
          and sups[0] > sups[1] > sups[2])
    _report(9, "edge integrals + bulk/edge matching", ok,
            f"real edge int {val_r:.9f} vs {target_r:.9f}, "
            f"complex edge int {val_c:.9f} vs {target_c:.9f}, "
            f"matching sup errs {sups[0]:.3e} > {sups[1]:.3e} > {sups[2]:.3e}")


def test_criterion_10_detratio_oracle():
    worst_z = 0.0
    details = []
    for beta, ell in ((1, 0), (1, 2), (2, 0), (2, 1), (2, 2)):
        z = 0.7 if beta == 1 else 0.5 + 0.4j
        sweeps = detratio.detratio_mc_sweep(4, beta, ell, z, [0.5, 1.0, 5.0],
                                            1_000_000, seed=41)
        for p, (mean, stderr) in zip((0.5, 1.0, 5.0), sweeps):
            closed = detratio.detratio_closed(
                detratio.DetRatioQuery(n=4, beta=beta, L=ell, z=z, p=p))
            zscore = abs(mean - closed) / stderr
            worst_z = max(worst_z, zscore)
        details.append(f"({beta},{ell})")
    ok_mc = worst_z <= 3.0

    # D^(1)(z, 0) = 1
    worst_one = 0.0
    for n in (2, 6, 10):
        for az in (0.0, 1.0, math.sqrt(n)):
            q = detratio.DetRatioQuery(n=n, beta=2, L=1, z=az, p=0.0)
            worst_one = max(worst_one, abs(detratio.detratio_closed(q) - 1.0))
    ok_one = worst_one <= 1e-8

    # (2p)^{n/2} D^{(2)}_{n,1} -> <det^2> as p grows; at lam = 0 that is n!
    ok_limit = True
    lim_detail = []
    for lam in (0.0, 0.8):
        n = 3
        target = detratio.mean_det_sq_real(n, lam)
        errs = []
        for p in (1e2, 1e3, 1e4):
            val = detratio.detratio_closed(
                detratio.DetRatioQuery(n=n, beta=1, L=2, z=lam, p=p), TIGHT)
            errs.append(abs((2.0 * p) ** (n / 2.0) * val / target - 1.0))
        ok_limit &= errs[0] > errs[1] > errs[2] and errs[2] < 1e-3
        lim_detail.append(f"lam={lam}: target {target:.3f}, final err {errs[2]:.1e}")
    assert detratio.mean_det_sq_real(3, 0.0) == pytest.approx(6.0)  # 3!

    # direct p -> inf Monte Carlo: <det^2> at 1e6 draws
    spec = EnsembleSpec(n=2, beta=1, seed=19)
    dets = np.concatenate([
        np.linalg.det(1.0 * np.eye(2) - sample_ginibre_batch(spec, lo, 125_000)) ** 2
        for lo in range(0, 1_000_000, 125_000)])
    mc_mean = float(dets.mean())
    mc_se = float(dets.std(ddof=1) / math.sqrt(dets.size))
    ok_det = abs(mc_mean - 5.0) <= 3.0 * mc_se

    ok = ok_mc and ok_one and ok_limit and ok_det
    _report(10, "determinant-ratio oracle", ok,
            f"max |z|-score {worst_z:.2f} over {details} x p in (0.5,1,5) at 1e6 "
            f"(tol 3), max |D1-1| {worst_one:.1e} (tol 1e-8), "
            f"{'; '.join(lim_detail)}, <det^2> MC {mc_mean:.3f}+-{mc_se:.3f} vs 5")


def test_criterion_11_laplace_bridges():
    worst_r = 0.0
    for n in range(3, 11):
        norm = 2.0 ** (n / 2.0) * math.exp(specfun.log_gamma(n / 2.0))
        for lam in (0.0, 0.8):
            for p in (0.1, 1.0, 10.0):
                lhs, _ = integrate_semi_infinite(
                    lambda t: np.exp(-p * t) * ar.jpd_real(n, t, lam), TIGHT)
                rhs = math.exp(-0.5 * lam * lam) / norm * detratio.detratio_closed(
                    detratio.DetRatioQuery(n=n - 1, beta=1, L=2, z=lam, p=p), TIGHT)
                worst_r = max(worst_r, abs(lhs - rhs) / abs(lhs))
    worst_c = 0.0
    for n in range(3, 11):
        for az in (0.0, 1.0):
            a = az * az
            for p in (0.1, 1.0, 10.0):
                lhs, _ = integrate_semi_infinite(
                    lambda t: np.exp(-p * t) * ac.jpd_complex(n, t, a), TIGHT)
                rhs = math.exp(-a) / (math.pi * math.factorial(n - 1)) \
                    * detratio.detratio_closed(
                        detratio.DetRatioQuery(n=n - 1, beta=2, L=2, z=az, p=p), TIGHT)
                worst_c = max(worst_c, abs(lhs - rhs) / abs(lhs))
    ok = worst_r <= 1e-8 and worst_c <= 1e-6
    _report(11, "Laplace bridges", ok,
            f"real max rel dev {worst_r:.2e} (tol 1e-8), "
            f"complex max rel dev {worst_c:.2e} (tol 1e-6)")


def test_criterion_12_structural_invariants():
    worst_row = 0.0
    min_t = 0.0
    for n in (2, 5, 10, 25, 50):
        for beta in (1, 2):
            spec = EnsembleSpec(n=n, beta=beta, seed=300 + n + beta)
            for i in range(30):
                g = sample_ginibre(spec, i)
                samples = overlaps_biorthogonal(g)
                min_t = min(min_t, min(s.t for s in samples))
                _, o = overlap_matrix_full(g)
                worst_row = max(worst_row, float(np.abs(o.sum(axis=1) - 1.0).max()))
    ok_rows = worst_row <= 1e-8 and min_t >= 0.0

    worst_schur = 0.0
    n_checked = 0
    for n in range(2, 21):
        spec = EnsembleSpec(n=n, beta=1, seed=600 + n)
        for i in range(3):
            g = sample_ginibre(spec, i)
            for s in overlaps_biorthogonal(g):
                if s.kind != "real-line":
                    continue
                t_schur = overlap_schur_real(g, s.eigenvalue.real)
                worst_schur = max(worst_schur,
                                  abs(t_schur - s.t) / max(s.t, 1e-4))
                n_checked += 1
    ok_schur = worst_schur <= 1e-8 and n_checked > 50

    spec2 = EnsembleSpec(n=2, beta=1, seed=77)
    n_mat = 200_000
    w = np.linalg.eigvals(sample_ginibre_batch(spec2, 0, n_mat))
    count = float((np.abs(w.imag) <= 1e-9 * math.sqrt(2)).sum()) / n_mat
    p_real = 1.0 / math.sqrt(2.0)
    sigma = math.sqrt(4.0 * p_real * (1.0 - p_real) / n_mat)
    ok_count = abs(count - math.sqrt(2.0)) <= 3.0 * sigma

    ok = ok_rows and ok_schur and ok_count
    _report(12, "structural invariants", ok,
            f"min t {min_t:.1e} (>= 0), max row-sum dev {worst_row:.2e} (tol 1e-8), "
            f"max Schur/biortho dev {worst_schur:.2e} over {n_checked} eigenvalues "
            f"(tol 1e-8), E[#real]@N=2 {count:.4f} vs {math.sqrt(2):.4f} "
            f"(3 sigma = {3 * sigma:.4f})")
