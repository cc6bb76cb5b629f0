"""Globally adaptive Gauss-Kronrod integration on finite and semi-infinite intervals.

Every integral of the package, the eigenvalue window's included, goes through
one driver (_adaptive): one worst-panel-first refinement, one QuadSpec rule,
and QuadratureConvergenceError once the subdivision budget runs out.
Integrands must be vectorized: f(x) receives a 1-d numpy array of abscissae
and returns the values elementwise.  An integral's seed panels are evaluated
with one call of f, and both halves of each split with one more.
Semi-infinite integrals over (0, inf) are mapped onto (0, 1) through
t = (u/(1-u))**m, where the power m is chosen from an optional
endpoint-singularity hint so that the transformed integrand stays bounded at
u = 0.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureConvergenceError, integer

# 15-point Kronrod extension of 7-point Gauss on [-1, 1]
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])

_EPS50 = 50.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and subdivision budget for adaptive integration."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("QuadSpec requires positive tolerances")
        object.__setattr__(self, "max_subdivisions",
                           integer("max_subdivisions", self.max_subdivisions, 1))


DEFAULT_SPEC = QuadSpec()


def _panel_error(vk: float, vg: float, resabs: float, resasc: float) -> float:
    """QUADPACK's error estimate of one panel: |K15 - G7| scaled by the
    panel's own variation, so flat regions are not over-refined."""
    d = abs(vk - vg)
    err = resasc * min(1.0, (200.0 * d / resasc) ** 1.5) if resasc != 0.0 and d != 0.0 else d
    return max(err, _EPS50 * resabs)


def kronrod_panel(f, a, b):
    """G7/K15 panels on [a, b], vectorised over panels: a and b are scalars
    or equal-length 1-d arrays, and f is called once on all their nodes.

    Returns (value, err_est): floats for scalar bounds, lists of floats for
    array bounds.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    h = 0.5 * (b - a)
    x, _ = panel_nodes(a, b)
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    # vecdot takes one dot product per contiguous row: the sums a lone panel forms
    vk = h * np.vecdot(fx, _WK)
    gauss = np.ascontiguousarray(fx[..., 1::2])
    sums = (vk, h * np.vecdot(gauss, _WG), h * np.vecdot(np.abs(fx), _WK),
            h * np.vecdot(np.abs(fx - (vk / (b - a))[..., None]), _WK))
    # per panel in Python floats: numpy's power need not round as pow does
    err = [_panel_error(*v) for v in zip(*(np.ravel(s).tolist() for s in sums))]
    return vk.tolist(), err if vk.ndim else err[0]


def panel_nodes(a, b):
    """Kronrod abscissae and weights on [a, b], vectorised over panels like
    kronrod_panel: one row of 15 per panel for array bounds."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    h = 0.5 * (b - a)
    return (0.5 * (a + b))[..., None] + h[..., None] * _XK, h[..., None] * _WK


def _adaptive(f, breakpoints, spec: QuadSpec):
    """(value, err_est, panels) of f over the breakpoints' span: panels is the
    (k, 2) array of final [a, b], sorted by a, those kept at floating-point
    resolution included."""
    heap, kept = [], []
    total = 0.0
    total_err = 0.0
    count = 0
    lo, hi = breakpoints[:-1], breakpoints[1:]
    for a, b, v, e in zip(lo, hi, *kronrod_panel(f, lo, hi)):
        total += v
        total_err += e
        count += 1
        heapq.heappush(heap, (-e, count, a, b, v, e))
    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        if count >= spec.max_subdivisions or not heap:
            raise QuadratureConvergenceError(
                f"no convergence after {count} subdivisions "
                f"(estimate {total:.6g}, err {total_err:.3g})",
                value=total,
                err_est=total_err,
            )
        _, _, a, b, v, e = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            # interval at floating point resolution; keep its estimate
            total_err -= e
            kept.append((a, b))
            continue
        (v1, v2), (e1, e2) = kronrod_panel(f, [a, m], [m, b])
        total += v1 + v2 - v
        total_err += e1 + e2 - e
        count += 1
        heapq.heappush(heap, (-e1, count, a, m, v1, e1))
        heapq.heappush(heap, (-e2, 2 * count + 1, m, b, v2, e2))
    return total, total_err, np.array(sorted(kept + [(a, b) for _, _, a, b, _, _ in heap]))


def integrate_finite(f, a: float, b: float, spec: QuadSpec = DEFAULT_SPEC):
    """Integrate a vectorized f over [a, b].  Returns (value, err_est)."""
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"integrate_finite requires finite a < b, got [{a}, {b}]")
    return _adaptive(f, [a, b], spec)[:2]


def integrate_semi_infinite(f, spec: QuadSpec = DEFAULT_SPEC,
                            singular_exponent_at_zero: float | None = None):
    """Integrate a vectorized f over (0, inf).  Returns (value, err_est).

    singular_exponent_at_zero: if f ~ t**alpha as t -> 0 with -1 < alpha < 0,
    pass alpha; the substitution t = (u/(1-u))**m with m >= 1/(1+alpha)
    removes the singularity.
    """
    m = 1
    if singular_exponent_at_zero is not None:
        alpha = float(singular_exponent_at_zero)
        if alpha <= -1.0:
            raise DomainError("endpoint exponent must be > -1 for integrability")
        if alpha < 0.0:
            m = max(1, math.ceil(1.0 / (1.0 + alpha) - 1e-12))

    def g(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        ok = (u > 0.0) & (u < 1.0)
        if not np.any(ok):
            return out
        uu = u[ok]
        r = uu / (1.0 - uu)
        t = r**m
        jac = m * r ** (m - 1) / (1.0 - uu) ** 2
        vals = np.asarray(f(t), dtype=float) * jac
        vals[~np.isfinite(vals)] = 0.0
        out[ok] = vals
        return out

    # seed panels biased toward u -> 1 where the map compresses the tail
    seeds = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0]
    return _adaptive(g, seeds, spec)[:2]
