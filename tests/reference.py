"""Independent references used only by tests: the eig/inv route for
eigenvector overlaps, and the real overlap density in its gamma form.

The package computes an overlap one eigenvalue at a time, from the paper's
partial Schur decomposition (ensemble._overlaps_bordered, with
ensemble.overlap_schur_real as its entry point for one matrix).  The tests
check it against this independent route: right eigenvectors from the dense
nonsymmetric eigendecomposition, left eigenvectors as rows of the inverse
eigenvector matrix (ensemble._overlaps_core), and t = O - 1.

The package evaluates the real overlap density from its nonnegative
weights under tau = t/(1+t) (analytic_real._tau_form); jpd_real_gamma is
the same density as the two-term bracket of regularized incomplete gammas,
evaluated at 40 digits, where its difference cannot cancel.

The package builds the complex weights d1, D1, D2 from positive double
sums in floats (analytic_complex._log_weights); complex_weight_polys gives
each, and the d2 that D1 and D2 are combined from, as e^{-2a} times a
polynomial in a with exact integer coefficients, combined from products of
incomplete gamma polynomials in Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np

from ginibre_overlaps.ensemble import _overlaps_core, default_real_tolerance, near_real
from ginibre_overlaps.errors import DegenerateSampleError, DomainError

REAL_LINE = "real-line"
COMPLEX_PLANE = "complex"


@dataclass
class OverlapSample:
    """One (eigenvalue, overlap) pair harvested from a sampled matrix."""

    eigenvalue: complex
    t: float
    kind: str
    residual: float


def overlaps_biorthogonal(g: np.ndarray) -> list[OverlapSample]:
    """One OverlapSample per eigenvalue of the square matrix g.

    Raises DegenerateSampleError when the spectrum is numerically too close
    to degenerate for the overlaps to be trustworthy; callers count and
    discard such matrices.
    """
    g = np.asarray(g)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DomainError("overlaps_biorthogonal expects a square matrix")
    n = g.shape[0]
    is_real_matrix = not np.iscomplexobj(g)
    w, t, resid, ok = _overlaps_core(g[None, ...])
    if not ok[0]:
        raise DegenerateSampleError("spectrum too close to degenerate for reliable overlaps")
    real = near_real(w[0], default_real_tolerance(n)) & is_real_matrix
    samples = []
    for k in range(n):
        kind = REAL_LINE if real[k] else COMPLEX_PLANE
        samples.append(OverlapSample(eigenvalue=complex(w[0, k]), t=float(t[0, k]), kind=kind,
                                     residual=float(resid[0, k])))
    return samples


def overlap_matrix_full(g: np.ndarray):
    """Eigenvalues and the full overlap matrix O_ab (debug/verification mode).

    O_ab = (x_La* x_Lb)(x_Rb* x_Ra); rows sum to 1 by completeness of the
    bi-orthogonal system, which bounds the inversion error directly.
    """
    g = np.asarray(g)
    w, v = np.linalg.eig(g)
    left = np.linalg.inv(v)
    o = (left @ left.conj().T) * (v.conj().T @ v).T
    return w, o


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass
class ClassifiedSamples:
    """Samples split by eigenvalue kind, with bookkeeping counts."""

    real_line: list
    complex_plane: list
    n_near_real_flagged: int


def classify_eigenvalues(samples, tol_real: float, beta: int = 1) -> ClassifiedSamples:
    """Assign kinds and partition samples.

    beta = 1: eigenvalues with |Im z| <= tol_real are real-line (their exact
    counterparts are exactly real); the rest are complex and occur in
    conjugate pairs, each member kept as its own sample.
    beta = 2: the real axis has measure zero, so every sample is complex;
    near-real ones are only counted.
    """
    if tol_real <= 0.0:
        raise DomainError("tol_real must be positive")
    real_line, complex_plane, flagged = [], [], 0
    for s in samples:
        real = near_real(s.eigenvalue, tol_real)
        if beta == 1 and real:
            s.kind = REAL_LINE
            real_line.append(s)
        else:
            if real:
                flagged += 1
            s.kind = COMPLEX_PLANE
            complex_plane.append(s)
    return ClassifiedSamples(real_line=real_line, complex_plane=complex_plane,
                             n_near_real_flagged=flagged)


# ---------------------------------------------------------------------------
# the real overlap density, gamma form
# ---------------------------------------------------------------------------

def jpd_real_gamma(n: int, t, lam: float) -> np.ndarray:
    """P(t, lambda) of the size-n real Ginibre ensemble at 40 digits, as floats:

    C0 t^{(n-3)/2} (1+t)^{-(n+1)/2} e^{a/(2(1+t))} [(n-1) Q_n(a) - a tau Q_{n-1}(a)],

    C0 = 1/(2 sqrt(2 pi)), a = lambda^2, tau = t/(1+t); elementwise over t.
    """
    with mpmath.workdps(40):
        a = mpmath.mpf(float(lam)) ** 2
        qn = mpmath.gammainc(n, a, mpmath.inf, regularized=True)
        qm = mpmath.gammainc(n - 1, a, mpmath.inf, regularized=True)
        c0 = 1 / (2 * mpmath.sqrt(2 * mpmath.pi))

        def one(tk):
            tk = mpmath.mpf(tk)
            return float(c0 * tk ** (mpmath.mpf(n - 3) / 2) * (1 + tk) ** (-mpmath.mpf(n + 1) / 2)
                         * mpmath.exp(a / (2 * (1 + tk)))
                         * ((n - 1) * qn - a * tk / (1 + tk) * qm))

        return np.array([one(tk) for tk in np.ravel(t).tolist()]).reshape(np.shape(t))


# ---------------------------------------------------------------------------
# the complex weights, exact integer polynomials
# ---------------------------------------------------------------------------

def _poly_upper(n: int) -> list[int]:
    """Coefficients of P_n with Gamma(n, a) = e^{-a} P_n(a); all integers."""
    f = math.factorial(n - 1)
    return [f // math.factorial(k) for k in range(n)]


def _pmul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, ci in enumerate(p):
        for j, cj in enumerate(q):
            out[i + j] += ci * cj
    return out


def _combine(*terms):
    """sum of scale * a^shift * poly over (scale, shift, poly) terms, in ints."""
    out = [0] * max(shift + len(poly) for _, shift, poly in terms)
    for scale, shift, poly in terms:
        for k, c in enumerate(poly):
            out[k + shift] += scale * c
    return out


@lru_cache(maxsize=64)
def _d_polys(n: int):
    """Integer polynomials p1, p2 with d1 = e^{-2a} p1(a), d2 = e^{-2a} p2(a), n >= 2:
    d1 = Gamma(n-1,a) Gamma(n+1,a) - Gamma(n,a)^2,
    d2 = Gamma(n-1,a) Gamma(n+2,a) - Gamma(n,a) Gamma(n+1,a)."""
    if n < 2:
        return [0], [0]
    pm, pn, pp, pq = (_poly_upper(k) for k in (n - 1, n, n + 1, n + 2))
    p1 = _combine((1, 0, _pmul(pm, pp)), (-1, 0, _pmul(pn, pn)))
    p2 = _combine((1, 0, _pmul(pm, pq)), (-1, 0, _pmul(pn, pp)))
    return p1, p2


def complex_weight_polys(n: int):
    """(d1, d2, D1, D2) at order n >= 2, each as the integer coefficient list
    of e^{2a} times the weight, in ascending powers of a (trailing zeros kept).

    D1 = a^2 (n-1)(n-2) d1' + n(n-1) d1 - 2an d1 - 2a^2 d1 - an(n-2) d2'
         + a^2 (n-2) d2' + a d2 and D2 = 2n d1 - a(n-2) d2', where d1, d2
    are at order n and d1', d2' at order n - 1 (zero at n = 2).
    """
    p1, p2 = _d_polys(n)
    q1, q2 = _d_polys(n - 1)
    big1 = _combine(((n - 1) * (n - 2), 2, q1), (n * (n - 1), 0, p1), (-2 * n, 1, p1),
                    (-2, 2, p1), (-n * (n - 2), 1, q2), (n - 2, 2, q2), (1, 1, p2))
    big2 = _combine((2 * n, 0, p1), (-(n - 2), 1, q2))
    return p1, p2, big1, big2
