"""The eig/inv reference route for eigenvector overlaps, used only by tests.

The package computes an overlap one eigenvalue at a time, from the paper's
partial Schur decomposition (ensemble._overlaps_bordered, with
ensemble.overlap_schur_real as its entry point for one matrix).  The tests
check it against this independent route: right eigenvectors from the dense
nonsymmetric eigendecomposition, left eigenvectors as rows of the inverse
eigenvector matrix (ensemble._overlaps_core), and t = O - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

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
