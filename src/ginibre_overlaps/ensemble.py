"""Ginibre matrix sampling and bi-orthogonal eigenvector overlaps.

Reproducibility contract: matrix ``index`` of a campaign with 64-bit seed
``s`` is generated from a Philox4x64 counter-based stream with 128-bit key
``s | (index+1) << 64``.  Uniform variates are the top 53 bits of each
64-bit word; Gaussians come from the Box-Muller transform applied to
consecutive uniform pairs.  A matrix is therefore a pure function of
(spec, index): the same entries are produced regardless of batch size,
thread count, or call order.

How the words are computed does not change that contract.  A batch is drawn
in slices of SLICE_WORDS words.  Up to GRID_MAX_WORDS words per matrix, the
ten Philox4x64 rounds run in numpy over the slice's whole (matrix, counter
block) grid, counter = block + 1, with the 128-bit products formed from
32-bit halves; above it, numpy's C Philox is re-keyed once per matrix, which
is faster there.  Both give the words of numpy's ``Philox(key)`` stream, and
one Box-Muller pass per slice turns them into normals.  ``sample_ginibre``
is a batch of one, so there is a single sampling path.  Indices go up to
MAX_INDEX = 2^64 - 2, where index + 1 still fits the key's high word.

Entry layout: beta = 1 fills the n x n matrix row-major with N(0,1)
variates; beta = 2 draws 2 n^2 variates, the first n^2 forming the real
part and the rest the imaginary part, scaled by 1/sqrt(2) so that
E|G_jk|^2 = 1.

Overlaps, like the paper's, condition on one eigenvalue at a time: given
an eigenvalue lam of G (from the eigenvalues alone), one bordered solve
yields its right and left eigenvectors, and t is the squared norm of the
partial Schur coupling vector (_overlaps_bordered).  Campaigns use this
kernel, and overlap_schur_real is its entry point for one matrix.  The
eig/inv reference that tests check it against lives in tests/reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, DomainError, integer

#: reject a matrix when any self-overlap exceeds this (near-degenerate spectrum)
OVERLAP_REJECT_THRESHOLD = 1e12
#: floor for t = O_aa - 1 >= 0 in _overlaps_core, its only reader: moves with it after the re-base
T_NEGATIVE_TOLERANCE = 1e-10
#: eigen-equation residual bound, relative to ||G||
RESIDUAL_TOLERANCE = 1e-8

#: Philox words per matrix up to which a batch's words are computed in numpy
#: over its whole (matrix, counter block) grid; above it numpy's C Philox,
#: re-keyed per matrix, is faster (grid/C time per slice, 2-core x86-64:
#: 0.25 at 16 words, 0.5 at 32-36, 0.8-1.25 at 64-72, 1.5-3.8 at 256)
GRID_MAX_WORDS = 64
#: Philox words drawn per slice of a batch; bounds the sampler's temporaries
SLICE_WORDS = 32_768
#: bytes that the largest temporaries of one batch may take: the matrices of a
#: campaign step, the bordered systems of a pass, the series of a group of
#: specfun.log_lower_integral elements; peak memory then no longer grows with
#: chunk, n or the window (beta=2, n=30, 2-core x86-64: 256 KiB ran ~7% slower
#: than 1 MiB, 2 MiB held 2.5 MB more resident memory)
BATCH_BYTES = 1 << 20
#: largest matrix index: its key's high word, index + 1, must fit in 64 bits
MAX_INDEX = 2**64 - 2

# Philox4x64-10 (Salmon et al., SC'11): round multipliers and Weyl key bumps
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_MASK64 = 2**64 - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

@dataclass(frozen=True)
class EnsembleSpec:
    """A sampling campaign: matrix size, Dyson index, and RNG seed."""

    n: int
    beta: int
    seed: int = 0

    def __post_init__(self):
        # each is stored back as a plain int, so 2.0 and np.int64(2) act as 2
        for name, lo, hi in (("n", 1, math.inf), ("beta", 1, 2), ("seed", 0, 2**64 - 1)):
            object.__setattr__(self, name, integer(name, getattr(self, name), lo, hi))


def default_real_tolerance(n: int) -> float:
    """|Im z| threshold for calling an eigenvalue of a real matrix real.

    Scales with the eigensolver noise floor, which grows like ||G|| ~ sqrt(n).
    """
    return 1e-9 * math.sqrt(n)


def near_real(w, tol_real: float):
    """True where an eigenvalue w counts as real: |Im w| <= tol_real."""
    return np.abs(np.imag(w)) <= tol_real


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _words_per_matrix(spec: EnsembleSpec) -> int:
    """Philox words one matrix consumes: one per uniform, in Box-Muller pairs."""
    return 2 * ((spec.beta * spec.n * spec.n + 1) // 2)


def _mulhilo(m: int, x: np.ndarray):
    """High and low 64-bit words of the 128-bit product m * x, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    mid = m_hi * x_lo + ((m_lo * x_lo) >> _SHIFT32)   # no partial sum can carry
    mid2 = m_lo * x_hi + (mid & _LOW32)
    return m_hi * x_hi + (mid >> _SHIFT32) + (mid2 >> _SHIFT32), np.uint64(m) * x


def _philox_grid(seed: int, start: int, count: int, words: int) -> np.ndarray:
    """Philox4x64-10 in numpy over the whole (matrix, counter block) grid.

    The counter (block + 1, 0, 0, 0) varies along blocks and the key's high
    word along matrices; the state broadcasts up to the full grid only as
    the rounds mix them, so the first two rounds do part of their work on
    one row of blocks.
    """
    blocks = -(-words // 4)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    k0 = seed
    k1 = (np.uint64(start + 1) + np.arange(count, dtype=np.uint64))[:, None]
    for _ in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_MUL[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_MUL[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
        k0 = (k0 + _PHILOX_BUMP[0]) & _MASK64
        k1 = k1 + np.uint64(_PHILOX_BUMP[1])
    out = np.empty((count, blocks, 4), dtype=np.uint64)
    for j, c in enumerate((c0, c1, c2, c3)):
        out[:, :, j] = c
    return out.reshape(count, 4 * blocks)[:, :words]


def _philox_c(seed: int, start: int, count: int, words: int) -> np.ndarray:
    """The same words from numpy's C Philox, re-keyed once per matrix."""
    out = np.empty((count, words), dtype=np.uint64)
    key = np.array([seed, 0], dtype=np.uint64)
    # a fresh stream: counter 0, empty buffer, so the first word is block 1's
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    bitgen = np.random.Philox(key=0)
    for i in range(count):
        key[1] = start + i + 1
        bitgen.state = state
        out[i] = bitgen.random_raw(words)
    return out


def _stream(spec: EnsembleSpec, start: int, count: int) -> np.ndarray:
    """Philox words of matrices start..start+count-1, one row per matrix."""
    words = _words_per_matrix(spec)
    philox = _philox_grid if words <= GRID_MAX_WORDS else _philox_c
    return philox(spec.seed, start, count, words)


def _normals(words: np.ndarray, count: int) -> np.ndarray:
    """The first count Box-Muller normals of each row of Philox words."""
    u = (words >> np.uint64(11)) * 2.0**-53     # top 53 bits, uniform in [0, 1)
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))  # 1 - u in (0, 1], no log(0)
    theta = (2.0 * np.pi) * u[:, 1::2]
    u[:, 0::2] = r * np.cos(theta)              # u is not read again: reuse it
    u[:, 1::2] = r * np.sin(theta)
    return u[:, :count]


def sample_ginibre(spec: EnsembleSpec, index: int) -> np.ndarray:
    """The index-th matrix of the deterministic stream defined by spec."""
    return sample_ginibre_batch(spec, index, 1)[0]


def sample_ginibre_batch(spec: EnsembleSpec, start: int, count: int) -> np.ndarray:
    """Matrices start .. start+count-1 stacked; identical to per-index calls."""
    start = integer("matrix index", start, 0, MAX_INDEX)
    count = integer("matrix count", count, 0, MAX_INDEX + 1 - start)
    n, nn = spec.n, spec.n * spec.n
    out = np.empty((count, n, n), dtype=float if spec.beta == 1 else complex)
    per_slice = max(1, SLICE_WORDS // _words_per_matrix(spec))
    for lo in range(0, count, per_slice):
        m = min(per_slice, count - lo)
        z = _normals(_stream(spec, start + lo, m), spec.beta * nn)
        if spec.beta == 1:
            out[lo:lo + m] = z.reshape(m, n, n)
        else:
            # the bits of (re + 1j im) / sqrt(2): numpy divides by sqrt(2) + 0j,
            # which is re and im times fl(1/sqrt(2))
            block = out[lo:lo + m].reshape(m, nn)
            np.multiply(z[:, :nn], _INV_SQRT2, out=block.real)
            np.multiply(z[:, nn:], _INV_SQRT2, out=block.imag)
    return out


# ---------------------------------------------------------------------------
# overlaps
# ---------------------------------------------------------------------------

def _overlaps_core(mats: np.ndarray):
    """Batched eig/inv overlaps: the tests' reference, hooked by perfbench until the
    benchmark re-base, after which it moves to tests/reference.py.

    Returns (eigenvalues, t, residuals, ok) where ok flags matrices whose
    spectrum is usable (finite, t >= -tol, overlaps below the degeneracy
    threshold, residuals within bounds).
    """
    w, v = np.linalg.eig(mats)
    left = np.linalg.inv(v)
    o_diag = (np.abs(left) ** 2).sum(axis=2) * (np.abs(v) ** 2).sum(axis=1)
    t = o_diag - 1.0

    norm_g = np.sqrt((np.abs(mats) ** 2).sum(axis=(1, 2)))
    resid = np.abs(mats @ v - w[:, None, :] * v)
    resid = np.sqrt((resid ** 2).real.sum(axis=1)) / np.maximum(norm_g[:, None], 1e-300)

    finite = np.isfinite(t).all(axis=1) & np.isfinite(w).all(axis=1)
    ok = (finite
          & (t.min(axis=1) >= -T_NEGATIVE_TOLERANCE)
          & (o_diag.max(axis=1) <= OVERLAP_REJECT_THRESHOLD)
          & (resid.max(axis=1) <= RESIDUAL_TOLERANCE))
    np.clip(t, 0.0, None, out=t)
    return w, t, resid, ok


def _solve_or_nan(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a stack of systems, NaN for each exactly singular one."""
    try:
        return np.linalg.solve(m, b)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan, dtype=np.result_type(m, b))
        for i in range(len(m)):
            try:
                x[i] = np.linalg.solve(m[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return x


def _bordered_pass(g: np.ndarray, lam: np.ndarray, norm_g: np.ndarray):
    """t and the check flag of eigenvalue lam[k] of matrix g[k], every k;
    norm_g[k] is the Frobenius norm of g[k]."""
    count, n, _ = g.shape
    m = np.zeros((count, n + 1, n + 1), dtype=lam.dtype)
    shifted = m[:, :n, :n]
    shifted[...] = g
    diag = np.arange(n)
    shifted[:, diag, diag] -= lam[:, None]
    m[:, :n, n] = m[:, n, :n] = 1.0
    e = np.zeros((count, n + 1, 1), dtype=lam.dtype)
    e[:, n] = 1.0
    # r: last column of M^-1; u: its last row transposed, so l = conj(u)
    r = _solve_or_nan(m, e)[:, :n, 0]
    u = _solve_or_nan(m.transpose(0, 2, 1), e)[:, :n, 0]
    rr = (np.abs(r) ** 2).sum(axis=1)
    ur = np.einsum("bi,bi->b", u, r)
    with np.errstate(divide="ignore", invalid="ignore"):
        # in place, u becomes conj(P l), P the projector orthogonal to r
        u -= (ur / rr)[:, None] * r.conj()
        t = rr * (np.abs(u) ** 2).sum(axis=1) / np.abs(ur) ** 2
    resid = np.linalg.norm(np.matmul(shifted, r[..., None])[..., 0], axis=1)
    # NaN fails both comparisons
    ok = ((t + 1.0 <= OVERLAP_REJECT_THRESHOLD)
          & (resid <= RESIDUAL_TOLERANCE * norm_g * np.sqrt(rr)))
    return t, ok


def _overlaps_bordered(mats: np.ndarray, rows: np.ndarray, lam: np.ndarray):
    """Self-overlap t of eigenvalue lam[k] of matrix mats[rows[k]], for every k.

    M = [[G - lam I, 1], [1^T, 0]] stays nonsingular for a simple eigenvalue
    even when G - lam I is exactly singular: the last column of M^-1 is a
    right eigenvector r, its last row a left one l^H.  This is the paper's
    partial Schur decomposition without the reflector: with Q = [r/|r|, Q']
    unitary, Q^H G Q = [[lam, w^H], [0, B]], and b = Q'^H l |r| / (r^H l)
    solves b^H (lam - B) = w^H, so t = O - 1 = |b|^2 = |r|^2 |P l|^2 / |l^H r|^2
    with P the projector orthogonal to r: t >= 0, and no subtraction costs
    small t its relative accuracy.  Returns (t, ok), ok flagging finite t
    with t + 1 <= OVERLAP_REJECT_THRESHOLD and |(G - lam) r| <=
    RESIDUAL_TOLERANCE |G| |r|; an exactly singular M gives t = NaN.

    Pairs are solved in passes of at most len(mats) pairs whose bordered
    systems fit in BATCH_BYTES (at least one pair).  An eigenvalue of a real
    matrix whose imaginary part is exactly 0 takes real arithmetic, any other
    complex, so each t is a function of its own matrix and eigenvalue only.
    """
    t = np.full(len(rows), np.nan)
    ok = np.zeros(len(rows), dtype=bool)
    real = np.isrealobj(mats) & (np.imag(lam) == 0.0)
    # Frobenius norms once per matrix, not per pair, from views of the real
    # and imaginary parts: no temporary the size of the stack
    parts = (mats.real, mats.imag) if np.iscomplexobj(mats) else (mats,)
    norms = np.sqrt(sum(np.einsum("bij,bij->b", p, p) for p in parts))
    n = mats.shape[1]
    for group, values in ((real, np.real(lam)), (~real, lam.astype(complex))):
        pairs = np.flatnonzero(group)
        step = max(1, min(len(mats), BATCH_BYTES // (values.itemsize * (n + 1) ** 2)))
        for lo in range(0, pairs.size, step):
            k = pairs[lo:lo + step]
            t[k], ok[k] = _bordered_pass(mats[rows[k]], values[k], norms[rows[k]])
    return t, ok


def overlap_schur_real(g: np.ndarray, lam: float) -> float:
    """Self-overlap t for a simple real eigenvalue lam of the real matrix g.

    The campaign kernel (_overlaps_bordered) on one pair.  Raises
    DegenerateSampleError when the bordered system is singular (lam a
    multiple eigenvalue) and DomainError when the pair fails the kernel's
    checks (lam not an eigenvalue of g, or O above OVERLAP_REJECT_THRESHOLD).
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DomainError("overlap_schur_real expects a square real matrix")
    t, ok = _overlaps_bordered(g[None], np.zeros(1, dtype=int), np.array([lam], dtype=float))
    if not np.isfinite(t[0]):
        raise DegenerateSampleError("bordered system is singular")
    if not ok[0]:
        raise DomainError(f"{lam} is not a simple real eigenvalue of g")
    return float(t[0])
