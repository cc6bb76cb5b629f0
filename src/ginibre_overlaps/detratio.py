"""Averaged characteristic-polynomial ratios over the Ginibre ensembles.

The object of interest is

    D^{(L)}_{N,beta}(z, p) = < det^{beta L/2}[(z-G)(z*-G*)]
                              / det^{beta/2}[(2p/beta) I + (z-G)(z*-G*)] >

whose Laplace structure in p encodes the overlap densities.  Supported
(beta, L) pairs: (1,0), (1,2), (2,0), (2,1), (2,2) with z real for beta=1.

Each supported pair is one Laplace integral, with a = |z|^2, tau = t/(1+t)
and om = 1/(1+t) = 1 - tau (lnG = log Gamma):

    D = int_0^inf e^{-pt} tau^k om^j exp(log_pref - c tau + log_bracket) dt

    route   log_pref                            c    k        j  log_bracket
    (1,0)   -(n/2) ln2 - lnG(n/2)               a/2  n/2 - 1  1  -
    (1,2)   lnG(n) - (n/2) ln2 - lnG(n/2) + a   a/2  n/2 - 1  2  log B_n(a, tau)
    (2,0)   -lnG(n)                             a    n - 1    1  -
    (2,1)   a                                   a    n - 1    2  log B_n(a, tau)
    (2,2)   lnG(n+1) + 2a + top                 a    n - 1    3  log(g1 + g2 om + g3 om^2)
    zero    ln n + lnG(n+2)                     0    n - 1    3  -

where B_n = n Q_{n+1}(a) - a tau Q_n(a) (specfun.log_gamma_bracket), and
top, g1..g3 are the complex density's bracket at order n+1.  It is
evaluated by adaptive quadrature.

A brute-force Monte Carlo estimator is the oracle that validates the closed
forms.  Per matrix A = z - G it takes log|det A| and log det(qI + A^H A),
q = 2p/beta, from one Gram product A^H A and one slogdet call over A and its
shifted Grams; where the Gram rounding bound exceeds _GRAM_LOGDET_TOL (huge
|z|, tiny p) it takes the singular values of A.  None of these depends on L,
so one pass over a (beta, z) matrix stream accumulates every supported L of
beta, and the pass's moments are cached: the other L of that stream draw no
matrices.  Values are accumulated in log space, so determinants never
overflow.  A chunk (the unit of the moment merge) is sampled and taken in
steps whose matrices fit in ensemble.BATCH_BYTES, down to one matrix at
large n; only 1 + len(p) floats per matrix of the chunk outlive a step,
so peak memory does not grow with chunk x n^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import ensemble, specfun
from .analytic_complex import _bracket
from .analytic_real import _log_eks_integral
from .ensemble import EnsembleSpec, sample_ginibre_batch
from .errors import DomainError, integer
from .quadrature import DEFAULT_SPEC, QuadSpec, integrate_semi_infinite

_L_OF_BETA = {1: (0, 2), 2: (0, 1, 2)}
_SUPPORTED = {(beta, ell) for beta, ells in _L_OF_BETA.items() for ell in ells}
_LN2 = math.log(2.0)

# Rounding the Gram product moves each entry by |dG_ij| <~ n eps |a_i| |a_j|
# (a_i the columns of A), and ||(qI + A^H A)^{-1}|| <= 1/q, so
# log det(qI + A^H A) moves by about n eps tr(A^H A) / q.  Where that bound
# exceeds this tolerance the matrix goes through the SVD, whose error in
# log(q + s^2) is only ~eps ||A|| / sqrt(q).
_GRAM_LOGDET_TOL = 1e-10


@dataclass(frozen=True)
class DetRatioQuery:
    """Parameters of one determinant-ratio evaluation."""

    n: int
    beta: int
    L: int
    z: complex
    p: float

    def __post_init__(self):
        for name, lo, hi in (("n", 1, math.inf), ("beta", 1, 2), ("L", 0, 2)):
            object.__setattr__(self, name, integer(name, getattr(self, name), lo, hi))
        if (self.beta, self.L) not in _SUPPORTED:
            raise DomainError(f"unsupported (beta, L) = ({self.beta}, {self.L})")
        if self.beta == 1 and abs(complex(self.z).imag) > 0.0:
            raise DomainError("beta = 1 requires a real spectral parameter z")
        if not cmath.isfinite(complex(self.z)):
            raise DomainError(f"spectral parameter z must be finite, got {self.z}")
        if not 0.0 <= self.p < math.inf:   # also rejects NaN
            raise DomainError(f"shift p must be finite and >= 0, got {self.p}")


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------

def _sample_log_values(spec: EnsembleSpec, z, start: int, shifts, buf: np.ndarray,
                       log_abs_det: np.ndarray, halves: np.ndarray) -> None:
    """Sample matrices start .. start+m-1 of the stream (m = len(log_abs_det)),
    and write log|det A| of A = z I - G into log_abs_det and
    (beta/2) log det(qI + A^H A) per shift q into the rows of halves.

    The front of buf becomes one stack: A, then the Gram product shifted by
    each q in turn, so one slogdet call takes every log-determinant of the
    step.  A matrix with n eps tr(A^H A) / min(q) above _GRAM_LOGDET_TOL takes
    its singular values; only the others take the Gram route.
    """
    n, beta, m = spec.n, spec.beta, len(log_abs_det)
    a = buf[:m]
    np.negative(sample_ginibre_batch(spec, start, m), out=a)
    a.reshape(m, n * n)[:, ::n + 1] += z        # a = z I - G, in place
    parts = a.reshape(m, n * n).view(float)     # real (and imaginary) parts
    trace = np.einsum("ij,ij->i", parts, parts)  # tr(A^H A), no temporary
    fallback = n * np.finfo(float).eps * trace > _GRAM_LOGDET_TOL * min(shifts)
    kept = slice(None)
    if fallback.any():
        svals = np.linalg.svd(a[fallback], compute_uv=False)
        log_abs_det[fallback] = np.log(svals).sum(axis=1)
        for h, q in zip(halves, shifts):
            h[fallback] = 0.5 * beta * np.log(q + svals**2).sum(axis=1)
        kept = ~fallback
        m = int(kept.sum())
        if m == 0:
            return
        a[:m] = a[kept]                          # the Gram route's matrices first
        a = a[:m]
    stack = buf[:(1 + len(shifts)) * m]
    slots = stack.reshape(1 + len(shifts), m, n, n)
    gram = np.matmul(a.transpose(0, 2, 1) if beta == 1 else a.conj().transpose(0, 2, 1), a,
                     out=slots[1])
    slots[2:] = gram
    for shifted, q in zip(slots[1:], shifts):
        shifted.reshape(m, n * n)[:, ::n + 1] += q
    logs = np.linalg.slogdet(stack)[1].reshape(1 + len(shifts), m)
    log_abs_det[kept] = logs[0]
    halves[:, kept] = 0.5 * beta * logs[1:]


def _merge_moments(a, b):
    """Chan's merge of two (count, shift, mean, m2) groups of values stored
    divided by e^shift; the merged group keeps the larger shift."""
    if a is None:
        return b
    (na, sa, ma, m2a), (nb, sb, mb, m2b) = a, b
    top = max(sa, sb)
    fa, fb = math.exp(sa - top), math.exp(sb - top)
    ma, m2a, mb, m2b = ma * fa, m2a * fa * fa, mb * fb, m2b * fb * fb
    n = na + nb
    delta = mb - ma
    return n, top, ma + delta * nb / n, m2a + m2b + delta * delta * na * nb / n


@lru_cache(maxsize=32)
def _stream_moments(n: int, beta: int, z, p_values: tuple, n_samples: int, seed: int,
                    chunk: int) -> dict:
    """{L: ((count, top, mean, m2) per p)} for every supported L of beta, from
    one pass over the (n, beta, seed) matrix stream at z.

    Each chunk's values are exponentiated after shifting their logs by the
    chunk maximum, and chunk moments merge by Chan's update, so neither the
    values nor their squares overflow before the caller applies the scale.
    Only these moment tuples are cached, never arrays."""
    spec = EnsembleSpec(n=n, beta=beta, seed=seed)
    shifts = [2.0 * p if beta == 1 else p for p in p_values]   # q = 2p / beta
    # a step holds 2 + len(shifts) arrays of step matrices at once: the stack
    # (A and one shifted Gram per shift) and either the sampled batch or the
    # conjugate copy that the Gram product makes
    matrix_bytes = 8 * beta * spec.n * spec.n
    step = max(1, min(chunk, n_samples,
                      ensemble.BATCH_BYTES // ((2 + len(shifts)) * matrix_bytes)))
    buf = np.empty(((1 + len(shifts)) * step, spec.n, spec.n), float if beta == 1 else complex)
    acc = {ell: [None] * len(shifts) for ell in _L_OF_BETA[beta]}
    for lo in range(0, n_samples, chunk):
        cnt = min(chunk, n_samples - lo)
        log_abs_det, halves = np.empty(cnt), np.empty((len(shifts), cnt))
        for s in range(0, cnt, step):
            e = min(s + step, cnt)
            _sample_log_values(spec, z, lo + s, shifts, buf, log_abs_det[s:e], halves[:, s:e])
        vals = np.empty(cnt)   # logs, values and squared deviations, in turn
        for ell in _L_OF_BETA[beta]:
            # L = 0 keeps a literal 0.0 term, so an exactly singular A
            # (log|det A| = -inf) cannot make 0 * -inf
            num = beta * ell * log_abs_det if ell else 0.0
            for i, h in enumerate(halves):
                top = float(np.subtract(num, h, out=vals).max())
                mean = float(np.exp(np.subtract(vals, top, out=vals), out=vals).mean())
                m2 = float(np.square(np.subtract(vals, mean, out=vals), out=vals).sum())
                acc[ell][i] = _merge_moments(acc[ell][i], (cnt, top, mean, m2))
    return {ell: tuple(moments) for ell, moments in acc.items()}


def detratio_mc_sweep(n: int, beta: int, L: int, z, p_values, n_samples: int, *,
                      seed: int = 0, chunk: int = 65536):
    """MC means/stderrs of D^{(L)}_{n,beta}(z, p) for several p from one
    matrix stream.

    One pass over the stream accumulates every supported L of beta at once
    (_stream_moments, cached per (n, beta, z, p values, n_samples, seed,
    chunk)), so the other L of the same stream cost no further draws; see
    _sample_log_values for what each matrix takes.  The moments are scaled
    here, so only an L whose values exceed the double range raises."""
    p_values = [float(p) for p in p_values]
    queries = [DetRatioQuery(n=n, beta=beta, L=L, z=z, p=p) for p in p_values]
    for q in queries:
        if q.p <= 0.0:
            raise DomainError("Monte Carlo estimation requires p > 0")
    # at least 1e3 samples for a meaningful estimate
    n_samples = integer("n_samples", n_samples, 1000)
    chunk = integer("chunk", chunk, 1)
    zc = complex(z) if beta == 2 else complex(z).real
    out = []
    for cnt, top, mean, m2 in _stream_moments(n, beta, zc, tuple(p_values), n_samples,
                                               seed, chunk)[L]:
        try:
            scale = math.exp(top)
        except OverflowError:
            raise DomainError("Monte Carlo values exceed the double range") from None
        out.append((mean * scale, math.sqrt(m2 / (cnt - 1) / cnt) * scale))
    return out


def detratio_mc(q: DetRatioQuery, n_samples: int, *, seed: int = 0,
                chunk: int = 65536):
    """Sample mean and standard error of the determinant ratio at q."""
    return detratio_mc_sweep(q.n, q.beta, q.L, q.z, [q.p], n_samples,
                             seed=seed, chunk=chunk)[0]


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _laplace(p: float, log_pref: float, c: float, k: float, j: int, spec: QuadSpec,
             log_bracket=None) -> float:
    """int_0^inf e^{-pt} tau^k om^j exp(log_pref - c tau + log_bracket(tau, om)) dt
    with tau = t/(1+t) and om = 1/(1+t) = 1 - tau.

    t is rescaled by the e^{-pt} kernel scale max(p, 1), so large p cannot hide
    the integrand from the first panels; a negative k is the t -> 0 endpoint
    exponent.  The bracket stays inside the exponent: as a separate factor,
    e^{log_pref} times the bracket gives inf * 0 past the edge.
    """
    scale = max(p, 1.0)

    def f(s):
        t = s / scale
        om = 1.0 / (1.0 + t)
        log_om = -np.log1p(t)
        expo = log_pref - p * t + k * (np.log(t) + log_om) + j * log_om - c * t * om
        if log_bracket is not None:
            expo = expo + log_bracket(t * om, om)
        return np.exp(expo) / scale

    val, _ = integrate_semi_infinite(f, spec, singular_exponent_at_zero=k if k < 0 else None)
    return val


def detratio_closed(q: DetRatioQuery, spec: QuadSpec = DEFAULT_SPEC,
                    route: str = "general") -> float:
    """Closed-form value of the determinant ratio at q: one row of the table
    in the module docstring.

    route="zero" selects the specialized z = 0 representation for
    (beta, L) = (2, 2); it agrees with the general route to ~1e-8 and
    exists as an independent cross-check.
    """
    n, a, p = q.n, abs(complex(q.z)) ** 2, q.p
    if route == "zero":
        if (q.beta, q.L) != (2, 2) or a != 0.0:
            raise DomainError("route='zero' applies only to (beta, L) = (2, 2) at z = 0")
        return _laplace(p, math.log(n) + specfun.log_gamma(n + 2.0), 0.0, n - 1, 3, spec)
    if route != "general":
        raise DomainError(f"unknown route {route!r}")
    if q.L == 0 and p == 0.0:
        raise DomainError("D^(0) diverges at p = 0: the integrand falls like 1/t")
    if (q.beta, q.L) in ((1, 2), (2, 1)):
        log_b = specfun.log_gamma_bracket(n, a)
    if q.beta == 1:
        log_norm = -0.5 * n * _LN2 - specfun.log_gamma(0.5 * n)
        if q.L == 0:
            return _laplace(p, log_norm, 0.5 * a, 0.5 * n - 1.0, 1, spec)
        return _laplace(p, specfun.log_gamma(n) + log_norm + a, 0.5 * a, 0.5 * n - 1.0, 2,
                        spec, lambda tau, om: log_b(tau))
    if q.L == 0:
        return _laplace(p, -specfun.log_gamma(n), a, n - 1, 1, spec)
    if q.L == 1:
        return _laplace(p, a, a, n - 1, 2, spec, lambda tau, om: log_b(tau))
    # coefficient bundle at order n+1; its normalization Gamma(n+1)Gamma(n)
    # combines with the 1/(n-1)! prefactor into Gamma(n+1)
    _, _, top, g1, g2, g3 = _bracket(n + 1, a)
    return _laplace(p, specfun.log_gamma(n + 1.0) + 2.0 * a + top, a, n - 1, 3, spec,
                    lambda tau, om: np.log(g1 + g2 * om + g3 * om * om))


def detratio_real_l2_p0(n: int, lam: float) -> float:
    """D^{(2)}_{n,1}(lam, 0) in fully closed form (no quadrature over t):

    (2/(2^{n/2} Gamma(n/2))) [e^{lam^2/2} Gamma(n, lam^2)
                              + |lam|^n int_0^{|lam|} e^{-u^2/2} u^{n-1} du]
    """
    n = integer("n", n, 1)
    lam = abs(float(lam))
    a = lam * lam
    ln_norm = _LN2 - 0.5 * n * _LN2 - specfun.log_gamma(0.5 * n)
    term1 = 0.5 * a + specfun.log_gamma_upper(n, a)
    if lam == 0.0:
        return math.exp(ln_norm + term1)
    term2 = n * math.log(lam) + _log_eks_integral(n + 1, lam)
    top = max(term1, term2)
    return math.exp(ln_norm + top) * (math.exp(term1 - top) + math.exp(term2 - top))


def mean_det_sq_real(n: int, lam: float) -> float:
    """<det^2(lam I - G)> over the real Ginibre ensemble:
    lam^{2n} + e^{lam^2} n Gamma(n, lam^2), assembled in log space."""
    n = integer("n", n, 1)
    lam = abs(float(lam))
    a = lam * lam
    term2 = math.log(n) + a + specfun.log_gamma_upper(n, a)
    if lam == 0.0:
        return math.exp(term2)
    term1 = 2.0 * n * math.log(lam)
    top = max(term1, term2)
    return math.exp(top) * (math.exp(term1 - top) + math.exp(term2 - top))
