"""Closed-form overlap statistics for real eigenvalues of the real Ginibre ensemble.

The central object is the joint density P(t, lambda) of the self-overlap
t = O_ll - 1 of the bi-orthogonal eigenvector pair belonging to a real
eigenvalue lambda of an N x N matrix with i.i.d. N(0,1) entries:

    P = e^{-(l^2/2)(1 + tau)} t^{(N-3)/2} (1+t)^{-(N+1)/2} / (2 sqrt(2 pi))
        * sum_{k<N} (l^{2k}/k!) [(N-1-k) + k/(1+t)],   tau = t/(1+t).

Under tau it is one tau-form (_tau_form): C0 e^{a/2} tau^{(N-3)/2}
e^{-a tau/2} [c0 + c1 (1-tau)] dtau with a = lambda^2, where
c0 = e^{-a} sum_k (N-1-k) a^k/k! and c1 = e^{-a} sum_k k a^k/k! are sums
of positive terms, so no evaluation subtracts.  The density, its integral
over t (:func:`jpd_real_cumulative`) and two determinant ratios
(:mod:`detratio`) all read that form; at T = 1 (all t) it is the mean
density of real eigenvalues, :func:`density_real` (Edelman/Kostlan/Shub).
Bulk (lambda = sqrt(N) x, t = N s) and edge (lambda = sqrt(N) + delta,
t = sqrt(N) sigma) scaling limits are provided in closed form.

The overlap variable is maximally heavy tailed: P ~ t^{-2} for large t, so
every positive integer moment diverges.
"""

from __future__ import annotations

import math

import numpy as np

from . import specfun
from .errors import integer, real

_C0 = 1.0 / (2.0 * math.sqrt(2.0 * math.pi))
_LN_C0 = math.log(_C0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
#: largest |lambda| whose square is a finite double
_LAM_MAX = math.sqrt(np.finfo(float).max)


def _tau_form(n: int, a):
    """(log_pref, s, x, c): P(t, lambda) = e^{log_pref + specfun.log_tau_form(s, x, c, t)}
    at order n >= 2, with a = lambda^2 (array-like; c has a's shape + (2,)).

    c0 and c1 (see the module docstring) are each one log-sum-exp over k,
    scaled by the largest term of the two, which log_pref carries.
    """
    a = np.asarray(a, dtype=float)
    k = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_u = k * np.log(a)[..., None] - np.array([math.lgamma(j + 1.0) for j in k])
        log_u[..., 0] = 0.0                                   # a^0/0! = 1, also at a = 0
        terms = log_u[..., None, :] + np.log([n - 1.0 - k, k])   # (..., 2, n)
    top = terms.max(axis=(-2, -1))
    c = np.exp(terms - top[..., None, None]).sum(axis=-1)
    return _LN_C0 - 0.5 * a + top, 0.5 * (n - 1), 0.5 * a, c


def jpd_real(n: int, t, lam):
    """Joint density P(t, lambda) for a size-n real Ginibre matrix, n >= 2.

    t > 0 and lambda broadcast elementwise; returns float for scalar input.
    """
    n = integer("n", n, 2)
    scalar = np.isscalar(t) and np.isscalar(lam)
    t, lam = real("t", t, 0.0, lo_open=True), real("lambda", lam, -_LAM_MAX, _LAM_MAX)
    log_pref, s, x, c = _tau_form(n, lam * lam)
    out = np.exp(log_pref + specfun.log_tau_form(s, x, c, t))
    return float(out) if scalar else out


def jpd_real_cumulative(n: int, t, lam):
    """int_0^t P(u, lambda) du for t > 0 and lambda, which broadcast; n >= 2.

    One truncated gamma integral of the tau-form up to t/(1+t), a sum of
    positive terms.  Tends to density_real(n, lambda) as t -> inf.
    """
    n = integer("n", n, 2)
    scalar = np.isscalar(t) and np.isscalar(lam)
    t, lam = real("t", t, 0.0, lo_open=True), real("lambda", lam, -_LAM_MAX, _LAM_MAX)
    log_pref, s, x, c = _tau_form(n, lam * lam)
    out = np.exp(log_pref + specfun.log_lower_integral(s, x, t / (1.0 + t), c))
    return float(out) if scalar else out


def density_real(n: int, lam):
    """Mean density of real eigenvalues of a size-n real Ginibre matrix: the
    real tau-form at T = 1 (P over all t), one truncated gamma integral whose
    value is the closed form of Edelman, Kostlan and Shub (J. AMS 7 (1994) 247).

    Even in lambda; equals 1/sqrt(2 pi) at lambda = 0 for every n >= 2, and
    integrates over the real line to the expected number of real eigenvalues.
    Elementwise over lambda; returns float for scalar input."""
    n = integer("n", n, 2)
    lam = real("lambda", lam, -_LAM_MAX, _LAM_MAX)
    log_pref, s, x, c = _tau_form(n, lam * lam)
    out = np.exp(log_pref + specfun.log_lower_integral(s, x, 1.0, c))
    return float(out) if np.ndim(out) == 0 else out


def jpd_real_bulk(s, x):
    """Bulk scaling limit of P: lim N P(N s, sqrt(N) x); zero for |x| >= 1."""
    s = np.asarray(real("s", s, 0.0, lo_open=True))
    x = np.asarray(real("x", x))
    c = 1.0 - x * x
    with np.errstate(over="ignore"):
        val = _C0 * c * np.exp(-c / (2.0 * s)) / (s * s)
    out = np.where(np.abs(x) < 1.0, val, 0.0)
    return float(out[()]) if out.ndim == 0 else out


def jpd_real_edge(sigma, delta):
    """Edge scaling limit of P: lim sqrt(N) P(sqrt(N) sigma, sqrt(N) + delta),
    elementwise over sigma > 0 and delta; float for scalar input.  In u = 1/sigma
    capped at 1e3, past which each term is below e^{-u^2/8}, 0 in double: no
    power of u overflows, and every finite sigma > 0 gives a finite value."""
    sigma, delta = real("sigma", sigma, 0.0, lo_open=True), real("delta", delta)
    u = 1.0 / np.maximum(sigma, 1e-3)
    expo = u * (delta - 0.25 * u)                      # -1/(4 sigma^2) + delta/sigma
    expo2 = expo - 2.0 * delta * delta
    # for delta >= 0, erfc = erfcx e^{-2 delta^2} keeps the product from
    # underflowing early; np.abs keeps erfcx finite where np.where drops it
    sq2d = math.sqrt(2.0) * delta
    t2 = 0.5 * (u - 2.0 * delta) \
        * np.where(delta >= 0.0, specfun.erfcx(np.abs(sq2d)), specfun.erfc(sq2d)) \
        * np.exp(np.where(delta >= 0.0, expo2, expo))
    out = np.maximum(_C0 * u * u * (np.exp(expo2) / _SQRT_2PI + t2), 0.0)
    return float(out) if out.ndim == 0 else out


def density_real_edge(delta):
    """Mean density of real eigenvalues at the spectral edge.

    (1/(2 sqrt(2 pi))) [erfc(delta sqrt(2)) + e^{-delta^2} erfc(-delta)/sqrt(2)],
    with erfc(-delta) = 1 + erf(delta) free of cancellation for every delta;
    tends to the bulk value 1/sqrt(2 pi) as delta -> -inf and to 0 as delta -> +inf.
    Elementwise; float for scalar input.
    """
    d = real("delta", delta)
    out = _C0 * (specfun.erfc(math.sqrt(2.0) * d)
                 + np.exp(-d * d) * specfun.erfc(-d) / math.sqrt(2.0))
    return float(out) if np.ndim(out) == 0 else out
