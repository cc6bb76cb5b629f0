"""Closed-form overlap statistics for real eigenvalues of the real Ginibre ensemble.

The central object is the joint density P(t, lambda) of the self-overlap
t = O_ll - 1 of the bi-orthogonal eigenvector pair belonging to a real
eigenvalue lambda of an N x N matrix with i.i.d. N(0,1) entries.  Two
algebraically equivalent finite-N expressions are provided:

* ``form="sum"``: a manifestly positive k-sum,

      P = e^{-(l^2/2)(1 + tau)} t^{(N-3)/2} (1+t)^{-(N+1)/2} / (2 sqrt(2 pi))
          * sum_{k<N} (l^{2k}/k!) [(N-1-k) + k/(1+t)],   tau = t/(1+t)

* ``form="gamma"``: a two-term bracket of regularized incomplete gammas.

Under tau = t/(1+t) its integral over t is a sum of two truncated gamma
integrals (:func:`jpd_real_cumulative`); over all t it recovers the mean
density of real eigenvalues (Edelman/Kostlan/Shub), :func:`density_real`.
Bulk (lambda = sqrt(N) x, t = N s) and edge (lambda = sqrt(N) + delta,
t = sqrt(N) sigma) scaling limits are provided in closed form.

The overlap variable is maximally heavy tailed: P ~ t^{-2} for large t, so
every positive integer moment diverges.
"""

from __future__ import annotations

import math

import numpy as np

from . import specfun
from .errors import DomainError, integer

_C0 = 1.0 / (2.0 * math.sqrt(2.0 * math.pi))
_LN_C0 = math.log(_C0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _as_t(t) -> np.ndarray:
    """The overlap variable as a float array; every entry must be finite and > 0."""
    tb = np.asarray(t, dtype=float)
    if not ((tb > 0.0) & (tb < np.inf)).all():   # also rejects NaN
        raise DomainError("overlap variable t must be finite and > 0")
    return tb


def _as_flat(t, lam):
    t = _as_t(t)
    lam = np.asarray(lam, dtype=float)
    shape = np.broadcast_shapes(t.shape, lam.shape)
    tb = np.broadcast_to(t, shape).astype(float).ravel()
    lb = np.broadcast_to(lam, shape).astype(float).ravel()
    return tb, lb, shape


def _restore(flat, shape, scalar):
    out = flat.reshape(shape)
    return float(out[()]) if scalar else out


def jpd_real(n: int, t, lam, form: str = "gamma"):
    """Joint density P(t, lambda) for a size-n real Ginibre matrix, n >= 2.

    t > 0 and lambda broadcast elementwise; returns float for scalar input.
    Both forms agree to ~1e-13 relative; "gamma" is the default evaluator,
    "sum" is the manifestly positive cross-check.
    """
    n = integer("n", n, 2)
    scalar = np.isscalar(t) and np.isscalar(lam)
    tb, lb, shape = _as_flat(t, lam)
    a = lb * lb
    tau = tb / (1.0 + tb)
    log_pref = (_LN_C0 + 0.5 * (n - 3) * np.log(tb)
                - 0.5 * (n + 1) * np.log1p(tb))

    if form == "gamma":
        # Q depends on lambda alone: the bracket evaluates it once per lambda
        log_b = specfun.log_gamma_bracket(n - 1, np.asarray(lam, dtype=float) ** 2)
        out = np.exp(log_pref + a / (2.0 * (1.0 + tb)) + log_b(tau.reshape(shape)).ravel())
    elif form == "sum":
        k = np.arange(n, dtype=float)
        lgk = np.array([specfun.log_gamma(kk + 1.0) for kk in k])
        with np.errstate(divide="ignore", invalid="ignore"):
            log_a = np.where(a > 0.0, np.log(a), -np.inf)
            log_u = k[:, None] * log_a[None, :] - lgk[:, None]   # (n, M)
        log_u[0, :] = 0.0                                        # k = 0 term is 1 even at a = 0
        m = np.max(log_u, axis=0)
        weights = (n - 1.0 - k)[:, None] + k[:, None] / (1.0 + tb)[None, :]
        s = np.sum(np.exp(log_u - m[None, :]) * weights, axis=0)
        logp = log_pref - 0.5 * a * (1.0 + tau) + m + np.log(np.maximum(s, 0.0))
        out = np.where(s > 0.0, np.exp(logp), 0.0)
    else:
        raise DomainError(f"unknown form {form!r}, expected 'sum' or 'gamma'")
    return _restore(out, shape, scalar)


def jpd_real_cumulative(n: int, t, lam):
    """int_0^t P(u, lambda) du for t > 0 and lambda, which broadcast; n >= 2.

    Under tau = u/(1+u), P du = C0 e^{a/2} tau^{(n-3)/2} e^{-a tau/2}
    [(n-1) Q_n(a) - a tau Q_{n-1}(a)] dtau with a = lambda^2: two truncated
    gamma integrals I_s(a/2, t/(1+t)), combined in log space (the difference
    loses at most about a digit past the edge).  Tends to density_real(n,
    lambda) as t -> inf.
    """
    n = integer("n", n, 2)
    scalar = np.isscalar(t) and np.isscalar(lam)
    tb = _as_t(t)
    a = np.asarray(lam, dtype=float) ** 2
    tau = tb / (1.0 + tb)
    log_pos = (math.log(n - 1) + specfun.log_reg_gamma_q(n, a)
               + specfun.log_lower_integral(0.5 * (n - 1), 0.5 * a, tau))
    with np.errstate(divide="ignore"):
        log_neg = (np.log(a) + specfun.log_reg_gamma_q(n - 1, a)
                   + specfun.log_lower_integral(0.5 * (n + 1), 0.5 * a, tau))
    out = np.exp(_LN_C0 + 0.5 * a + log_pos + np.log(-np.expm1(log_neg - log_pos)))
    return float(out) if scalar else out


def _log_eks_integral(n: int, lam_abs):
    """log of int_0^|lambda| e^{-u^2/2} u^{n-2} du = (|lambda|^{n-1}/2) I_{(n-1)/2}(lambda^2/2, 1),
    elementwise; -inf at lambda = 0."""
    lam_abs = np.asarray(lam_abs, dtype=float)
    with np.errstate(divide="ignore"):
        out = ((n - 1) * np.log(lam_abs) - math.log(2.0)
               + specfun.log_lower_integral(0.5 * (n - 1), 0.5 * lam_abs * lam_abs, 1.0))
    return float(out) if np.ndim(out) == 0 else out


def density_real(n: int, lam):
    """Mean density of real eigenvalues of a size-n real Ginibre matrix.

    Even in lambda; equals 1/sqrt(2 pi) at lambda = 0 for every n >= 2, and
    integrates over the real line to the expected number of real eigenvalues.
    Elementwise over lambda; returns float for scalar input.
    """
    n = integer("n", n, 2)
    lam_abs = np.abs(np.asarray(lam, dtype=float))
    a = lam_abs * lam_abs
    term1 = specfun.reg_gamma_q(n - 1, a) / _SQRT_2PI
    with np.errstate(divide="ignore"):
        log_t2 = ((n - 1) * np.log(lam_abs) - 0.5 * a + _log_eks_integral(n, lam_abs)
                  - specfun.log_gamma(float(n - 1)) - math.log(_SQRT_2PI))
    out = term1 + np.exp(log_t2)
    return float(out) if np.ndim(out) == 0 else out


def jpd_real_bulk(s, x):
    """Bulk scaling limit of P: lim N P(N s, sqrt(N) x); zero for |x| >= 1."""
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    if not (np.all(s > 0.0) and np.all(np.abs(x) >= 0.0)):   # also rejects NaN
        raise DomainError("bulk overlap s must be > 0 and x a number")
    c = 1.0 - x * x
    with np.errstate(over="ignore"):
        val = _C0 * c * np.exp(-c / (2.0 * s)) / (s * s)
    out = np.where(np.abs(x) < 1.0, val, 0.0)
    return float(out[()]) if out.ndim == 0 else out


def _edge_real_scalar(sigma: float, delta: float) -> float:
    if not (sigma > 0.0 and abs(delta) >= 0.0):   # also rejects NaN
        raise DomainError(f"edge needs sigma > 0 and a number delta, got ({sigma}, {delta})")
    expo = -0.25 / (sigma * sigma) + delta / sigma
    t1 = math.exp(expo - 2.0 * delta * delta) / _SQRT_2PI
    coef = 0.5 * (1.0 / sigma - 2.0 * delta)
    if delta >= 0.0:
        # erfc = erfcx * e^{-2 delta^2}: keeps the product from underflowing early
        t2 = coef * specfun.erfcx(math.sqrt(2.0) * delta) * math.exp(expo - 2.0 * delta * delta)
    else:
        t2 = coef * specfun.erfc(math.sqrt(2.0) * delta) * math.exp(expo)
    return max(_C0 / (sigma * sigma) * (t1 + t2), 0.0)


def jpd_real_edge(sigma, delta):
    """Edge scaling limit of P: lim sqrt(N) P(sqrt(N) sigma, sqrt(N) + delta)."""
    if np.isscalar(sigma) and np.isscalar(delta):
        return _edge_real_scalar(float(sigma), float(delta))
    elementwise = np.vectorize(lambda s, d: _edge_real_scalar(float(s), float(d)), otypes=[float])
    return elementwise(sigma, delta)


def density_real_edge(delta) -> float:
    """Mean density of real eigenvalues at the spectral edge.

    (1/(2 sqrt(2 pi))) [erfc(delta sqrt(2)) + e^{-delta^2}(1 + erf(delta))/sqrt(2)];
    tends to the bulk value 1/sqrt(2 pi) as delta -> -inf and to 0 as delta -> +inf.
    """
    d = float(delta)
    if math.isnan(d):
        raise DomainError("edge offset delta must be a number")
    first = specfun.erfc(math.sqrt(2.0) * d)
    if d >= 0.0:
        second = math.exp(-d * d) * (1.0 + specfun.erf(d)) / math.sqrt(2.0)
    else:
        # 1 + erf(d) = erfc(-d): no cancellation for very negative d
        second = math.exp(-d * d) * specfun.erfc(-d) / math.sqrt(2.0)
    return _C0 * (first + second)
