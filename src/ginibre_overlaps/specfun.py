"""Special functions for the overlap densities: what :mod:`math` lacks.

Log-gamma, erf and erfc come from :mod:`math` (``log_gamma`` only adds the
x > 0 domain check).  This module adds the regularized upper incomplete
gamma Q(n, a) of integer order, computed as log Q so that it stays finite
where Q itself underflows (a past ~n + 700), accurate to ~1e-13 relative
for n up to a few hundred; the bracket m Q_{m+1}(a) - a tau Q_m(a) that the
real overlap density and two determinant ratios share, in the same log
space; the scaled complementary error function erfcx; and the log of the
truncated gamma integral int_0^T tau^{s-1} e^{-x tau} dtau, into which the
overlap densities integrate under tau = t/(1+t).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_SQRT_PI = math.sqrt(math.pi)

erf = math.erf
erfc = math.erfc


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _upper_tail_sum(n: int, a: float) -> float:
    """log Q(n, a) for a > n: the finite sum e^{-a} sum_{k<n} a^k/k! evaluated
    from its largest term downward, with the common scale kept in log space."""
    # largest term is k = n-1 because a^k/k! is increasing while k < a
    log_top = -a + (n - 1) * math.log(a) - math.lgamma(n)
    terms = [1.0]
    for k in range(n - 1, 0, -1):
        terms.append(terms[-1] * (k / a))
        if terms[-1] < 1e-18:
            break
    return log_top + math.log(math.fsum(terms))


def _lower_series(n: int, a: float) -> float:
    """P(n, a) = gamma(n, a)/Gamma(n) by the ascending series; good for a <= n.

    The scalar case of log_lower_integral (P = a^n I_n(a, 1)/Gamma(n)) as a
    plain loop, about ten times faster per call than the numpy kernel."""
    log_lead = n * math.log(a) - a - math.lgamma(n + 1.0)
    terms = [1.0]
    for j in range(1, 10_001):
        terms.append(terms[-1] * (a / (n + j)))
        if terms[-1] < 1e-17:
            break
    return math.exp(log_lead + math.log(math.fsum(terms)))


_BLOCK = 32


def log_lower_integral(s: float, x, T):
    """log I_s(x, T) = log int_0^T tau^{s-1} e^{-x tau} dtau = log(x^{-s} gamma(s, xT)).

    s > 0; x >= 0 (finite) and 0 < T <= 1 broadcast.  Sums the ascending
    series T^s e^{-xT} sum_j (xT)^j / (s (s+1) ... (s+j)), whose terms are all
    positive, as running products in blocks, rescaled between blocks so that
    none overflows, until the tail past the peak (below a geometric series)
    is under 1e-17 of the sum.
    """
    x = np.asarray(x, dtype=float)
    T = np.asarray(T, dtype=float)
    if not (s > 0.0 and np.all(np.isfinite(x) & (x >= 0.0)) and np.all((T > 0.0) & (T <= 1.0))):
        raise DomainError(f"log_lower_integral needs s > 0, finite x >= 0, 0 < T <= 1 (s = {s})")
    y = x * T
    total = np.ones(y.shape)        # sum_j y^j / ((s+1)...(s+j)) in units of e^{log_scale}
    last = np.ones(y.shape)
    log_scale = np.zeros(y.shape)
    j = 1
    while True:
        run = last[..., None] * np.cumprod(y[..., None] / (s + np.arange(j, j + _BLOCK)), axis=-1)
        total += run.sum(axis=-1)
        last = run[..., -1]
        j += _BLOCK
        r = y / (s + j)             # the next ratio; later ones are smaller
        if np.all((r < 1.0) & (last * r <= 1e-17 * (1.0 - r) * total)):
            break
        scale = np.where(last > 1.0, last, 1.0)
        total /= scale
        last /= scale
        log_scale += np.log(scale)
    out = s * np.log(T) - y - math.log(s) + log_scale + np.log(total)
    return float(out) if out.ndim == 0 else out


def log_reg_gamma_q(n: int, a):
    """log Q(n, a), finite for every finite a >= 0.

    n must be a positive integer; a >= 0 (scalar or array-like, applied
    elementwise).
    """
    if n < 1 or int(n) != n:
        raise DomainError(f"reg_gamma_q requires integer n >= 1, got {n}")
    if np.ndim(a) > 0:
        arr = np.asarray(a, dtype=float)
        flat = [log_reg_gamma_q(n, ai) for ai in arr.ravel().tolist()]
        return np.array(flat, dtype=float).reshape(arr.shape)
    a = float(a)
    if not a >= 0.0:   # also rejects NaN
        raise DomainError(f"reg_gamma_q requires a >= 0, got {a}")
    if a == 0.0:
        return 0.0
    if a > n:
        return _upper_tail_sum(int(n), a)
    return math.log1p(-_lower_series(int(n), a))   # P(n, a) < 0.64 for a <= n


def reg_gamma_q(n: int, a) -> float:
    """Regularized upper incomplete gamma Q(n, a) = Gamma(n, a)/Gamma(n).

    n must be a positive integer; a >= 0 (scalar or array-like, applied
    elementwise).  Q(n, 0) = 1 and Q is monotone decreasing in a.
    """
    log_q = log_reg_gamma_q(n, a)
    return np.exp(log_q) if np.ndim(log_q) else math.exp(log_q)


def log_gamma_upper(n: int, a: float) -> float:
    """log of the (unregularized) upper incomplete gamma Gamma(n, a); finite
    for every finite a >= 0."""
    return log_reg_gamma_q(n, a) + math.lgamma(n)


def log_gamma_bracket(m: int, a):
    """tau -> log B_m(a, tau), B_m = m Q_{m+1}(a) - a tau Q_m(a) =
    [Gamma(m+1, a) - a tau Gamma(m, a)]/Gamma(m), positive for 0 <= tau <= 1.

    Q is evaluated here, once per a (scalar or array; tau broadcasts against
    it).  As log Q_m + log(m Q_{m+1}/Q_m - a tau) it stays finite where Q
    underflows; it is -inf where the bracket rounds to <= 0.
    """
    log_qm = log_reg_gamma_q(m, a)
    ratio = m * np.exp(log_reg_gamma_q(m + 1, a) - log_qm)

    def log_b(tau):
        b = ratio - a * tau
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(b > 0.0, log_qm + np.log(b), -np.inf)

    return log_b


def _erfcx_cf(x: float) -> float:
    """Scaled complementary error function by the Laplace continued fraction.

    erfcx(x) = (1/sqrt(pi)) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...)))),
    accurate for x >= ~1.5.  Modified Lentz evaluation.
    """
    tiny = 1e-300
    f = x if x != 0.0 else tiny
    c = f
    d = 0.0
    for k in range(1, 300):
        ak = 0.5 * k
        d = x + ak * d
        if d == 0.0:
            d = tiny
        c = x + ak / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return 1.0 / (_SQRT_PI * f)


_ERFCX_CROSSOVER = 1.5


def erfcx(x: float) -> float:
    """Scaled complementary error function e^{x^2} erfc(x).

    Decays like 1/(x sqrt(pi)) for large positive x; grows like 2 e^{x^2}
    for negative x (and overflows once x < -26.6, as the true value does).
    """
    x = float(x)
    if x < 0.0:
        return 2.0 * math.exp(x * x) - erfcx(-x)
    if x < _ERFCX_CROSSOVER:
        return math.exp(x * x) * math.erfc(x)
    return _erfcx_cf(x)
