"""Special functions for the overlap densities: what :mod:`math` lacks.

Log-gamma, erf and erfc come from :mod:`math` (``log_gamma`` only adds the
x > 0 domain check).  This module adds one series kernel, the log of the
truncated gamma integral int_0^T tau^{s-1} e^{-x tau} sum_m c_m (1-tau)^m
dtau with c_m >= 0, into which the overlap densities integrate under
tau = t/(1+t); on it, the regularized upper incomplete gamma Q(n, a) of
integer order, computed as log Q so that it stays finite where Q itself
underflows (a past ~n + 700), accurate to ~1e-13 relative for n up to a few
hundred; the log of the integrand itself at tau = t/(1+t), the form every
overlap density takes (log_tau_form); and the scaled complementary error
function erfcx.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import ensemble
from .errors import DomainError, integer

_SQRT_PI = math.sqrt(math.pi)

erf = math.erf
erfc = math.erfc


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


_BLOCK = 32


def log_lower_integral(s: float, x, T, c=(1.0,)):
    """log int_0^T tau^{s-1} e^{-x tau} sum_m c_m (1-tau)^m dtau, every c_m >= 0.

    s > 0; x >= 0 (finite), 0 < T <= 1 and the leading axes of c (m runs
    along its last axis) broadcast.  With tau = T u and
    1 - tau = (1-T) + T(1-u) the integral is T^s sum_i w_i T^i J_i(xT), where
    w_i = sum_{m>=i} c_m C(m,i) (1-T)^{m-i} and, by Kummer's transformation,
    J_i(y) = int_0^1 u^{s-1} (1-u)^i e^{-yu} du = B(s,i+1) e^{-y} M(i+1, s+i+1, y).
    Every term of every M is positive.  The series run together as running
    products in blocks of _BLOCK terms, rescaled between blocks so that none
    overflows; an element leaves once each of its tails past the peak (below
    a geometric series, as the term ratios y (i+k)/((s+i+k) k) decrease in k)
    is under 1e-17 of its sum, so every element gets the value it has on its
    own.  The elements (the broadcast of x, T and c's leading axes) are taken
    in groups whose (elements x weights x _BLOCK) temporaries fit in
    ensemble.BATCH_BYTES, so memory does not grow with their number.
    """
    x = np.asarray(x, dtype=float)
    T = np.asarray(T, dtype=float)
    c = np.asarray(c, dtype=float)
    if not (s > 0.0 and (c >= 0.0).all() and ((0.0 <= x) & (x < np.inf)).all()
            and ((0.0 < T) & (T <= 1.0)).all()):
        raise DomainError(f"log_lower_integral needs s > 0, c >= 0, finite x >= 0 "
                          f"and 0 < T <= 1 (s = {s})")
    elements = np.broadcast(x, T, c[..., 0])
    group = max(1, ensemble.BATCH_BYTES // (8 * c.shape[-1] * _BLOCK))
    if elements.size <= group:
        out = _log_lower_group(s, x, T, c)
    else:
        out = np.empty(elements.shape)
        # each operand is cut along its own axes only, so the factors of T
        # alone are still computed once per T, not once per element
        for at in _row_groups(out.shape, group):
            out[at] = _log_lower_group(s, *(_rows(v, at, out.ndim + tail)
                                            for v, tail in ((x, 0), (T, 0), (c, 1))))
    return float(out) if out.ndim == 0 else out


def _row_groups(shape, size: int):
    """Index tuples of slices that cut an array of this shape, in C order,
    into pieces of whole trailing rows, at most size (>= 1) elements each."""
    if not shape:
        yield ()
        return
    inner = math.prod(shape[1:])
    if inner > size:
        for a in range(shape[0]):
            for rest in _row_groups(shape[1:], size):
                yield (slice(a, a + 1),) + rest
    else:
        step = size // inner
        for lo in range(0, shape[0], step):
            yield (slice(lo, lo + step),)


def _rows(v: np.ndarray, at, ndim: int) -> np.ndarray:
    """The part of v that broadcasts to the piece `at` of an ndim-axis
    broadcast: v's axes of length 1, and those it lacks, stay whole."""
    pad = ndim - v.ndim
    return v[tuple(a if v.shape[d - pad] > 1 else slice(None)
                   for d, a in enumerate(at) if d >= pad)]


@functools.lru_cache(maxsize=16)
def _binomials(k: int) -> np.ndarray:
    """C(m, q) at row q and column m, 0 <= q, m < k; read-only, as every call shares it."""
    binom = np.array([[math.comb(m, q) for m in range(k)] for q in range(k)])
    binom.flags.writeable = False
    return binom


def _log_lower_group(s: float, x, T, c) -> np.ndarray:
    """log_lower_integral over the broadcast of x, T and c's leading axes, at once."""
    i = np.arange(c.shape[-1])
    j = np.arange(1, _BLOCK + 1)
    y = x * T
    total = np.ones((y.size, i.size))   # M(i+1, s+i+1, xT) in units of e^{log_scale}
    log_scale = np.zeros(y.size)
    live = np.arange(y.size)             # the elements whose series still run
    last = total
    k = 0
    while live.size:
        yl = y.reshape(-1)[live, None]
        ik = i[:, None] + k + j
        run = last[..., None] * np.cumprod(yl[..., None] / (s + ik) * (ik / (k + j)), axis=-1)
        sums = total[live] + run.sum(axis=-1)
        last = run[..., -1]
        k += _BLOCK
        r = yl / (s + i + k + 1) * ((i + k + 1) / (k + 1))   # next ratios; later ones are smaller
        done = ((r < 1.0) & (last * r <= 1e-17 * (1.0 - r) * sums)).all(axis=-1)
        total[live[done]] = sums[done]
        live, sums, last = live[~done], sums[~done], last[~done]
        scale = np.maximum(last.max(axis=-1, keepdims=True), 1.0)
        total[live] = sums / scale
        last = last / scale
        log_scale[live] += np.log(scale[:, 0])
    total = total.reshape(y.shape + i.shape)
    log_scale = log_scale.reshape(y.shape)
    # the docstring's w_i, times T^i and B(s, i+1) = i!/(s (s+1) ... (s+i))
    binom = _binomials(i.size) * c[..., None, :]
    w = (binom * (1.0 - T)[..., None, None] ** np.maximum(i - i[:, None], 0)).sum(axis=-1)
    weighted = w * T[..., None] ** i * np.cumprod(np.maximum(i, 1) / (s + i)) * total
    with np.errstate(divide="ignore"):
        return s * np.log(T) - y + log_scale + np.log(weighted.sum(axis=-1))


def log_reg_gamma_q(n: int, a):
    """log Q(n, a), finite for every finite a >= 0.

    n a positive integer, a finite and >= 0 (scalar or array-like, elementwise).
    For a > n, log of e^{-a} sum_{k<n} a^k/k! from its largest term down; for
    a <= n, log1p(-P) with P = a^n e^{log_lower_integral}/Gamma(n) < 0.64.
    """
    n = integer("n", n, 1)
    a = np.asarray(a, dtype=float)
    if not ((a >= 0.0) & (a < np.inf)).all():   # also rejects NaN
        raise DomainError(f"reg_gamma_q requires finite a >= 0, got {a}")
    out = np.empty(a.shape)
    up = a > n
    if up.any():
        au = a[up]
        # a^{k-1}/(k-1)! relative to the k = n-1 term, for k = n-1 .. 1
        rest = np.cumprod(np.arange(n - 1, 0, -1) / au[:, None], axis=-1).sum(axis=-1)
        out[up] = -au + (n - 1) * np.log(au) - math.lgamma(n) + np.log1p(rest)
    if not up.all():
        al = a[~up]
        with np.errstate(divide="ignore"):
            log_p = n * np.log(al) - math.lgamma(n) + log_lower_integral(n, al, 1.0)
        out[~up] = np.log1p(-np.exp(log_p))
    return float(out) if out.ndim == 0 else out


def reg_gamma_q(n: int, a) -> float:
    """Regularized upper incomplete gamma Q(n, a) = Gamma(n, a)/Gamma(n).

    n must be a positive integer; a finite and >= 0 (scalar or array-like,
    elementwise).  Q(n, 0) = 1 and Q is monotone decreasing in a.
    """
    log_q = log_reg_gamma_q(n, a)
    return np.exp(log_q) if np.ndim(log_q) else math.exp(log_q)


def log_gamma_upper(n: int, a: float) -> float:
    """log of the (unregularized) upper incomplete gamma Gamma(n, a); finite
    for every finite a >= 0."""
    return log_reg_gamma_q(n, a) + math.lgamma(n)


def log_tau_form(s: float, x, c, t, j: int = 2):
    """log of tau^{s-1} e^{-x tau} (1-tau)^j sum_m c_m (1-tau)^m at tau = t/(1+t).

    t > 0, x and the leading axes of c (m runs along its last axis)
    broadcast; every c_m >= 0, so the sum (Horner's rule in 1 - tau) has
    only positive terms, and is -inf where it is 0.  Each overlap density is
    e^{log_pref} times this form with j = 2, the Jacobian dtau/dt =
    (1-tau)^2, so its integral over t up to T/(1-T) is
    log_lower_integral(s, x, T, c).
    """
    t = np.asarray(t, dtype=float)
    om = 1.0 / (1.0 + t)
    log_om = -np.log1p(t)
    poly = 0.0
    for cm in np.moveaxis(np.asarray(c, dtype=float), -1, 0)[::-1]:
        poly = poly * om + cm
    with np.errstate(divide="ignore"):
        return (s - 1.0) * (np.log(t) + log_om) - x * t * om + j * log_om + np.log(poly)


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

    Decays like 1/(x sqrt(pi)) for large positive x, to 0 at +inf; grows
    like 2 e^{x^2} for negative x (and overflows once x < -26.6, as the true
    value does).  NaN raises DomainError.
    """
    x = float(x)
    if math.isnan(x):
        raise DomainError("erfcx requires a number, got nan")
    if x < 0.0:
        return 2.0 * math.exp(x * x) - erfcx(-x)
    if x < _ERFCX_CROSSOVER:
        return math.exp(x * x) * math.erfc(x)
    return _erfcx_cf(x) if x < math.inf else 0.0
