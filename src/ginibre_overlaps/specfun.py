"""Special functions for the overlap densities: what :mod:`math` lacks.

Log-gamma, erf and erfc come from :mod:`math`; ``log_gamma`` and ``erfc``
apply it to each entry of an array, with its bits, after the domain rule
errors.real (finite x > 0 for ``log_gamma``), which each function here but
erf and the integrand log_tau_form applies to its real arguments.  This
module adds one series kernel, the log of the truncated gamma integral
int_0^T tau^{s-1} e^{-x tau} sum_m c_m (1-tau)^m dtau with c_m >= 0, into
which the overlap densities integrate under tau = t/(1+t); on it, the
regularized upper incomplete gamma Q(n, a) of integer order, computed as
log Q so that it stays finite where Q itself underflows (a past ~n + 700),
accurate to ~1e-13 relative for n up to a few hundred; the log of the
integrand itself at tau = t/(1+t), the form every overlap density takes
(log_tau_form); and the scaled complementary error function erfcx,
elementwise: e^{x^2} erfc(x) below a crossover, above it the Laplace
continued fraction, evaluated backward from one fixed depth for every
element.  The kernel's series loop does arithmetic, not bookkeeping: a
block of terms for a flat run of elements at once is a few passes over one
contiguous array, whose runs of terms merge in pairs.
"""

from __future__ import annotations

import math

import numpy as np

from . import ensemble
from .errors import DomainError, integer, real

_SQRT_PI = math.sqrt(math.pi)

erf = math.erf


def _each(f, x):
    """math's f on each entry of a float or float array, with its bits."""
    out = np.frompyfunc(f, 1, 1)(x)
    return out.astype(float) if isinstance(out, np.ndarray) else out


def erfc(x):
    """Complementary error function, elementwise; 2 and 0 at -inf and +inf."""
    return _each(math.erfc, real("x", x, finite=False))


def log_gamma(x):
    """Natural log of the Gamma function for finite x > 0, elementwise."""
    return _each(math.lgamma, real("x", x, 0.0, lo_open=True))


#: series terms per block, a power of 2 (the block's runs of terms merge in
#: pairs); its running products stay finite for y = xT up to ~5e10
_BLOCK = 32


def log_lower_integral(s: float, x, T, c=(1.0,)):
    """log int_0^T tau^{s-1} e^{-x tau} sum_m c_m (1-tau)^m dtau, every c_m >= 0.

    s > 0 finite; x >= 0 finite, 0 < T <= 1 and the leading axes of c (m
    runs along its last axis: at least one weight, each finite) broadcast.
    With tau = T u and 1 - tau = (1-T) + T(1-u) the integral is
    T^s sum_i w_i T^i J_i(xT), where w_i = sum_{m>=i} c_m C(m,i) (1-T)^{m-i}
    (by Horner's rule, a Taylor shift of sum_m c_m w^m to w = 1-T) and, by
    Kummer's transformation,
    J_i(y) = int_0^1 u^{s-1} (1-u)^i e^{-yu} du = B(s,i+1) e^{-y} M(i+1, s+i+1, y).
    Every term of every M is positive.  The series of all elements run
    together in blocks of _BLOCK terms: a block's term ratios fill one
    (terms, weights, elements) array, in which adjacent runs of terms merge
    in pairs, a level at a time and in place, into their sum of running
    products and their product, so a block costs a few passes over
    contiguous rows and about 25 numpy calls, however many elements it
    holds.  Between blocks an element whose last term passed 1 is
    rescaled, its scale kept in log space, so that none overflows; an
    element leaves once each of its tails past the block
    (below a geometric series, as the ratios decrease in k) is under 1e-17
    of its sum.  Every element sees the same operations in the same order,
    so each gets the value it has on its own, bit for bit.  The elements
    (the broadcast of x, T and c's leading axes) are walked in C order in
    groups, gathered from broadcast views, whose block array, _BLOCK floats
    per weight and element, fits in ensemble.BATCH_BYTES, so memory does
    not grow with their number.
    """
    s = real("s", s, 0.0, lo_open=True)
    x = np.asarray(real("x", x, 0.0))
    T = np.asarray(real("T", T, 0.0, 1.0, lo_open=True))
    c = np.asarray(real("c", c, 0.0))
    if not (c.ndim and c.shape[-1]):
        raise DomainError(f"c needs at least one weight, got shape {c.shape}")
    shape = np.broadcast(x, T, c[..., 0]).shape
    n_w = c.shape[-1]
    # flat runs of the broadcast in C order; an element's weights are adjacent
    xs, Ts, cs = (np.broadcast_to(v, shape + tail).flat
                  for v, tail in ((x, ()), (T, ()), (c, (n_w,))))
    out = np.empty(math.prod(shape))
    group = max(1, ensemble.BATCH_BYTES // (8 * n_w * _BLOCK))
    work = np.empty(_BLOCK * n_w * min(group, out.size))
    for lo in range(0, out.size, group):
        hi = lo + group
        out[lo:hi] = _log_lower_group(s, xs[lo:hi], Ts[lo:hi],
                                      cs[lo * n_w:hi * n_w].reshape(-1, n_w), work)
    return float(out[0]) if not shape else out.reshape(shape)


def _log_lower_group(s: float, x, T, c, work: np.ndarray) -> np.ndarray:
    """log_lower_integral at once for a run of elements: x and T hold one
    value each, c one row of weights each; work holds at least _BLOCK floats
    per weight and element."""
    n_w = c.shape[-1]
    i = np.arange(n_w)
    total = np.empty((n_w, len(x)))   # M(i+1, s+i+1, y) in units of e^{log_scale}
    log_scale = np.zeros(len(x))
    live = np.arange(len(x))          # the elements whose series still run
    yl = x * T                        # and their y
    sums, last = np.ones((2, n_w, len(x)))   # weights down, elements along
    k = 0                             # terms summed so far
    while True:
        # the block's term ratios y (i+k)/((s+i+k) k), and the next one; a run
        # of terms stands as (sum of running products, product): two terms
        # a, b give (a + ab, ab), and adjacent runs then merge a level at a
        # time, (Sl, Pl) then (Sr, Pr) giving (Sl + Pl Sr, Pl Pr)
        kj = np.arange(k + 1.0, k + _BLOCK + 2.0)[:, None]
        ikj = kj + i
        ratio = (ikj / ((s + ikj) * kj))[:, :, None]
        terms = work[:_BLOCK * n_w * yl.size].reshape(_BLOCK, n_w, yl.size)
        np.multiply(ratio[:-1], yl, out=terms)
        terms[0] *= last
        runs = terms.reshape(_BLOCK // 2, 2, n_w, yl.size)
        runs[:, 1] *= runs[:, 0]
        runs[:, 0] += runs[:, 1]
        while len(runs) > 1:
            left, runs = runs[0::2], runs[1::2]
            runs *= left[:, 1:]
            runs[:, 0] += left[:, 0]
        sums += runs[0, 0]
        last[...] = runs[0, 1]
        k += _BLOCK
        # for r < 1 the tail past the block is below last r/(1 - r), as the
        # ratios fall with k; an element is done once that is under 1e-17 of
        # its sum for every weight: last r <= tol (1 - r), which r >= 1 fails
        r = ratio[-1] * yl
        tol = 1e-17 * sums
        done = (r * (last + tol) <= tol).all(axis=0)
        if done.all():   # every series has ended, or there were none
            for row, part in zip(total, sums):
                row[live] = part
            break
        if done.any():
            at = live[done]
            for row, part in zip(total, np.compress(done, sums, axis=1)):
                row[at] = part
            keep = ~done
            live, yl = live[keep], yl[keep]
            sums, last = np.compress(keep, sums, axis=1), np.compress(keep, last, axis=1)
        if (last > 1.0).any():   # else every scale is 1, which changes no bit
            scale = np.maximum(last.max(axis=0), 1.0)
            sums = sums / scale
            last = last / scale
            log_scale[live] += np.log(scale)
    # w_i of the docstring (a Taylor shift of sum_m c_m w^m to 1 - T, by
    # Horner's rule, all terms >= 0), then sum_i w_i T^i B(s, i+1) M_i by
    # Horner's rule in T, with B(s, i+1) = i!/(s (s+1) ... (s+i))
    om = 1.0 - T
    w = list(c.T)
    for lo in range(n_w - 1):
        for m in range(n_w - 2, lo - 1, -1):
            w[m] = w[m] + om * w[m + 1]
    beta = [1.0 / s]
    for m in range(1, n_w):
        beta.append(beta[-1] * m / (s + m))
    acc = 0.0
    for m in range(n_w - 1, -1, -1):
        acc = acc * T + w[m] * beta[m] * total[m]
    with np.errstate(divide="ignore"):
        return s * np.log(T) - x * T + log_scale + np.log(acc)


def log_reg_gamma_q(n: int, a):
    """log Q(n, a), finite for every finite a >= 0.

    n a positive integer, a finite and >= 0 (scalar or array-like, elementwise).
    For a > n, log of e^{-a} sum_{k<n} a^k/k! from its largest term down; for
    a <= n, log1p(-P) with P = a^n e^{log_lower_integral}/Gamma(n) < 0.64.
    """
    n = integer("n", n, 1)
    a = np.asarray(real("a", a, 0.0))
    out = np.empty(a.shape)
    up = a > n
    if up.any():
        au = a[up]
        # sum_{k<n-1} a^k/k! relative to the k = n-1 term, by Horner's rule:
        # (n-1)/a (1 + (n-2)/a (1 + ... (1 + 1/a)))
        rest = 0.0
        for k in range(1, n):
            rest = k / au * (1.0 + rest)
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


#: where erfcx switches from e^{x^2} erfc(x) to the continued fraction, and
#: the fraction's depth: both sides are within ~7e-16 relative there
_ERFCX_CROSSOVER, _ERFCX_DEPTH = 2.5, 40


def erfcx(x):
    """Scaled complementary error function e^{x^2} erfc(x), elementwise.

    e^{x^2} erfc(|x|) for |x| < _ERFCX_CROSSOVER, else the Laplace continued
    fraction (1/sqrt(pi)) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...)))), taken
    backward from one depth for every element, so that an array gives each
    element's scalar value bit for bit; 2 e^{x^2} - erfcx(|x|) for x < 0.
    0 at +inf; inf once x < -26.6, where the true value overflows; NaN raises
    DomainError.
    """
    x = real("x", x, finite=False)
    ax = np.abs(x)
    # each branch runs on every element, at an argument kept inside its range
    near, far = np.minimum(ax, _ERFCX_CROSSOVER), np.maximum(ax, _ERFCX_CROSSOVER)
    frac = far
    for k in range(_ERFCX_DEPTH, 0, -1):
        frac = far + 0.5 * k / frac
    out = np.where(ax < _ERFCX_CROSSOVER, np.exp(near * near) * _each(math.erfc, near),
                   1.0 / (_SQRT_PI * frac))
    with np.errstate(over="ignore"):
        out = np.where(x < 0.0, 2.0 * np.exp(x * x) - out, out)
    return float(out) if out.ndim == 0 else out
