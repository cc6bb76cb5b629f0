"""Closed-form overlap statistics for the complex Ginibre ensemble.

The finite-N joint density of the self-overlap t = O_zz - 1 and the
eigenvalue z depends on z only through a = |z|^2 and reads

    P(t, z) = e^{a/(1+t)} / (pi (N-1)! (N-2)! (1+t)^3) * tau^{N-2}
              * [ D1 + a D2/(1+t) + a^2 d1/(1+t)^2 ],      tau = t/(1+t)

where d1, d2 are differences of products of upper incomplete gamma
functions of orders N-1..N+2 at a, and D1, D2 are fixed polynomial
combinations of d1, d2 at orders N and N-1.

Numerical strategy: with m = N-2 and f_i = m!/(m-i)!, each weight W is a
double sum of nonnegative terms,

    2 e^{2a} W = sum_{i,j=0..m} f_i f_j a^{2m-i-j} F_W(i, j),

    F_d1 = (i-j)^2 + i + j + 2,
    F_D1 = 4 + 5(i+j) + 2(i+j)^2 + i^3 + j^3 + ij(i-j)^2,
    F_D2 = 8 + 6(i+j) + 5(i-j)^2 + 4ij + (i+j)(i-j)^2,

with every F_W >= 0 for i, j >= 0 (F_d1 follows from d1 = (1/2) int int
(xy)^m (x-y)^2 e^{-x-y} over x, y >= a; all three equal the gamma products
combined exactly in integers, tests/reference.py).  Divided by
Gamma(N) Gamma(N-1), the coefficient of a^k is
sum_{p+q=k} F_W(m-p, m-q) / (2(m+1) p! q!).  _log_weights tabulates the log
of every coefficient once per N in O(N^2) floats; a weight at any a is then
one log-sum-exp over the powers, so nothing cancels, near a ~ N included.

Under tau = t/(1+t) the density is one tau-form with nonnegative weights
(_tau_form), which the density, its integral over t
(:func:`jpd_complex_cumulative`) and the L = 2 determinant ratio read;
over all t it gives back the mean eigenvalue density
(1/pi) e^{-a} sum_{k<N} a^k/k!.  Bulk (z = sqrt(N) w, t = N s) and edge
(|z| = sqrt(N) + delta, t = sqrt(N) sigma) limits are in closed form, and
the perturbation-sensitivity density is the Gaussian-kernel transform of P.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import specfun
from .errors import DomainError, integer, real
from .quadrature import integrate_semi_infinite


# ---------------------------------------------------------------------------
# weights as positive double sums
# ---------------------------------------------------------------------------

def _index_polys(i, j):
    """(F_d1, F_D1, F_D2) at indices i, j (ints or integer arrays)."""
    s, d = i + j, (i - j) ** 2
    return (d + s + 2,
            4 + 5 * s + 2 * s * s + i ** 3 + j ** 3 + i * j * d,
            8 + 6 * s + 5 * d + 4 * i * j + s * d)


@lru_cache(maxsize=256)
def _log_weights(n: int) -> np.ndarray:
    """(3, 2n-3) read-only array: log of the a^k coefficient, k = 0..2n-4, of
    e^{2a} W / (Gamma(n) Gamma(n-1)) for W = d1, D1, D2 (rows)."""
    m, ln2 = n - 2, math.log(2.0)
    p = np.arange(m + 1)
    k = p[:, None] + p
    lg = np.array([math.lgamma(j + 1.0) for j in range(2 * m + 1)])
    # 1/(p! q!) = 2^k/k! times C(k, p)/2^k <= 1, which cannot overflow
    share = np.exp(lg[k] - lg[p][:, None] - lg[p] - ln2 * k)
    sums = [np.bincount(k.ravel(), (f * share).ravel())
            for f in _index_polys(m - p[:, None], m - p)]
    out = np.log(sums) + ln2 * np.arange(2 * m + 1) - lg - math.log(2.0 * (m + 1))
    out.flags.writeable = False
    return out


def _checked_logs(n: int, z_abs_sq):
    """(n, a, logs) for an integer n >= 2 and a = |z|^2 finite and >= 0
    (array-like): logs[w] = log(W / (Gamma(n) Gamma(n-1))) at a, for
    W = d1, D1, D2, each of a's shape."""
    n = integer("n", n, 2)
    a = np.asarray(real("|z|^2", z_abs_sq, 0.0))
    table = _log_weights(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = table + np.arange(table.shape[1]) * np.log(a)[..., None, None]
    terms[..., 0] = table[:, 0]                               # a^0 = 1, also at a = 0
    top = terms.max(axis=-1)
    logs = top + np.log(np.exp(terms - top[..., None]).sum(axis=-1)) - 2.0 * a[..., None]
    return n, a, np.moveaxis(logs, -1, 0)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def _tau_form(n: int, z_abs_sq):
    """(log_pref, s, x, c): P(t, z) = e^{log_pref + specfun.log_tau_form(s, x, c, t)}
    at order n >= 2, with s = n - 1, x = a = |z|^2 (array-like; c has a's
    shape + (4,)) and c = (0, g1, g2, g3), so that

        P = e^{log_pref} tau^{n-2} e^{-a tau} (1-tau)^2
            [g1 (1-tau) + g2 (1-tau)^2 + g3 (1-tau)^3],

    where g1, g2, g3 are D1, a D2, a^2 d1 over Gamma(n) Gamma(n-1) e^{top},
    top the largest of the three weight logs, and log_pref = top + a - ln pi."""
    n, a, (l_d1, l_D1, l_D2) = _checked_logs(n, z_abs_sq)
    top = np.maximum(np.maximum(l_d1, l_D1), l_D2)
    c = np.stack([np.zeros_like(a), np.exp(l_D1 - top), a * np.exp(l_D2 - top),
                  a * a * np.exp(l_d1 - top)], axis=-1)
    return top + a - math.log(math.pi), n - 1, a, c


def jpd_complex(n: int, t, z_abs_sq):
    """Joint density P(t, z) of self-overlap and eigenvalue, n >= 2.

    t > 0 and |z|^2 >= 0 broadcast elementwise (z enters only through |z|^2);
    returns float for scalar input.
    """
    log_pref, s, x, c = _tau_form(n, z_abs_sq)
    scalar = np.isscalar(t) and np.isscalar(z_abs_sq)
    out = np.exp(log_pref + specfun.log_tau_form(s, x, c, real("t", t, 0.0, lo_open=True)))
    return float(out) if scalar else out


def jpd_complex_cumulative(n: int, t, z_abs_sq):
    """int_0^t P(u, z) du for t > 0 and |z|^2 >= 0, which broadcast; n >= 2.

    One truncated gamma integral of the tau-form up to t/(1+t), a sum of
    positive terms, in one kernel call for every |z|^2.  Tends to
    density_complex(n, a) as t -> inf.
    """
    n = integer("n", n, 2)
    scalar = np.isscalar(t) and np.isscalar(z_abs_sq)
    t = real("t", t, 0.0, lo_open=True)
    log_pref, s, x, c = _tau_form(n, z_abs_sq)
    out = np.exp(log_pref + specfun.log_lower_integral(s, x, t / (1.0 + t), c))
    return float(out) if scalar else out


def jpd_complex_zero(n: int, t):
    """P(t, z=0) = N(N-1)/pi * t^{N-2}/(1+t)^{N+1}; the z=0 simplification."""
    n = integer("n", n, 2)
    scalar = np.isscalar(t)
    t = real("t", t, 0.0, lo_open=True)
    log_tau = np.log(t) - np.log1p(t)
    logp = (math.log(n) + math.log(n - 1.0) - math.log(math.pi)
            + (n - 2) * log_tau - 3.0 * np.log1p(t))
    out = np.exp(logp)
    return float(out[()]) if scalar else out


def density_complex(n: int, z_abs_sq):
    """Mean eigenvalue density (1/pi) e^{-|z|^2} sum_{k<n} |z|^{2k}/k!, n >= 1."""
    return specfun.reg_gamma_q(n, real("|z|^2", z_abs_sq, 0.0)) / math.pi


def jpd_complex_bulk(s, w_abs):
    """Bulk limit: lim N P(N s, sqrt(N) w) = (1-|w|^2)^2 e^{-(1-|w|^2)/s}/(pi s^3)."""
    s = np.asarray(real("s", s, 0.0, lo_open=True))
    w = np.asarray(real("|w|", w_abs))
    c = 1.0 - w * w
    with np.errstate(over="ignore"):
        val = c * c * np.exp(-c / s) / (math.pi * s**3)
    out = np.where(np.abs(w) < 1.0, val, 0.0)
    return float(out[()]) if out.ndim == 0 else out


def jpd_complex_edge(sigma, delta):
    """Edge limit of the complex joint density at |z| = sqrt(N) + delta,
    elementwise over sigma > 0 and delta; float for scalar input.  sigma is
    capped below at 1e-3 as in the real law; with m = max(sigma, 1), each
    coefficient (degree 2 in sigma) is m^2 times its form in r = sigma/m and
    q = 1/m, and m^2/sigma^5 = q^3 p^5 with p = max(1/sigma, 1): nothing overflows."""
    sigma, delta = real("sigma", sigma, 0.0, lo_open=True), real("delta", delta)
    sigma = np.maximum(sigma, 1e-3)                    # u = 1/sigma <= 1e3
    u = 1.0 / sigma
    q, r, p = np.minimum(u, 1.0), np.minimum(sigma, 1.0), np.maximum(u, 1.0)
    big = q - 2.0 * delta * r                          # (1 - 2 sigma delta)/max(sigma, 1)
    gauss = -big * big / (2.0 * r * r)
    sq2d = math.sqrt(2.0) * delta
    erfc = specfun.erfc(sq2d)
    t1 = (2.0 * r * r - q * big) / math.pi * np.exp(gauss - 2.0 * delta * delta)
    t2 = -(4.0 * delta * r * r - big * (2.0 * delta * q + r)) / math.sqrt(2.0 * math.pi) \
        * erfc * np.exp(gauss)
    # erfcx as in the real law; for delta < 0, 2 delta^2 + gauss = u (2 delta - u/2)
    t3 = 0.5 * (big * big - r * r) * np.where(delta >= 0.0, specfun.erfcx(np.abs(sq2d)), erfc) \
        * erfc * np.exp(np.where(delta >= 0.0, gauss, u * (2.0 * delta - 0.5 * u)))
    out = np.maximum(q * q * q * p * p * p * p * p * (t1 + t2 + t3) / (2.0 * math.pi), 0.0)
    return float(out) if out.ndim == 0 else out


def density_complex_edge(delta):
    """Mean edge density of complex eigenvalues: erfc(sqrt(2) delta)/(2 pi),
    elementwise; float for scalar input."""
    return specfun.erfc(math.sqrt(2.0) * real("delta", delta)) / (2.0 * math.pi)


def sensitivity_density(n: int, w_abs_sq: float, z_abs_sq: float) -> float:
    """Density of the eigenvalue velocity w under an independent Gaussian
    perturbation of the matrix, at spectral location z.

    pi(w, z) = int_0^inf [N/(pi(1+t))] e^{-N|w|^2/(1+t)} P(t, z) dt; it
    integrates over the w-plane to the mean eigenvalue density at z.
    """
    n = integer("n", n, 2)
    w2, z_abs_sq = real("|w|^2", w_abs_sq, 0.0), real("|z|^2", z_abs_sq, 0.0)
    for name, v in (("|w|^2", w2), ("|z|^2", z_abs_sq)):
        if np.ndim(v):   # the quadrature below takes one point at a time
            raise DomainError(f"{name} must be a finite real number, got shape {v.shape}")
    log_pref, s, x, c = _tau_form(n, z_abs_sq)   # P(t, z) as jpd_complex forms it

    def integrand(t):
        om = 1.0 / (1.0 + t)
        return n / math.pi * om * np.exp(log_pref - n * w2 * om + specfun.log_tau_form(s, x, c, t))

    return integrate_semi_infinite(integrand)[0]
