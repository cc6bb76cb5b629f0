"""Closed-form overlap statistics for the complex Ginibre ensemble.

The finite-N joint density of the self-overlap t = O_zz - 1 and the
eigenvalue z depends on z only through a = |z|^2 and reads

    P(t, z) = e^{a/(1+t)} / (pi (N-1)! (N-2)! (1+t)^3) * tau^{N-2}
              * [ D1 + a D2/(1+t) + a^2 d1/(1+t)^2 ],      tau = t/(1+t)

where d1, d2 are differences of products of upper incomplete gamma
functions of orders N-1..N+2 at a, and D1, D2 are fixed polynomial
combinations of d1, d2 at orders N and N-1.

Numerical strategy: each of d1, d2, D1, D2 equals e^{-2a} times a
polynomial in a whose coefficients are *nonnegative integers* once the
gamma products are combined exactly.  The implementation builds those
integer polynomials once per N and evaluates them as positive log-sums,
which removes the catastrophic cancellation the naive gamma-product form
suffers near a ~ N, at every N, with no extended precision needed.

Under tau = t/(1+t) it is one tau-form (_tau_form): e^{top+a}/pi
tau^{N-2} e^{-a tau} (1-tau)^2 [g1 (1-tau) + g2 (1-tau)^2 + g3 (1-tau)^3]
with nonnegative weights, which the density, its integral over t
(:func:`jpd_complex_cumulative`) and the L = 2 determinant ratio read;
over all t it gives back the mean eigenvalue density
(1/pi) e^{-a} sum_{k<N} a^k/k!.  Bulk (z = sqrt(N) w, t = N s) and edge
(|z| = sqrt(N) + delta, t = sqrt(N) sigma) limits are in closed form, and
the perturbation-sensitivity density is the Gaussian-kernel transform of P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from .analytic_real import _as_t
from .errors import DomainError, integer
from .quadrature import DEFAULT_SPEC, QuadSpec, integrate_semi_infinite


# ---------------------------------------------------------------------------
# integer polynomial kernel
# ---------------------------------------------------------------------------

def _poly_upper(n: int) -> list[int]:
    """Coefficients of P_n with Gamma(n, a) = e^{-a} P_n(a); all integers."""
    f = math.factorial(n - 1)
    return [f // math.factorial(k) for k in range(n)]


def _pmul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, ci in enumerate(p):
        if ci:
            for j, cj in enumerate(q):
                out[i + j] += ci * cj
    return out


def _paxpy(out, p, scale, shift=0):
    if len(out) < len(p) + shift:
        out.extend([0] * (len(p) + shift - len(out)))
    for i, c in enumerate(p):
        out[i + shift] += scale * c
    return out


@lru_cache(maxsize=256)
def _d_polys(n: int):
    """Integer polynomials p1, p2 with d1 = e^{-2a} p1(a), d2 = e^{-2a} p2(a)."""
    pm, pn = _poly_upper(n - 1), _poly_upper(n)
    pp, pq = _poly_upper(n + 1), _poly_upper(n + 2)
    p1 = [x - y for x, y in _zip_pad(_pmul(pm, pp), _pmul(pn, pn))]
    p2 = [x - y for x, y in _zip_pad(_pmul(pm, pq), _pmul(pn, pp))]
    return tuple(p1), tuple(p2)


def _zip_pad(p, q):
    m = max(len(p), len(q))
    return zip(p + [0] * (m - len(p)), q + [0] * (m - len(q)))


@lru_cache(maxsize=256)
def _big_polys(n: int):
    """Integer polynomials for D1, D2 at order n (consuming order n-1 inside)."""
    p1n, p2n = _d_polys(n)
    if n >= 3:
        p1m, p2m = _d_polys(n - 1)
    else:
        p1m, p2m = (0,), (0,)
    d1 = []
    _paxpy(d1, list(p1m), (n - 1) * (n - 2), shift=2)          # a^2 (N-1)(N-2) d1^{(N-1)}
    _paxpy(d1, list(p1n), (n - 1) * n)                          # (N-1)N d1^{(N)}
    _paxpy(d1, list(p1n), -2 * n, shift=1)                      # -2aN d1^{(N)}
    _paxpy(d1, list(p1n), -2, shift=2)                          # -2a^2 d1^{(N)}
    _paxpy(d1, list(p2m), -(n - 2) * n, shift=1)                # -aN(N-2) d2^{(N-1)}
    _paxpy(d1, list(p2m), (n - 2), shift=2)                     # +a^2(N-2) d2^{(N-1)}
    _paxpy(d1, list(p2n), 1, shift=1)                           # +a d2^{(N)}
    d2 = []
    _paxpy(d2, list(p1n), 2 * n)                                # 2N d1^{(N)}
    _paxpy(d2, list(p2m), -(n - 2), shift=1)                    # -a(N-2) d2^{(N-1)}
    return tuple(d1), tuple(d2)


@lru_cache(maxsize=256)
def _log_tables(n: int):
    """(powers, log coefficients) per quantity, plus exact a=0 normalized values.

    All four combined polynomials have nonnegative coefficients, so their
    values are positive log-sums; violation would mean a bookkeeping bug.
    """
    p1, p2 = _d_polys(n)
    b1, b2 = _big_polys(n)
    tables = []
    for poly in (p1, p2, b1, b2):
        if any(c < 0 for c in poly):
            raise AssertionError(f"negative combined coefficient at n={n}")
        ks = np.array([k for k, c in enumerate(poly) if c > 0], dtype=float)
        lc = np.array([math.log(c) for c in poly if c > 0], dtype=float)
        tables.append((ks, lc))
    gg = math.factorial(n - 1) * math.factorial(n - 2)
    zero_vals = tuple(poly[0] // gg if poly[0] % gg == 0 else poly[0] / gg
                      for poly in (p1, p2, b1, b2))
    return tuple(tables), zero_vals


def _eval_log_poly(table, log_a: float) -> float:
    ks, lc = table
    terms = lc + ks * log_a
    m = float(terms.max())
    return m + math.log(float(np.exp(terms - m).sum()))


@lru_cache(maxsize=2048)
def _normalized_logs(n: int, a: float):
    """Logs of d1, d2, D1, D2 each divided by Gamma(n) Gamma(n-1).

    The -2a exponential factor is included, so these are logs of the true
    normalized coefficient values.
    """
    tables, zero_vals = _log_tables(n)
    if a == 0.0:
        return tuple(math.log(v) for v in zero_vals)
    log_a = math.log(a)
    lgg = specfun.log_gamma(float(n)) + specfun.log_gamma(float(n - 1))
    return tuple(_eval_log_poly(t, log_a) - 2.0 * a - lgg for t in tables)


# ---------------------------------------------------------------------------
# public coefficient bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoeffBundle:
    """d1, d2, D1, D2 at (n, |z|^2), stored as value * e^{log_scale}.

    The shared log scale keeps every ratio formed before exponentiation;
    the raw values overflow doubles near n ~ 85.
    """

    n: int
    z_abs_sq: float
    log_scale: float
    d1: float
    d2: float
    D1: float
    D2: float

    def unscaled(self):
        """(d1, d2, D1, D2) as plain floats; may overflow for large n."""
        s = math.exp(self.log_scale)
        return self.d1 * s, self.d2 * s, self.D1 * s, self.D2 * s


def _checked_logs(n: int, z_abs_sq: float):
    """(n, a, _normalized_logs(n, a)) for an integer n >= 2 and a = |z|^2
    finite and >= 0."""
    n = integer("n", n, 2)
    a = float(z_abs_sq)
    if not 0.0 <= a < math.inf:   # also rejects NaN
        raise DomainError(f"|z|^2 must be finite and >= 0, got {z_abs_sq}")
    return n, a, _normalized_logs(n, a)


def coeffs(n: int, z_abs_sq: float) -> CoeffBundle:
    """Coefficient bundle of the finite-N joint density at (n, |z|^2)."""
    n, a, logs = _checked_logs(n, z_abs_sq)
    lgg = specfun.log_gamma(float(n)) + specfun.log_gamma(float(n - 1))
    true_logs = [lv + lgg for lv in logs]
    top = max(true_logs)
    vals = [math.exp(lv - top) for lv in true_logs]
    return CoeffBundle(n=n, z_abs_sq=a, log_scale=top,
                       d1=vals[0], d2=vals[1], D1=vals[2], D2=vals[3])


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def _bracket(n: int, z_abs_sq: float):
    """(n, a, top, g1, g2, g3): P = (e^{top + a om}/pi) tau^{n-2} (1+t)^{-3}
    [g1 + g2 om + g3 om^2] with om = 1/(1+t) = 1 - tau and a = |z|^2."""
    n, a, (l1, _, l3, l4) = _checked_logs(n, z_abs_sq)
    top = max(l1, l3, l4)
    return n, a, top, math.exp(l3 - top), a * math.exp(l4 - top), a * a * math.exp(l1 - top)


def _tau_form(n: int, z_abs_sq: float):
    """(log_pref, s, x, c): P(t, z) = e^{log_pref + specfun.log_tau_form(s, x, c, t)}
    at order n >= 2, with x = a = |z|^2 and c = (0, g1, g2, g3) from _bracket."""
    n, a, top, g1, g2, g3 = _bracket(n, z_abs_sq)
    return top + a - math.log(math.pi), n - 1, a, (0.0, g1, g2, g3)


def jpd_complex(n: int, t, z_abs_sq: float):
    """Joint density P(t, z) of self-overlap and eigenvalue, n >= 2.

    t > 0 may be an array; z enters only through |z|^2 >= 0 (scalar).
    """
    log_pref, s, x, c = _tau_form(n, z_abs_sq)
    scalar = np.isscalar(t)
    out = np.exp(log_pref + specfun.log_tau_form(s, x, c, _as_t(t)))
    return float(out) if scalar else out


def jpd_complex_cumulative(n: int, t, z_abs_sq):
    """int_0^t P(u, z) du for t > 0 and |z|^2 >= 0, which broadcast; n >= 2.

    One truncated gamma integral of the tau-form up to t/(1+t), a sum of
    positive terms, in one kernel call for every |z|^2 (the form is taken
    per |z|^2).  Tends to density_complex(n, a) as t -> inf.
    """
    n = integer("n", n, 2)
    scalar = np.isscalar(t) and np.isscalar(z_abs_sq)
    tb = _as_t(t)
    a = np.asarray(z_abs_sq, dtype=float)
    forms = [_tau_form(n, x) for x in a.ravel()]
    log_pref = np.array([f[0] for f in forms]).reshape(a.shape)
    c = np.array([f[3] for f in forms]).reshape(a.shape + (4,))
    out = np.exp(log_pref + specfun.log_lower_integral(n - 1, a, tb / (1.0 + tb), c))
    return float(out) if scalar else out


def jpd_complex_zero(n: int, t):
    """P(t, z=0) = N(N-1)/pi * t^{N-2}/(1+t)^{N+1}; the z=0 simplification."""
    n = integer("n", n, 2)
    scalar = np.isscalar(t)
    tb = _as_t(t)
    log_tau = np.log(tb) - np.log1p(tb)
    logp = (math.log(n) + math.log(n - 1.0) - math.log(math.pi)
            + (n - 2) * log_tau - 3.0 * np.log1p(tb))
    out = np.exp(logp)
    return float(out[()]) if scalar else out


def density_complex(n: int, z_abs_sq):
    """Mean eigenvalue density (1/pi) e^{-|z|^2} sum_{k<n} |z|^{2k}/k!, n >= 1."""
    return specfun.reg_gamma_q(n, z_abs_sq) / math.pi


def jpd_complex_bulk(s, w_abs):
    """Bulk limit: lim N P(N s, sqrt(N) w) = (1-|w|^2)^2 e^{-(1-|w|^2)/s}/(pi s^3)."""
    s = np.asarray(s, dtype=float)
    w = np.asarray(w_abs, dtype=float)
    if not (np.all(s > 0.0) and np.all(np.abs(w) >= 0.0)):   # also rejects NaN
        raise DomainError("bulk overlap s must be > 0 and w a number")
    c = 1.0 - w * w
    with np.errstate(over="ignore"):
        val = c * c * np.exp(-c / s) / (math.pi * s**3)
    out = np.where(np.abs(w) < 1.0, val, 0.0)
    return float(out[()]) if out.ndim == 0 else out


def _edge_complex_scalar(sigma: float, delta: float) -> float:
    if not (sigma > 0.0 and abs(delta) >= 0.0):   # also rejects NaN
        raise DomainError(f"edge needs sigma > 0 and a number delta, got ({sigma}, {delta})")
    big = 1.0 - 2.0 * sigma * delta
    gauss = -big * big / (2.0 * sigma * sigma)
    sq2d = math.sqrt(2.0) * delta
    t1 = (2.0 * sigma * sigma - big) / math.pi * math.exp(gauss - 2.0 * delta * delta)
    t2 = -(4.0 * delta * sigma**2 - big * (2.0 * delta + sigma)) / math.sqrt(2.0 * math.pi) \
        * specfun.erfc(sq2d) * math.exp(gauss)
    coef3 = 0.5 * (big * big - sigma * sigma)
    if delta >= 0.0:
        t3 = coef3 * specfun.erfcx(sq2d) * specfun.erfc(sq2d) * math.exp(gauss)
    else:
        # 2 delta^2 + gauss = 2 delta/sigma - 1/(2 sigma^2) exactly
        t3 = coef3 * specfun.erfc(sq2d) ** 2 \
            * math.exp(2.0 * delta / sigma - 0.5 / (sigma * sigma))
    return max((t1 + t2 + t3) / (2.0 * math.pi * sigma**5), 0.0)


def jpd_complex_edge(sigma, delta):
    """Edge limit of the complex joint density at |z| = sqrt(N) + delta."""
    if np.isscalar(sigma) and np.isscalar(delta):
        return _edge_complex_scalar(float(sigma), float(delta))
    elementwise = np.vectorize(lambda s, d: _edge_complex_scalar(float(s), float(d)), otypes=[float])
    return elementwise(sigma, delta)


def density_complex_edge(delta) -> float:
    """Mean edge density of complex eigenvalues: erfc(sqrt(2) delta)/(2 pi)."""
    if math.isnan(float(delta)):
        raise DomainError("edge offset delta must be a number")
    return specfun.erfc(math.sqrt(2.0) * float(delta)) / (2.0 * math.pi)


def sensitivity_density(n: int, w_abs_sq: float, z_abs_sq: float,
                        spec: QuadSpec = DEFAULT_SPEC) -> float:
    """Density of the eigenvalue velocity w under an independent Gaussian
    perturbation of the matrix, at spectral location z.

    pi(w, z) = int_0^inf [N/(pi(1+t))] e^{-N|w|^2/(1+t)} P(t, z) dt; it
    integrates over the w-plane to the mean eigenvalue density at z.  The
    t-integral is taken in units of that density, rho(z), so that the
    quadrature's absolute tolerance does not swamp small values.
    """
    n = integer("n", n, 2)
    w2 = float(w_abs_sq)
    if not w2 >= 0.0:   # also rejects NaN
        raise DomainError(f"|w|^2 must be >= 0, got {w_abs_sq}")
    rho = density_complex(n, z_abs_sq)
    if rho == 0.0:   # underflowed, and the density with it
        return 0.0

    def integrand(t):
        om = 1.0 / (1.0 + t)
        return n / math.pi * om * np.exp(-n * w2 * om) * jpd_complex(n, t, z_abs_sq) / rho

    val, _ = integrate_semi_infinite(integrand, spec)
    return val * rho
