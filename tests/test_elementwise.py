"""erfcx, erfc, log_gamma and the four edge laws as elementwise numpy forms.

Each takes arrays, broadcasts, returns a float for scalar input, and gives
every element its scalar value bit for bit (erfcx's continued fraction runs
from one fixed depth for every element).  A NaN anywhere raises DomainError
naming the argument.  The edge laws are checked against the same closed
formulas evaluated in 50-digit mpmath, and erfcx against 40-digit mpmath.
"""

import math

import mpmath
import numpy as np
import pytest

from ginibre_overlaps import analytic_complex as ac
from ginibre_overlaps import analytic_real as ar
from ginibre_overlaps import specfun
from ginibre_overlaps.errors import DomainError

SIGMA = np.geomspace(1e-2, 1e3, 61)[:, None]
DELTA = np.linspace(-6.0, 6.0, 49)
X = np.linspace(-26.0, 40.0, 331)   # erfcx's x < -26.6 overflows, as the true value

# (function, the name its domain errors give, a grid of valid values)
_ONE = {
    "erfcx": (specfun.erfcx, "x", X),
    "erfc": (specfun.erfc, "x", X),
    "log_gamma": (specfun.log_gamma, "x", np.geomspace(1e-3, 1e4, 331)),
    "density_real_edge": (ar.density_real_edge, "delta", X),
    "density_complex_edge": (ac.density_complex_edge, "delta", X),
}
_TWO = {
    "jpd_real_edge": ar.jpd_real_edge,
    "jpd_complex_edge": ac.jpd_complex_edge,
}


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("name", list(_ONE))
class TestOneArgument:
    def test_array_equals_scalar_calls(self, name):
        f, _, grid = _ONE[name]
        grid = grid.reshape(-1, 1) * np.ones(2)     # 2-d, so shape must survive
        out = f(grid)
        assert out.shape == grid.shape and out.dtype == float
        assert _bits(out) == _bits([[f(float(v)) for v in row] for row in grid])

    def test_zero_d_and_empty(self, name):
        f, _, grid = _ONE[name]
        v = float(grid[len(grid) // 3])
        for scalar in (v, np.float64(v), np.array(v)):
            out = f(scalar)
            assert type(out) is float and _bits(out) == _bits(f(v))
        empty = f(np.empty((0, 3)))
        assert empty.shape == (0, 3) and empty.dtype == float

    def test_nan_in_array_names_the_argument(self, name):
        f, arg, grid = _ONE[name]
        with pytest.raises(DomainError, match=rf"^{arg} must be a"):
            f(np.array([grid[1], math.nan, grid[2]]))


@pytest.mark.parametrize("name", list(_TWO))
class TestEdgeLaws:
    def test_broadcast_equals_scalar_calls(self, name):
        f = _TWO[name]
        out = f(SIGMA, DELTA)
        assert out.shape == (61, 49) and out.dtype == float
        assert _bits(out) == _bits([[f(float(s), float(d)) for d in DELTA] for s in SIGMA[:, 0]])

    def test_zero_d_and_empty(self, name):
        f = _TWO[name]
        for s, d in ((0.7, -0.3), (np.float64(0.7), np.array(-0.3)), (np.array(0.7), -0.3)):
            out = f(s, d)
            assert type(out) is float and _bits(out) == _bits(f(0.7, -0.3))
        assert f(np.empty((0, 1)), DELTA).shape == (0, 49)
        assert f(SIGMA, np.empty(0)).shape == (61, 0)

    @pytest.mark.parametrize("arg", ["sigma", "delta"])
    def test_nan_in_array_names_the_argument(self, name, arg):
        bad = np.array([0.5, math.nan])
        args = (bad, 0.3) if arg == "sigma" else (0.7, bad)
        with pytest.raises(DomainError, match=rf"^{arg} must be a"):
            _TWO[name](*args)


def test_erfcx_infinite_limits_inside_arrays():
    out = specfun.erfcx([math.inf, -math.inf, 1.0, -1.0])
    assert out[0] == 0.0 and out[1] == math.inf
    assert out[2] == specfun.erfcx(1.0) and out[3] == specfun.erfcx(-1.0)
    assert specfun.erfc([math.inf, -math.inf]).tolist() == [0.0, 2.0]


def _mp_erfcx(x):
    x = mpmath.mpf(x)
    return mpmath.exp(x * x) * mpmath.erfc(x)


def test_erfcx_against_mpmath_positive():
    # dense across the switch to the continued fraction, then out to 1e8
    xs = np.concatenate([np.linspace(0.0, 6.0, 481), np.geomspace(6.0, 1e8, 80)])
    with mpmath.workdps(40):
        ref = np.array([float(_mp_erfcx(x)) for x in xs])
    rel = np.abs(specfun.erfcx(xs) - ref) / ref
    assert rel.max() <= 1e-15, xs[rel.argmax()]


def test_erfcx_against_mpmath_negative():
    # 2 e^{x^2} - erfcx(|x|): the rounding of x^2 costs up to x^2 ulps of e^{x^2}
    xs = np.linspace(-26.0, 0.0, 209)[:-1]
    with mpmath.workdps(40):
        ref = np.array([float(_mp_erfcx(x)) for x in xs])
    rel = np.abs(specfun.erfcx(xs) - ref) / ref
    assert (rel <= 2.0**-52 * (2.0 + xs * xs)).all(), xs[rel.argmax()]


def _mp_real_edge(s, d):
    s, d = mpmath.mpf(s), mpmath.mpf(d)
    expo = -1 / (4 * s * s) + d / s
    return (1 / (2 * mpmath.sqrt(2 * mpmath.pi) * s * s)
            * (mpmath.exp(expo - 2 * d * d) / mpmath.sqrt(2 * mpmath.pi)
               + (1 / s - 2 * d) / 2 * mpmath.erfc(mpmath.sqrt(2) * d) * mpmath.exp(expo)))


def _mp_complex_edge(s, d):
    s, d = mpmath.mpf(s), mpmath.mpf(d)
    big = 1 - 2 * s * d
    gauss = -big * big / (2 * s * s)
    e = mpmath.erfc(mpmath.sqrt(2) * d)
    t1 = (2 * s * s - big) / mpmath.pi * mpmath.exp(gauss - 2 * d * d)
    t2 = -(4 * d * s * s - big * (2 * d + s)) / mpmath.sqrt(2 * mpmath.pi) * e * mpmath.exp(gauss)
    t3 = (big * big - s * s) / 2 * e * e * mpmath.exp(2 * d / s - 1 / (2 * s * s))
    return (t1 + t2 + t3) / (2 * mpmath.pi * s**5)


@pytest.mark.parametrize("f, ref, tol, delta_max",
                         [(ar.jpd_real_edge, _mp_real_edge, 1.5e-13, 6.0),
                          (ac.jpd_complex_edge, _mp_complex_edge, 5e-11, 2.0)],
                         ids=["real", "complex"])
def test_edge_laws_against_mpmath(f, ref, tol, delta_max):
    # past delta ~ 2 the complex law's three terms cancel (an open item)
    sigma, delta = np.geomspace(1e-2, 1e3, 21), np.linspace(-6.0, 6.0, 25)
    delta = delta[delta <= delta_max]
    with mpmath.workdps(50):
        exact = np.array([[float(ref(s, d)) for d in delta] for s in sigma])
    normal = np.abs(exact) >= np.finfo(float).tiny
    assert normal.sum() > 0.8 * normal.size
    rel = np.abs(f(sigma[:, None], delta) - exact)[normal] / np.abs(exact[normal])
    assert rel.max() <= tol


_EXTREME_SIGMA = [1e-170, 1e-160, 1e-3, 1e70, 1e150, 1e160, 1e300]


@pytest.mark.parametrize("f, ref", [(ar.jpd_real_edge, _mp_real_edge),
                                    (ac.jpd_complex_edge, _mp_complex_edge)],
                         ids=["real", "complex"])
def test_edge_laws_at_extreme_sigma(f, ref):
    # sigma^2 underflows or sigma^5 overflows in a float; each value is
    # finite without a warning (the suite turns warnings into errors), 0.0
    # only where the 60-digit value is below the smallest normal double,
    # and an array gives each element its scalar value
    tiny = np.finfo(float).tiny
    got = f(np.array(_EXTREME_SIGMA), 0.3)
    with mpmath.workdps(60):
        exact = [ref(s, 0.3) for s in _EXTREME_SIGMA]
    for s, g, e in zip(_EXTREME_SIGMA, got.tolist(), exact):
        assert f(s, 0.3) == g and math.isfinite(g), s
        if abs(e) < tiny:
            assert 0.0 <= g < tiny, s
        else:
            assert g != 0.0 and abs(g - e) <= 1e-12 * abs(e), s
    assert got[3] > 1e-215   # sigma = 1e70: ~1e-142 (real) and ~3e-213 (complex)
