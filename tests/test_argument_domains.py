"""One rule for integer arguments (errors.integer), one for real ones (errors.real).

Every public integer argument takes 2.0 and np.int64(2) as 2 and rejects
non-integral, non-finite and non-numeric values with DomainError.  Every
real argument (t, lambda, |z|^2, the scaling variables, tolerances, bounds
and grids) rejects NaN, infinities that are not a documented limit, values
past its bounds, strings, None and complex values with DomainError naming
it, never a silent NaN or 0, and takes np.float64, int and 0-d input as the
plain float.
"""

import math
import re

import numpy as np
import pytest

from ginibre_overlaps import analytic_complex as ac
from ginibre_overlaps import analytic_real as ar
from ginibre_overlaps import detratio, mc_harness, specfun
from ginibre_overlaps.ensemble import EnsembleSpec, sample_ginibre, sample_ginibre_batch
from ginibre_overlaps.errors import DomainError, complex_, integer, real
from ginibre_overlaps.quadrature import QuadSpec, integrate_finite, integrate_semi_infinite

_SPEC = EnsembleSpec(n=3, beta=2, seed=4)
_WINDOW = mc_harness.Window(kind=mc_harness.ANNULUS, lo=0.0, hi=100.0)


def _hist(h):
    return (h.counts.tolist(), h.underflow, h.overflow, h.n_matrices, h.n_rejected)


# (call with the argument under test, an integral value the call accepts)
_ARGUMENTS = {
    "sample_ginibre index, beta=1 n=3 (numpy Philox)":
        (lambda v: sample_ginibre(EnsembleSpec(3, 1, 5), v), 2),
    "sample_ginibre index, beta=2 n=30 (C Philox)":
        (lambda v: sample_ginibre(EnsembleSpec(30, 2, 5), v), 2),
    "sample_ginibre_batch start": (lambda v: sample_ginibre_batch(_SPEC, v, 3), 2),
    "sample_ginibre_batch count": (lambda v: sample_ginibre_batch(_SPEC, 1, v), 2),
    "run_campaign n_matrices": (lambda v: _hist(mc_harness.run_campaign(_SPEC, v, _WINDOW)), 2),
    "run_campaign chunk": (lambda v: _hist(mc_harness.run_campaign(_SPEC, 5, _WINDOW, chunk=v)), 2),
    "run_campaign start_index":
        (lambda v: _hist(mc_harness.run_campaign(_SPEC, 3, _WINDOW, start_index=v)), 2),
    "collect_overlaps n_matrices": (lambda v: mc_harness.collect_overlaps(_SPEC, v, _WINDOW), 2),
    "collect_overlaps chunk":
        (lambda v: mc_harness.collect_overlaps(_SPEC, 5, _WINDOW, chunk=v), 2),
    "collect_overlaps start_index":
        (lambda v: mc_harness.collect_overlaps(_SPEC, 3, _WINDOW, start_index=v), 2),
    "detratio_mc_sweep n_samples":
        (lambda v: detratio.detratio_mc_sweep(4, 2, 1, 0.5, [1.0], v), 2000),
    "detratio_mc_sweep chunk":
        (lambda v: detratio.detratio_mc_sweep(4, 2, 1, 0.5, [1.0], 2000, chunk=v), 500),
    "DetRatioQuery n":
        (lambda v: detratio.detratio_closed(detratio.DetRatioQuery(n=v, beta=2, L=1, z=0.5,
                                                                   p=1.0)), 2),
    "DetRatioQuery beta":
        (lambda v: detratio.detratio_closed(detratio.DetRatioQuery(n=3, beta=v, L=1, z=0.5,
                                                                   p=1.0)), 2),
    "DetRatioQuery L":
        (lambda v: detratio.detratio_closed(detratio.DetRatioQuery(n=3, beta=2, L=v, z=0.5,
                                                                   p=1.0)), 2),
    "jpd_real n": (lambda v: ar.jpd_real(v, 0.5, 0.3), 2),
    "jpd_complex n": (lambda v: ac.jpd_complex(v, 0.5, 0.3), 2),
    "density_real n": (lambda v: ar.density_real(v, 0.4), 2),
    "density_complex n": (lambda v: ac.density_complex(v, 0.4), 2),
    "log_reg_gamma_q n": (lambda v: specfun.log_reg_gamma_q(v, 0.7), 2),
    # repr shows whether the stored budget is the int 2 or the float 2.0
    "QuadSpec max_subdivisions": (lambda v: repr(QuadSpec(max_subdivisions=v)), 2),
}
_BAD = [1.5, math.nan, math.inf, "3", None]


def _same(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


class TestIntegerRule:
    @pytest.mark.parametrize("value", [2, 2.0, np.float64(2.0), np.int64(2), np.uint64(2)])
    def test_integral_values_return_plain_int(self, value):
        out = integer("n", value, 1)
        assert out == 2 and type(out) is int

    @pytest.mark.parametrize("value", _BAD + [-math.inf, 0, 4, "2", b"2", [2], np.array([2, 2])])
    def test_rejected_values_name_the_argument(self, value):
        with pytest.raises(DomainError, match=r"^count must be an integer in \[1, 3\]"):
            integer("count", value, 1, 3)

    def test_bounds_are_inclusive_at_full_width(self):
        assert integer("seed", 2**64 - 1, 0, 2**64 - 1) == 2**64 - 1
        with pytest.raises(DomainError):
            integer("seed", float(2**64), 0, 2**64 - 1)


@pytest.mark.parametrize("name", list(_ARGUMENTS))
class TestIntegerArguments:
    @pytest.mark.parametrize("value", _BAD)
    def test_non_integer_rejected(self, name, value):
        call, _ = _ARGUMENTS[name]
        with pytest.raises(DomainError):
            call(value)

    def test_non_integral_value_in_range_rejected(self, name):
        call, k = _ARGUMENTS[name]
        with pytest.raises(DomainError):
            call(k + 0.5)

    def test_integral_values_act_as_int(self, name):
        call, k = _ARGUMENTS[name]
        expected = call(k)
        for value in (float(k), np.int64(k)):
            assert _same(call(value), expected), value


@pytest.mark.parametrize("spec", [EnsembleSpec(3, 1, 5), EnsembleSpec(30, 2, 5)],
                         ids=["numpy-philox", "c-philox"])
def test_index_one_and_a_half_does_not_draw_matrix_one(spec):
    with pytest.raises(DomainError, match="matrix index"):
        sample_ginibre(spec, 1.5)
    with pytest.raises(DomainError, match="matrix index"):
        sample_ginibre_batch(spec, 1.5, 2)


# only values rejected before any thread pool starts
@pytest.mark.parametrize("threads", [0, -3, 2.5])
def test_threads_rejected_before_a_pool_starts(threads):
    with pytest.raises(DomainError, match="threads"):
        mc_harness.run_campaign(_SPEC, 5, _WINDOW, threads=threads)


def test_detratio_query_stores_ints():
    q = detratio.DetRatioQuery(n=4.0, beta=np.int64(2), L=1.0, z=0.5, p=1.0)
    assert all(type(v) is int for v in (q.n, q.beta, q.L))
    assert q == detratio.DetRatioQuery(n=4, beta=2, L=1, z=0.5, p=1.0)


_NON_FINITE = {
    "jpd_real t": lambda v: ar.jpd_real(4, v, 0.5),
    "jpd_real lambda": lambda v: ar.jpd_real(4, 1.0, v),
    "jpd_real_cumulative t": lambda v: ar.jpd_real_cumulative(4, v, 0.5),
    "density_real lambda": lambda v: ar.density_real(4, v),
    "jpd_complex t": lambda v: ac.jpd_complex(4, v, 0.5),
    "jpd_complex |z|^2": lambda v: ac.jpd_complex(4, 1.0, v),
    "jpd_complex_cumulative t": lambda v: ac.jpd_complex_cumulative(4, v, 0.5),
    "jpd_complex_cumulative |z|^2": lambda v: ac.jpd_complex_cumulative(4, 1.0, [0.5, v]),
    "jpd_complex_zero t": lambda v: ac.jpd_complex_zero(4, v),
    "_checked_logs |z|^2": lambda v: ac._checked_logs(3, v),
    "density_complex |z|^2": lambda v: ac.density_complex(4, v),
    "reg_gamma_q a": lambda v: specfun.reg_gamma_q(4, v),
    "log_reg_gamma_q a": lambda v: specfun.log_reg_gamma_q(4, np.array([0.5, v])),
    "QuadSpec abs_tol": lambda v: QuadSpec(abs_tol=v),
    "QuadSpec rel_tol": lambda v: QuadSpec(rel_tol=v),
    "integrate_semi_infinite singular_exponent_at_zero":
        lambda v: integrate_semi_infinite(lambda t: np.exp(-t), singular_exponent_at_zero=v),
}


@pytest.mark.parametrize("name", list(_NON_FINITE))
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_real_argument_rejected(name, value):
    with pytest.raises(DomainError):
        _NON_FINITE[name](value)


@pytest.mark.parametrize("cumulative", [ar.jpd_real_cumulative, ac.jpd_complex_cumulative],
                         ids=["real", "complex"])
def test_empty_location_array_gives_empty_broadcast(cumulative):
    out = cumulative(4, [1.0, 2.0], np.empty((0, 1)))
    assert isinstance(out, np.ndarray) and out.shape == (0, 2)
    assert cumulative(4, 1.0, np.empty(0)).shape == (0,)
    with pytest.raises(DomainError):
        cumulative(2.5, [1.0, 2.0], np.empty((0, 1)))


class TestRealRule:
    @pytest.mark.parametrize("value", [2, 2.0, np.float64(2.0), np.int64(2), np.array(2.0), True])
    def test_real_scalars_return_plain_float(self, value):
        out = real("x", value, 0.0)
        assert out == float(value) and type(out) is float

    def test_array_like_returns_float_array(self):
        out = real("x", [1, 2.5], 0.0)
        assert out.dtype == float and out.tolist() == [1.0, 2.5]
        assert real("x", np.empty((0, 2))).shape == (0, 2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, 3.5, "1", b"1", None,
                                       1j, np.complex128(1.0), [1.0, math.nan], [1.0, None]])
    def test_rejected_values_name_the_argument(self, value):
        with pytest.raises(DomainError, match=r"^x must be a finite real number in \(0.0, 3.0\]"):
            real("x", value, 0.0, 3.0, lo_open=True)

    def test_infinite_limits_when_not_finite(self):
        assert real("x", -math.inf, finite=False) == -math.inf
        assert real("x", [1.0, math.inf], finite=False).tolist() == [1.0, math.inf]
        with pytest.raises(DomainError, match=r"^x must be a real number"):
            real("x", math.nan, finite=False)


_LAM_PAST = 1e155   # |lambda| past sqrt(max double), where lambda^2 overflows
_CDF_WINDOW = mc_harness.Window(kind=mc_harness.ANNULUS, lo=0.0, hi=1.0)

# (call with the real argument under test, its name in messages, a valid
# integral value, values past its bounds, the non-finite or non-numeric
# values it takes on purpose: erfcx's +-inf limits, "no hint" for the exponent)
_REALS = {
    "jpd_real t": (lambda v: ar.jpd_real(4, v, 0.5), "t", 1, [0.0, -1.0], ()),
    "jpd_real lambda":
        (lambda v: ar.jpd_real(4, 1.0, v), "lambda", 1, [_LAM_PAST, -_LAM_PAST], ()),
    "jpd_real_cumulative t": (lambda v: ar.jpd_real_cumulative(4, v, 0.5), "t", 1, [0.0], ()),
    "jpd_real_cumulative lambda":
        (lambda v: ar.jpd_real_cumulative(4, 1.0, v), "lambda", 1, [_LAM_PAST], ()),
    "density_real lambda": (lambda v: ar.density_real(4, v), "lambda", 1, [-_LAM_PAST], ()),
    "jpd_real_bulk s": (lambda v: ar.jpd_real_bulk(v, 0.5), "s", 1, [0.0, -1.0], ()),
    "jpd_real_bulk x": (lambda v: ar.jpd_real_bulk(0.5, v), "x", 0, [], ()),
    "jpd_real_edge sigma": (lambda v: ar.jpd_real_edge(v, 0.3), "sigma", 1, [0.0, -1.0], ()),
    "jpd_real_edge delta": (lambda v: ar.jpd_real_edge(0.7, v), "delta", 0, [], ()),
    "density_real_edge delta": (lambda v: ar.density_real_edge(v), "delta", 1, [], ()),
    "jpd_complex t": (lambda v: ac.jpd_complex(4, v, 0.5), "t", 1, [0.0, -1.0], ()),
    "jpd_complex |z|^2": (lambda v: ac.jpd_complex(4, 1.0, v), "|z|^2", 1, [-1.0], ()),
    "jpd_complex_cumulative t":
        (lambda v: ac.jpd_complex_cumulative(4, v, 0.5), "t", 1, [0.0], ()),
    "jpd_complex_cumulative |z|^2":
        (lambda v: ac.jpd_complex_cumulative(4, 1.0, v), "|z|^2", 1, [-1.0], ()),
    "jpd_complex_zero t": (lambda v: ac.jpd_complex_zero(4, v), "t", 1, [0.0, -1.0], ()),
    "density_complex |z|^2": (lambda v: ac.density_complex(4, v), "|z|^2", 1, [-1.0], ()),
    "jpd_complex_bulk s": (lambda v: ac.jpd_complex_bulk(v, 0.5), "s", 1, [0.0, -1.0], ()),
    "jpd_complex_bulk |w|": (lambda v: ac.jpd_complex_bulk(1.0, v), "|w|", 0, [], ()),
    "jpd_complex_edge sigma":
        (lambda v: ac.jpd_complex_edge(v, 0.3), "sigma", 1, [0.0, -1.0], ()),
    "jpd_complex_edge delta": (lambda v: ac.jpd_complex_edge(0.7, v), "delta", 0, [], ()),
    "density_complex_edge delta": (lambda v: ac.density_complex_edge(v), "delta", 1, [], ()),
    "sensitivity_density |w|^2":
        (lambda v: ac.sensitivity_density(4, v, 0.5), "|w|^2", 1, [-1.0], ()),
    "sensitivity_density |z|^2":
        (lambda v: ac.sensitivity_density(4, 0.5, v), "|z|^2", 1, [-1.0], ()),
    "log_gamma x": (lambda v: specfun.log_gamma(v), "x", 3, [0.0, -1.0], ()),
    "log_reg_gamma_q a": (lambda v: specfun.log_reg_gamma_q(4, v), "a", 2, [-1.0], ()),
    "reg_gamma_q a": (lambda v: specfun.reg_gamma_q(4, [0.5, v]), "a", 2, [-1.0], ()),
    "log_lower_integral s":
        (lambda v: specfun.log_lower_integral(v, 1.0, 0.5, (1.0, 2.0)), "s", 2, [0.0], ()),
    "log_lower_integral x":
        (lambda v: specfun.log_lower_integral(1.5, v, 0.5, (1.0, 2.0)), "x", 1, [-1.0], ()),
    "log_lower_integral T":
        (lambda v: specfun.log_lower_integral(1.5, 2.0, v, (1.0, 2.0)), "T", 1, [0.0, 1.5], ()),
    "log_lower_integral c":
        (lambda v: specfun.log_lower_integral(1.5, 2.0, 0.5, [1.0, v]), "c", 1, [-1.0], ()),
    "erfcx x": (lambda v: specfun.erfcx(v), "x", 1, [], (math.inf, -math.inf)),
    "DetRatioQuery p":
        (lambda v: detratio.detratio_closed(detratio.DetRatioQuery(n=3, beta=2, L=1, z=0.5, p=v)),
         "p", 1, [-1.0], ()),
    "detratio_mc_sweep p":
        (lambda v: detratio.detratio_mc_sweep(4, 2, 1, 0.5, [v], 2000), "p", 1, [0.0], ()),
    "detratio_real_l2_p0 lambda":
        (lambda v: detratio.detratio_real_l2_p0(4, v), "lambda", 1, [], ()),
    "mean_det_sq_real lambda": (lambda v: detratio.mean_det_sq_real(4, v), "lambda", 1, [], ()),
    "Window lo": (lambda v: repr(mc_harness.Window(kind=mc_harness.ANNULUS, lo=v, hi=2.0)),
                  "window lo", 1, [-0.5], ()),
    "Window hi": (lambda v: repr(mc_harness.Window(kind=mc_harness.REAL_INTERVAL, lo=0.0, hi=v)),
                  "window hi", 1, [0.0, -1.0], ()),
    "QuadSpec abs_tol": (lambda v: repr(QuadSpec(abs_tol=v)), "abs_tol", 1, [0.0, -1e-3], ()),
    "QuadSpec rel_tol": (lambda v: repr(QuadSpec(rel_tol=v)), "rel_tol", 1, [0.0, -1e-3], ()),
    "integrate_finite a": (lambda v: integrate_finite(np.cos, v, 2.0), "a", 0, [], ()),
    "integrate_finite b": (lambda v: integrate_finite(np.cos, 0.0, v), "b", 2, [0.0, -1.0], ()),
    "integrate_semi_infinite singular_exponent_at_zero":
        (lambda v: integrate_semi_infinite(lambda t: np.exp(-t), singular_exponent_at_zero=v),
         "singular_exponent_at_zero", 0, [-1.0, -2.0], (None,)),
    "analytic_conditional_cdf t_grid":
        (lambda v: mc_harness.analytic_conditional_cdf(EnsembleSpec(4, 2), _CDF_WINDOW, [v, 2.0]),
         "t_grid", 1, [0.0, -1.0], ()),
    "run_campaign bin_edges":
        (lambda v: _hist(mc_harness.run_campaign(_SPEC, 5, _WINDOW, bin_edges=[v, 10.0, 100.0])),
         "bin_edges", 1, [0.0, -1.0], ()),
}


def _equal(a, b):
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    return a == b if isinstance(a, str) else np.array_equal(a, b)


@pytest.mark.parametrize("name", list(_REALS))
class TestRealArguments:
    def _rejects(self, name, value):
        call, arg = _REALS[name][:2]
        message = rf"^{re.escape(arg)} must be a (finite )?real number"
        with pytest.raises(DomainError, match=message):
            call(value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "1", None, 1j],
                             ids=["nan", "inf", "-inf", "str", "None", "complex"])
    def test_non_finite_or_non_real_rejected(self, name, value):
        call, _, _, _, taken = _REALS[name]
        if value in taken:
            call(value)
        else:
            self._rejects(name, value)

    def test_values_past_the_bounds_rejected(self, name):
        for value in _REALS[name][3]:
            self._rejects(name, value)

    def test_numeric_types_act_as_the_float(self, name):
        call, _, k, _, _ = _REALS[name]
        expected = call(float(k))
        for value in (np.float64(k), int(k), np.array(float(k))):
            assert _equal(call(value), expected), repr(value)


class TestComplexRule:
    @pytest.mark.parametrize("value", [0.5, 2, True, 0.5 + 0.4j, np.float64(0.5), np.int64(2),
                                       np.complex128(0.5 + 0.4j), np.array(0.5 + 0.4j)])
    def test_numbers_return_plain_complex(self, value):
        out = complex_("z", value)
        assert out == complex(value) and type(out) is complex

    @pytest.mark.parametrize("value", ["0.5", b"0.5", None, math.nan, math.inf, -math.inf,
                                       complex(math.nan, 0.0), complex(0.0, math.inf), [0.5],
                                       np.array([0.5, 1.0])])
    def test_rejected_values_name_the_argument(self, value):
        with pytest.raises(DomainError, match=r"^z must be a finite complex number"):
            complex_("z", value)


# z enters the determinant-ratio oracle through errors.complex_, never complex()
_Z_CALLS = {
    "DetRatioQuery z": lambda v: detratio.DetRatioQuery(n=3, beta=2, L=1, z=v, p=1.0),
    "detratio_mc_sweep z": lambda v: detratio.detratio_mc_sweep(3, 2, 1, v, [1.0], 1000),
}


@pytest.mark.parametrize("name", list(_Z_CALLS))
@pytest.mark.parametrize("value", ["0.5", b"0.5", None, math.nan, complex(0.5, math.inf), [0.5]],
                         ids=["str", "bytes", "None", "nan", "inf-part", "list"])
def test_z_rejected_by_name(name, value):
    with pytest.raises(DomainError, match=r"^z must be a finite complex number"):
        _Z_CALLS[name](value)


@pytest.mark.parametrize("value", [0.5, np.float64(0.5), np.complex128(0.5), np.array(0.5)])
def test_z_numeric_types_act_as_the_complex(value):
    q = detratio.DetRatioQuery(n=3, beta=2, L=1, z=value, p=1.0)
    assert type(q.z) is complex and q == detratio.DetRatioQuery(n=3, beta=2, L=1, z=0.5, p=1.0)
    assert detratio.detratio_closed(q) == detratio.detratio_closed(
        detratio.DetRatioQuery(n=3, beta=2, L=1, z=0.5, p=1.0))


# sensitivity_density integrates one point at a time: an array names its argument
@pytest.mark.parametrize("w_abs_sq, z_abs_sq, name",
                         [([0.1, 0.2], 0.5, "|w|^2"), (np.ones((1, 1)), 0.5, "|w|^2"),
                          (0.1, [0.5, 1.0], "|z|^2"), (0.1, np.empty(0), "|z|^2")])
def test_sensitivity_density_arrays_rejected_by_name(w_abs_sq, z_abs_sq, name):
    with pytest.raises(DomainError, match=rf"^{re.escape(name)} must be a finite real number"):
        ac.sensitivity_density(4, w_abs_sq, z_abs_sq)
