"""One rule for integer arguments (errors.integer), and finite real arguments.

Every public integer argument takes 2.0 and np.int64(2) as 2 and rejects
non-integral, non-finite and non-numeric values with DomainError; t, |z|^2
and the incomplete-gamma argument must be finite, never a silent NaN.
"""

import math

import numpy as np
import pytest

from ginibre_overlaps import analytic_complex as ac
from ginibre_overlaps import analytic_real as ar
from ginibre_overlaps import detratio, mc_harness, specfun
from ginibre_overlaps.ensemble import EnsembleSpec, sample_ginibre, sample_ginibre_batch
from ginibre_overlaps.errors import DomainError, integer
from ginibre_overlaps.quadrature import QuadSpec, integrate_semi_infinite

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
