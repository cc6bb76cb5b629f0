import math

import numpy as np
import pytest

from ginibre_overlaps.errors import DomainError, QuadratureConvergenceError
from ginibre_overlaps.quadrature import (
    DEFAULT_SPEC,
    QuadSpec,
    _adaptive,
    integrate_finite,
    integrate_semi_infinite,
    kronrod_panel,
)

INT_EXP_HALF_SQ_01 = 0.855624391892148803  # int_0^1 e^{-u^2/2} du


class TestFinite:
    def test_constant(self):
        val, err = integrate_finite(lambda x: np.ones_like(x), 0.0, 1.0)
        assert val == pytest.approx(1.0, rel=1e-14)
        assert err < 1e-12

    def test_gaussian_segment(self):
        val, _ = integrate_finite(lambda u: np.exp(-0.5 * u * u), 0.0, 1.0)
        assert val == pytest.approx(INT_EXP_HALF_SQ_01, rel=1e-13)

    def test_odd_symmetry(self):
        val, _ = integrate_finite(lambda x: x, -1.0, 1.0)
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_additivity(self):
        f = lambda x: np.exp(-x) * np.sin(3.0 * x) ** 2
        whole, ew = integrate_finite(f, 0.0, 5.0)
        left, e1 = integrate_finite(f, 0.0, 1.7)
        right, e2 = integrate_finite(f, 1.7, 5.0)
        assert left + right == pytest.approx(whole, abs=2.0 * (ew + e1 + e2) + 1e-13)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate_finite(lambda x: x, 1.0, 1.0)
        with pytest.raises(DomainError):
            integrate_finite(lambda x: x, 0.0, math.inf)


class TestSemiInfinite:
    def test_exponential(self):
        val, _ = integrate_semi_infinite(lambda t: np.exp(-t))
        assert val == pytest.approx(1.0, rel=1e-11)

    def test_gamma_five(self):
        val, _ = integrate_semi_infinite(lambda t: np.exp(-t) * t**4)
        assert val == pytest.approx(24.0, rel=1e-11)

    def test_beta_with_sqrt_singularity(self):
        # int_0^inf t^{-1/2} (1+t)^{-3/2} dt = B(1/2, 1) = 2
        val, _ = integrate_semi_infinite(
            lambda t: t**-0.5 * (1.0 + t) ** -1.5, singular_exponent_at_zero=-0.5)
        assert val == pytest.approx(2.0, rel=1e-11)

    def test_substitution_invariance(self):
        # mapping (0, inf) onto (0, 1) by hand must agree with the built-in map
        f = lambda t: np.exp(-t) / (1.0 + t)
        direct, ed = integrate_semi_infinite(f)

        def mapped(u):
            t = u / (1.0 - u)
            return f(t) / (1.0 - u) ** 2

        via_finite, ef = integrate_finite(mapped, 1e-15, 1.0 - 1e-15)
        assert direct == pytest.approx(via_finite, abs=5.0 * (ed + ef) + 1e-12)

    def test_error_estimate_returned(self):
        val, err = integrate_semi_infinite(lambda t: np.exp(-t) * np.cos(t) ** 2)
        assert err >= 0.0
        assert val == pytest.approx(0.6, rel=1e-9)  # (1/2)(1 + 1/5)

    def test_bad_exponent(self):
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda t: t, singular_exponent_at_zero=-1.0)


class TestConvergenceFailure:
    def test_error_carries_best_estimate(self):
        spec = QuadSpec(abs_tol=1e-300, rel_tol=1e-16, max_subdivisions=12)
        f = lambda x: np.exp(-np.abs(x - 0.123456) * 500.0)
        with pytest.raises(QuadratureConvergenceError) as info:
            integrate_finite(f, 0.0, 1.0, spec)
        exact = (2.0 - math.exp(-0.123456 * 500) - math.exp(-(1 - 0.123456) * 500)) / 500.0
        assert info.value.value == pytest.approx(exact, rel=1e-2)
        assert info.value.err_est > 0.0

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadSpec(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadSpec(max_subdivisions=0)


class TestBatchedPanels:
    """kronrod_panel over several panels gives the bits of each lone panel, and
    an integral calls f once for its seed panels and once per split."""

    def test_panels_equal_lone_panels(self):
        f = lambda x: np.exp(-x) * np.sin(3.0 * x) ** 2
        a = [0.0, 0.3, 1.7, 2.0, 4.5]
        b = [0.3, 1.7, 2.0, 4.5, 9.0]
        vals, errs = kronrod_panel(f, a, b)
        assert [kronrod_panel(f, lo, hi) for lo, hi in zip(a, b)] == list(zip(vals, errs))

    def test_one_call_for_the_seeds_and_one_per_split(self):
        sizes = []

        def f(t):
            sizes.append(t.size)
            return np.exp(-t) * np.cos(t) ** 2

        integrate_semi_infinite(f)
        assert sizes[0] == 7 * 15   # the seven seed panels of the (0, 1) map
        assert len(sizes) > 1 and set(sizes[1:]) == {2 * 15}


class TestFinalPanels:
    """_adaptive returns its final panels, sorted, tiling its breakpoints."""

    @staticmethod
    def _assert_tiles(panels, breakpoints):
        assert panels[0, 0] == breakpoints[0] and panels[-1, 1] == breakpoints[-1]
        assert np.array_equal(panels[1:, 0], panels[:-1, 1])   # no gap, no overlap
        assert np.all(panels[:, 0] < panels[:, 1])

    def test_refined_panels_tile_the_breakpoints(self):
        f = lambda x: np.exp(-np.abs(x - 0.123456) * 500.0)
        breakpoints = [0.0, 0.5, 1.0]
        val, err, panels = _adaptive(f, breakpoints, DEFAULT_SPEC)
        assert len(panels) > 10
        self._assert_tiles(panels, breakpoints)
        assert val == pytest.approx(sum(kronrod_panel(f, panels[:, 0], panels[:, 1])[0]),
                                    rel=1e-14)

    def test_panel_at_floating_point_resolution_is_kept(self):
        # the middle panel [1, 1 + ulp] cannot split: its nodes round to its
        # ends, where f takes +-1/h, so its K15 - G7 error leads the heap
        ulp = 2.0 ** -52
        f = lambda x: np.where(x == 1.0, 2.0 / ulp, np.where(x == 1.0 + ulp, -2.0 / ulp, 1.0))
        breakpoints = [0.0, 1.0, 1.0 + ulp, 2.0]
        _, mid_err = kronrod_panel(f, 1.0, 1.0 + ulp)
        val, err, panels = _adaptive(f, breakpoints, DEFAULT_SPEC)
        # the tolerance is met only with the middle panel's estimate dropped
        assert mid_err > DEFAULT_SPEC.rel_tol * abs(val) >= err
        assert panels.tolist() == [[0.0, 1.0], [1.0, 1.0 + ulp], [1.0 + ulp, 2.0]]
        self._assert_tiles(panels, breakpoints)
