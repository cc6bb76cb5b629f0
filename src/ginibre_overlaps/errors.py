"""Exception types shared across the package, and its three rules for
arguments, so each raises DomainError the same way: :func:`integer` checks
every N, beta, seed, matrix index and count, :func:`real` every real
argument (t, lambda, |z|^2, the scaling variables, tolerances, bounds and
grids) and :func:`complex_` the spectral parameter z, once, where it enters
the package."""

import math

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def integer(name: str, value, lo: int, hi=math.inf) -> int:
    """value as a plain int when it is integral and lo <= value <= hi, so 2.0
    and np.int64(2) act as 2; else DomainError naming the argument (1.5, NaN,
    inf, strings and None included)."""
    try:
        ok = int(value) == value and lo <= value <= hi
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise DomainError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)


def real(name: str, value, lo=-math.inf, hi=math.inf, *, lo_open=False, finite=True):
    """value as a float (a float array for array-like input) when every entry
    is a real number in [lo, hi] ((lo, hi] with lo_open), and finite unless
    finite=False; else DomainError naming the argument (NaN, str, bytes, None
    and complex values included)."""
    x = np.asarray(value)
    if x.dtype.kind in "biuf":   # str, bytes, None and complex are not
        x = x.astype(float, copy=False)
        ok = (x > lo if lo_open else x >= lo) & (x <= hi)   # NaN fails both
        if finite:
            ok &= np.isfinite(x)
        if ok.all():
            return x if x.ndim else float(x)
        value = float(x[~ok][0])   # the first entry that fails
    kind = "a finite real" if finite else "a real"
    raise DomainError(f"{name} must be {kind} number in {'(' if lo_open else '['}{lo}, {hi}], "
                      f"got {value!r}")


def complex_(name: str, value) -> complex:
    """value as a Python complex when it is one finite number (numpy scalars
    and 0-d arrays too); else DomainError naming the argument."""
    x = np.asarray(value)
    if x.ndim == 0 and x.dtype.kind in "biufc" and np.isfinite(x):
        return complex(x)
    raise DomainError(f"{name} must be a finite complex number, got {value!r}")


class QuadratureConvergenceError(RuntimeError):
    """Adaptive integration ran out of subdivisions before reaching tolerance.

    Carries the best available estimate so callers can decide whether to
    accept it anyway.
    """

    def __init__(self, message, value, err_est):
        super().__init__(message)
        self.value = value
        self.err_est = err_est


class DegenerateSampleError(RuntimeError):
    """A sampled matrix is too close to having a multiple eigenvalue."""


class EmptyWindowError(RuntimeError):
    """A sampling campaign produced no eigenvalues inside the window."""


class InsufficientSamplesError(RuntimeError):
    """Too few samples for the requested statistical comparison."""
