"""Exception types shared across the package, and its one rule for integer
arguments: :func:`integer` checks every N, beta, seed, matrix index and
count, so each raises DomainError the same way."""

import math


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
