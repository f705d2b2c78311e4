"""Exception types shared across the package, and its checks: every count,
seed, block-shape and non-finite check is one call to a function here."""

import numpy as np


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class NumericalError(RuntimeError):
    """Raised when a computation fails numerically (divergence, non-convergence)."""

    def __init__(self, message: str, residual_norms=None):
        super().__init__(message)
        self.residual_norms = residual_norms


SEEDS = "an integer in [0, 2**64)"  # one 64-bit key word of linalg.Rng's stream


def is_count(value, least: int = 1, below: int | None = None) -> bool:
    """True for an int or numpy integer, not a bool, in [least, below)."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and least <= value and (below is None or value < below))


def is_seed(value) -> bool:
    """True for a value in SEEDS."""
    return is_count(value, 0, 2**64)


def check_counts(least: int = 1, **values) -> None:
    """Raise ValidationError naming the first value that is not an integer >= least."""
    for name, value in values.items():
        if not is_count(value, least):
            needs = f">= {least}" if is_count(value, -np.inf) else "an integer"
            raise ValidationError(f"{name} must be {needs}, got {value}")


def as_integers(name: str, values) -> np.ndarray:
    """values as an int64 array; a bool array, or an entry that is not a
    whole number, which the cast would truncate, raises ValidationError
    naming the argument."""
    a = np.asarray(values)
    if a.dtype.kind == "b":
        raise ValidationError(f"{name} must be whole numbers, got a bool array")
    if a.dtype.kind not in "iu":
        bad = ~(np.isfinite(a) & (a == np.trunc(a)))
        if bad.any():
            raise ValidationError(f"{name} must be whole numbers, got {a[bad][0]}")
    return np.asarray(a, dtype=np.int64)


def as_block(vs, dim: int) -> np.ndarray:
    """vs as a float (dim, k >= 1) block; another shape raises ValidationError."""
    vs = np.asarray(vs, dtype=np.float64)
    if vs.ndim != 2 or vs.shape[0] != dim or vs.shape[1] < 1:
        raise ValidationError(f"block shape {vs.shape} != ({dim}, k >= 1)")
    return vs


def require_finite(stage: str, error: type = NumericalError, **values) -> None:
    """Raise error on the first value with a non-finite entry, naming the
    stage, the value and, for an array, the first such entry's index:
    "{stage}: non-finite {name} at [i, j] = {entry}"."""
    for name, value in values.items():
        finite = np.isfinite(value)
        if not finite.all():
            at = tuple(np.argwhere(~finite)[0]) if np.ndim(value) else ()
            where = f" at [{', '.join(map(str, at))}]" if at else ""
            raise error(f"{stage}: non-finite {name}{where} = {np.asarray(value)[at]}")


def check_nonnegative(**values) -> None:
    """Raise on the first value that is not a finite number >= 0, naming it."""
    for name, value in values.items():
        if not 0 <= value < float("inf"):
            raise ValidationError(f"{name} must be >= 0 and finite, got {value}")


def check_domains(section: str, rows) -> None:
    """Raise on the first (key, value, ok, needs) row that is not ok, naming its key."""
    for key, value, ok, needs in rows:
        if not ok:
            raise ValidationError(f"{key} {value!r}: config key {key!r} in [{section}] "
                                  f"must be {needs}")
