"""Exception types shared across the package, and its checks: every count,
seed, block-shape, orthonormality and non-finite check is one call to a function here."""

import numbers

import numpy as np


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class NumericalError(RuntimeError):
    """Raised when a computation fails numerically (divergence, non-convergence)."""

    def __init__(self, message: str, residual_norms=None):
        super().__init__(message)
        self.residual_norms = residual_norms


SEEDS = "an integer in [0, 2**64)"  # one 64-bit key word of linalg.Rng's stream
NONNEGATIVE = "finite and >= 0"


def is_count(value, least: int = 1, below: int | None = None) -> bool:
    """True for an int or numpy integer, not a bool, in [least, below)."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and least <= value and (below is None or value < below))


def is_nonnegative(value) -> bool:
    """True for a finite real number >= 0 (NONNEGATIVE); a NaN, a bool, a
    string, None or an array is not."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 0 <= value < float("inf"))


def is_seed(value) -> bool:
    """True for a value in SEEDS."""
    return is_count(value, 0, 2**64)


def count_needs(value, needs: str = ">= 1") -> str:
    """What a count must be, worded for a value that is not one: needs, its
    domain, for an integer; "an integer" for anything else (a float, a bool)."""
    return needs if is_count(value, -np.inf) else "an integer"


def check_counts(least: int = 1, **values) -> None:
    """Raise ValidationError naming the first value that is not an integer >= least."""
    for name, value in values.items():
        if not is_count(value, least):
            raise ValidationError(f"{name} must be {count_needs(value, f'>= {least}')}, "
                                  f"got {value}")


def as_integers(name: str, values) -> np.ndarray:
    """values as an int64 array. A bool array, a bool entry among numbers
    (which numpy would cast to 1 or 0), a complex entry of an object array
    (whose imaginary part the cast would drop), an entry that is not a whole
    number (which the cast would truncate) or lies outside [-2**63, 2**63)
    (which it would wrap), entries that are not numbers and a ragged nest
    raise ValidationError naming the argument."""
    try:
        a = np.asarray(values)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise ValidationError(f"{name} must be whole numbers in an array of one shape, "
                              f"got {values!r}") from None
    if a.dtype.kind not in "iufO":
        raise ValidationError(f"{name} must be whole numbers, got a {a.dtype} array")
    if not isinstance(values, np.ndarray) or a.dtype.kind == "O":  # else no bool or complex
        odd = [v for v in np.asarray(values, dtype=object).flat
               if isinstance(v, (bool, np.bool_, complex, np.complexfloating))]
        if odd:
            raise ValidationError(f"{name} must be whole numbers, got {odd[0]}")
    try:  # an object entry may not be a number; Python ints compare exactly
        # a NaN object entry compares False, and the bounds cast to float16 as inf
        with np.errstate(invalid="ignore", over="ignore"):
            wide = (a < -2**63) | (a >= 2**63)
        f = a if a.dtype.kind in "iu" else a.astype(np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be whole numbers, got {a}") from None
    except OverflowError:  # a Python int beyond the float range, so wide too
        f = np.where(wide, 0.0, a).astype(np.float64)
    bad = ~(np.isfinite(f) & (f == np.trunc(f)))
    if bad.any():
        raise ValidationError(f"{name} must be whole numbers, got {a[bad][0]}")
    if wide.any():
        raise ValidationError(f"{name} must be whole numbers in [-2**63, 2**63), "
                              f"got {a[wide][0]}")
    return np.asarray(a, dtype=np.int64)


def _as_reals(name: str, values) -> np.ndarray:
    """values as a float64 array. A ragged nest, an entry that is not a real
    number (a complex, whose imaginary part the float cast would drop; a bool,
    string or bytes, which it would read as 1 or parse; None, which it would
    read as NaN) and one beyond the float64 range raise ValidationError
    naming the argument."""
    try:
        a = np.asarray(values)
    except ValueError:  # a ragged nest
        raise ValidationError(f"{name} must be real numbers in an array of one shape, "
                              f"got {values!r}") from None
    if a.dtype.kind == "c":
        raise ValidationError(f"{name} must be real, got a {a.dtype} array")
    if a.dtype.kind not in "iufO":
        raise ValidationError(f"{name} must be real numbers, got a {a.dtype} array")
    if not isinstance(values, np.ndarray) or a.dtype.kind == "O":  # else one numeric dtype
        unreal = [v for v in np.asarray(values, dtype=object).flat
                  if isinstance(v, bool) or not isinstance(v, numbers.Real)]
        if unreal:
            raise ValidationError(f"{name} must be real numbers, got {unreal[0]!r}")
    try:
        with np.errstate(over="raise"):  # a long double beyond the float64 range
            return np.asarray(a, dtype=np.float64)
    except (FloatingPointError, OverflowError):  # OverflowError: a Python int
        raise ValidationError(f"{name} must be within the float64 range") from None


def as_block(vs, dim: int) -> np.ndarray:
    """vs as a float (dim, k >= 1) block; another shape, or what
    ``_as_reals`` rejects, raises ValidationError naming the block."""
    vs = _as_reals("block", vs)
    if vs.ndim != 2 or vs.shape[0] != dim or vs.shape[1] < 1:
        raise ValidationError(f"block shape {vs.shape} != ({dim}, k >= 1)")
    return vs


def check_orthonormal(name: str, d) -> None:
    """Raise ValidationError naming d unless d is a 2-d array of real numbers
    (``_as_reals``) and every entry of |D^T D - I| is within 1e-8; a NaN entry
    is not, and a basis of no columns has no entry, so it passes."""
    d = _as_reals(name, d)
    if d.ndim != 2:
        raise ValidationError(f"{name} must be 2-d, got shape {d.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN gram fails below
        gram = d.T @ d
    if not np.max(np.abs(gram - np.eye(len(gram))), initial=0.0) <= 1e-8:
        raise ValidationError(f"{name} must be orthonormal within 1e-8")


def require_finite(stage: str, error: type = NumericalError, **values) -> None:
    """Raise error on the first value with a non-finite entry, naming the
    stage, the value and, for an array, the first such entry's index:
    "{stage}: non-finite {name} at [i, j] = {entry}". A value that is not
    numbers (None, a string, an object array, a ragged nest) raises
    ValidationError naming it."""
    for name, value in values.items():
        try:
            finite = np.isfinite(value)
        except (TypeError, ValueError):
            raise ValidationError(f"{stage}: {name} must be numbers, got {value!r}") from None
        if not finite.all():
            at = tuple(np.argwhere(~finite)[0]) if np.ndim(value) else ()
            where = f" at [{', '.join(map(str, at))}]" if at else ""
            raise error(f"{stage}: non-finite {name}{where} = {np.asarray(value)[at]}")


def check_nonnegative(**values) -> None:
    """Raise on the first value that is not a finite number >= 0, naming it."""
    for name, value in values.items():
        if not is_nonnegative(value):
            raise ValidationError(f"{name} must be >= 0 and finite, got {value!r}")


def check_domains(section: str, rows) -> None:
    """Raise on the first (key, value, ok, needs) row that is not ok, naming its key."""
    for key, value, ok, needs in rows:
        if not ok:
            raise ValidationError(f"{key} {value!r}: config key {key!r} in [{section}] "
                                  f"must be {needs}")
