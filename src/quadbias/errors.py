"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class NumericalError(RuntimeError):
    """Raised when a computation fails numerically (divergence, non-convergence)."""

    def __init__(self, message: str, residual_norms=None):
        super().__init__(message)
        self.residual_norms = residual_norms


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
