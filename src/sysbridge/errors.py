"""Exception types shared across the package, the finite-value check and
the dense-size limit."""

import dataclasses
import math


def check_finite(spec) -> None:
    """ValueError unless every float of dataclass ``spec``, also inside a
    tuple field, is finite: range checks such as ``x < 0`` let NaN pass."""
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v!r}")


class DimensionError(ValueError):
    """An input vector or matrix has an incompatible shape."""


class NumericalError(RuntimeError):
    """A numerical routine failed (e.g. SVD non-convergence, non-finite loss)."""


class DivergenceError(NumericalError):
    """An SDE integration produced a non-finite state.

    Carries the step index and time at which the blow-up was detected.
    """

    def __init__(self, message, step=None, t=None):
        super().__init__(message)
        self.step = step
        self.t = t


class ScheduleDomainError(ValueError):
    """A time outside the clipped schedule interval was requested."""


class UnsupportedVariantError(ValueError):
    """An operation was called with a schedule variant it does not support."""


class CapacityError(ValueError):
    """A dense materialization was requested above the supported size."""


MAX_DENSE_DIM = 256


def check_dense_dim(d: int, what: str) -> None:
    """CapacityError if a dense ``what`` over d signal dims exceeds MAX_DENSE_DIM."""
    if d > MAX_DENSE_DIM:
        raise CapacityError(f"{what} limited to d <= {MAX_DENSE_DIM}, got {d}")


class DegeneratePosteriorError(ValueError):
    """The observation is incompatible with the jointly singular model."""


class ConfigError(ValueError):
    """An experiment config file failed validation."""
