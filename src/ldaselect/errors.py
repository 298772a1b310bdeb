"""Exception types shared across the package, and the input checks that raise them."""

import math
import numbers


class LdaSelectError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LdaSelectError):
    """Invalid configuration, arguments or preconditions."""


class FormatError(LdaSelectError):
    """Malformed or corrupt data file (manifest, features, models, corpora)."""


class StageError(LdaSelectError):
    """A pipeline stage failed; the message names the stage and the cause."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage


def validate_seed(seed, name: str = "seed") -> None:
    """Refuse a seed that is not a non-negative integer, which
    ``np.random.default_rng`` would reject with a numpy error."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"{name} must be a non-negative integer, got {seed}")


def validate_count(value, name: str) -> None:
    """Refuse a count or cap that is not an integer of at least 1: a NaN or
    infinite sweep cap is never reached, and numpy refuses a fractional size
    with an error of its own."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValidationError(f"{name} must be an integer >= 1, got {value}")


def validate_positive(value, name: str) -> None:
    """Refuse a tolerance, scale or budget that is not finite and positive:
    NaN passes every comparison that should stop a loop or a budget."""
    if not 0 < value < math.inf:
        raise ValidationError(f"{name} must be finite and positive, got {value}")
