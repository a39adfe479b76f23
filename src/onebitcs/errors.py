"""Exception types shared across the package, and the integer check that raises one."""

import operator


class InvalidArgumentError(ValueError):
    """An argument violates an operation's precondition."""


class DegenerateIterateError(RuntimeError):
    """An iterate collapsed to the zero vector and cannot be normalized."""


class SamplingExhaustedError(RuntimeError):
    """Rejection sampling hit its retry budget without an admissible draw."""


def _as_int(value, name: str) -> int:
    """``value`` through ``operator.index``: 2.5, 2.0 and "2" are rejected, not truncated or parsed."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}") from None
