"""The one rule for every count, size, index and seed: a Python or numpy
integer, never a ``bool``, checked before anything is drawn, written or run."""

import numbers

__all__ = ["is_integer", "check_integer"]


def is_integer(value) -> bool:
    """True for a Python or numpy integer that is not a ``bool``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_integer(name: str, value, least: int) -> None:
    """A ``ValueError`` naming ``name`` unless ``value`` is an integer of at least ``least``."""
    if not (is_integer(value) and value >= least):
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
