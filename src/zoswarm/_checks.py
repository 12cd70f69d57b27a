"""The input rule, checked before anything is drawn, written or run: every count,
size, index and seed is an integer, and every real-valued parameter a finite
number inside its interval.  A ``bool`` is neither, and nothing is converted."""

import numbers

__all__ = ["is_integer", "check_integer", "is_number", "check_number"]


def is_integer(value) -> bool:
    """True for a Python or numpy integer that is not a ``bool``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_integer(name: str, value, least: int) -> None:
    """A ``ValueError`` naming ``name`` unless ``value`` is an integer of at least ``least``."""
    if not (is_integer(value) and value >= least):
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def is_number(value) -> bool:
    """True for a Python or numpy real number that is not a ``bool``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_number(name: str, value, interval: str) -> None:
    """A ``ValueError`` naming ``name`` unless ``value`` is a finite number in ``interval``,
    spelled as the message shows it, such as ``"(0, 1]"``, with any end at ``inf`` open."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = is_number(value) and (low <= value if interval[0] == "[" else low < value)
    if not (above and (value <= high if interval[-1] == "]" else value < high)):
        raise ValueError(f"{name} must be a finite number in {interval}, got {value!r}")
