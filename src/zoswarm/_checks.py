"""The input rule, checked before anything is drawn, written or run: every count,
size, index and seed is an integer, every real-valued parameter and every number a
problem returns a number finite as a float, every array a finite real array of its
expected shape, and every named option text equal to one of its choices.  A ``bool``
is neither an integer nor a number, and nothing but an array's dtype is converted."""

import math
import numbers

import numpy as np

__all__ = [
    "is_integer", "check_integer", "is_number", "is_finite", "check_number",
    "check_array", "check_point", "check_choice",
]

# one global lookup each on check_point's fast path, which every estimate takes
_NDARRAY, _FLOAT64 = np.ndarray, np.dtype(np.float64)


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


def is_finite(value) -> bool:
    """True for a number by :func:`is_number` that is finite as a float."""
    try:
        return is_number(value) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def check_number(name: str, value, interval: str) -> None:
    """A ``ValueError`` naming ``name`` unless ``value`` is a finite number in ``interval``,
    spelled as the message shows it, such as ``"(0, 1]"``, with any end at ``inf`` open."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = is_finite(value) and (low <= value if interval[0] == "[" else low < value)
    if not (above and (value <= high if interval[-1] == "]" else value < high)):
        raise ValueError(f"{name} must be a finite number in {interval}, got {value!r}")


def _read_array(value, shape: tuple) -> tuple[np.ndarray | None, str]:
    """``value`` as float64 and ``""``, or ``None`` and what keeps it from passing."""
    try:
        array = np.asarray(value)
    except ValueError:  # numpy reads no array from a ragged nesting
        return None, "a ragged sequence"
    if array.dtype.kind not in "iuf":  # bool, complex, text, bytes, object, dates
        return None, f"dtype {array.dtype}"
    fitted = tuple(got if isinstance(want, str) else want for got, want in zip(array.shape, shape))
    if array.ndim != len(shape) or array.shape != fitted or not array.size:
        return None, f"shape {array.shape}"
    array = np.asarray(array, dtype=np.float64)
    # min and max see any NaN or infinity without a temporary of the array's size
    if not (math.isfinite(array.min()) and math.isfinite(array.max())):
        index = tuple(np.argwhere(~np.isfinite(array))[0].tolist())
        return None, f"{array[index]} at index {index}"
    return array, ""


def check_array(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as float64, or a ``ValueError`` naming ``name`` unless numpy reads it as
    an integer or real-float array of finite entries and ``shape``: an exact size per
    axis, or a name such as ``"d"`` for any size of at least one.  A non-finite entry
    is named by the index of the first one."""
    array, fault = _read_array(value, shape)
    if fault:
        spelled = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        raise ValueError(f"{name} must be a finite real array of shape ({spelled}), got {fault}")
    return array


def check_point(x, size: int | None = None) -> np.ndarray:
    """``x`` by the array rule as a vector of ``size`` entries or, without ``size``,
    of any size ``"p"`` of at least one.  A 1-D float64 ``ndarray`` of that size,
    which is what a run passes, is returned on its dtype's identity, unscanned."""
    if type(x) is _NDARRAY and x.dtype is _FLOAT64 and x.ndim == 1:
        if len(x) == (size or len(x) or -1):  # the size asked for, or any but 0
            return x
    return check_array("x", x, ("p",) if size is None else (size,))


def check_choice(name: str, value, choices: tuple[str, ...]) -> None:
    """A ``ValueError`` naming ``name`` unless ``value`` is text equal to one of ``choices``."""
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
