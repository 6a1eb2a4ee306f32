"""Exception types shared across the package, and the rule settings convert by.

The CLI maps these onto exit codes: usage/config problems exit 2, data
problems exit 3, numeric problems exit 4.
"""

import math
import numbers
from dataclasses import fields


class ShapeError(ValueError):
    """A matrix or tensor has the wrong shape for the requested operation."""


class RankError(ValueError):
    """A requested rank is outside the valid range for the operand."""


class NumericError(ArithmeticError):
    """Non-finite values or a numerically impossible result (e.g. a
    covariance with a clearly negative eigenvalue)."""


class DataError(ValueError):
    """Malformed input data: bad rows, out-of-vocabulary indices,
    degenerate label sets."""


class EmptyAccumulatorError(DataError):
    """Statistics were requested from an accumulator that saw no samples."""


class ConfigError(ValueError):
    """A run configuration is malformed (unknown keys, bad stage order)."""


def as_flag(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def as_number(value, kind: type, where: str):
    """``value`` as ``kind``, int or float; anything but a JSON number (a
    string or a boolean, say), a fraction where an int is due, a NaN or
    infinite float, or an int too large for a float raises ConfigError
    naming ``where``."""
    noun = "an integer" if kind is int else "a number"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{where} must be {noun}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{where} is too large, got {value!r}") from None
    if kind is int and not number.is_integer():
        raise ConfigError(f"{where} must be {noun}, got {value!r}")
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return kind(value)


def convert_fields(record, prefix: str = "") -> None:
    """Convert each field of the dataclass ``record`` in place by its
    annotation, read as a string: ``int``, ``float`` and ``float | None``
    (None stays) by :func:`as_number`, ``bool`` by :func:`as_flag` and
    ``list`` as a list of ints.  Errors name the field after ``prefix``."""
    kinds = {"int": int, "float": float, "float | None": float}
    for f in fields(record):
        value, where = getattr(record, f.name), prefix + f.name
        if f.type == "bool":
            value = as_flag(value, where)
        elif f.type == "list":
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{where} must be a list of integers, got {value!r}")
            value = [as_number(v, int, where) for v in value]
        elif value is not None or f.type != "float | None":
            value = as_number(value, kinds[f.type], where)
        setattr(record, f.name, value)
