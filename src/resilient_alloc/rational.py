"""Exact rational parsing and JSON type checks shared by the JSON loaders.

All time- and rate-like quantities in this package are exact `Fraction`
values so that repeated runs produce bit-identical results. JSON carries
them as plain numbers (or strings such as "1/3"); floats are converted via
their shortest decimal representation, so `0.1` becomes exactly 1/10.
"""

from __future__ import annotations

from fractions import Fraction


def as_fraction(value: object) -> Fraction:
    """Convert a JSON scalar to an exact Fraction."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"expected a number, got {value!r}")


_JSON_KINDS = {dict: "an object", list: "a list"}


def expect(value: object, kind: type, what: str):
    """Return ``value`` if it is a JSON object (dict) or list; else raise ValueError."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, got {type(value).__name__}")
    return value
