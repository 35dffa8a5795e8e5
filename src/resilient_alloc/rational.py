"""Exact rational parsing, file reading and JSON type checks for the JSON loaders.

All time- and rate-like quantities in this package are exact `Fraction`
values so that repeated runs produce bit-identical results. JSON carries
them as plain numbers (or strings such as "1/3"); floats are converted via
their shortest decimal representation, so `0.1` becomes exactly 1/10.
Counts and sizes must be whole numbers: `12`, `12.0` and `"12"` are 12,
`1.9` is an error rather than 1. A string's decimal exponent is capped at
400 in magnitude, beyond the float range: `Fraction` would expand
`"1e10000000"` into a ten-million-digit integer.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

MAX_EXPONENT = 400


def as_fraction(value: object) -> Fraction:
    """Convert a JSON scalar to an exact Fraction."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise TypeError(f"expected a finite number, got {value!r}")
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            exponent = int(value.lower().partition("e")[2] or 0)
        except ValueError:
            exponent = 0  # not an exponent: Fraction reports the bad string
        if abs(exponent) > MAX_EXPONENT:
            raise TypeError(f"expected an exponent of at most {MAX_EXPONENT} in magnitude, got {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"expected a number, got {value!r}")


def as_int(value: object) -> int:
    """Convert a JSON scalar holding a whole number to an int."""
    number = as_fraction(value)
    if number.denominator != 1:
        raise TypeError(f"expected a whole number, got {value!r}")
    return number.numerator


def read_json(path: str | Path) -> object:
    """Parse a JSON file; a document nested too deeply to parse is a ValueError."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


_JSON_KINDS = {dict: "an object", list: "a list"}


def expect(value: object, kind: type, what: str):
    """Return ``value`` if it is a JSON object (dict) or list; else raise ValueError."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, got {type(value).__name__}")
    return value
