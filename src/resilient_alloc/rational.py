"""The JSON input boundary: file reading and the path-aware reader behind every loader.

`Node` pairs a JSON value with its path (``flows[0].qos.1.t``); a read error
names that path, or the document's name (``flow set``) at the root, and shows
at most 40 characters of the bad value. Numbers are exact `Fraction`s, so
runs are bit-identical: a float converts via its shortest decimal (`0.1` is
1/10) and strings such as "1/3" are accepted. Counts must be whole: `12`,
`12.0` and `"12"` are 12, `1.9` is an error. A string's decimal exponent is
capped at 400 in magnitude: `Fraction` would expand `"1e10000000"` into a
ten-million-digit integer. Names and ids are strings; an integer stands for
its decimal text.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Callable, Iterator
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

MAX_EXPONENT = 400


def number_text(value: Fraction | int | float) -> str:
    """``value`` for a one-line message: an int of at most 20 digits in full, otherwise as ``:g``
    prints its float, or to 6 digits (``-1e+400``) where an int or Fraction overflows or
    underflows a float."""
    if isinstance(value, int) and abs(value) < 10**20:
        return str(value)
    try:
        approx = float(value)
    except OverflowError:
        approx = math.inf
    if sys.float_info.min <= abs(approx) < math.inf or value == 0 or isinstance(value, float):
        return f"{approx:g}"
    digits = Context(prec=6).divide(Decimal(value.numerator), Decimal(value.denominator))
    return f"{digits.normalize():g}"


def read_json(path: str | Path) -> object:
    """Parse a JSON file; text that is not UTF-8 or not JSON is a ValueError naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # invalid UTF-8 or JSON, or an int over the digit limit
        raise ValueError(f"{path}: {exc}") from None


class Node:
    """One value of a JSON document and its path; reads fail with ValueError naming the path."""

    def __init__(self, value: object, path: str, root: bool = False) -> None:
        self.value, self.path = value, path
        self._prefix = "" if root else path + "."

    def fail(self, message: str) -> ValueError:
        return ValueError(f"{self.path}: {message}")

    def _key(self, key: str) -> str:
        # A key that could break the one-line message is shown quoted.
        return self._prefix + (key if key.isprintable() else repr(key))

    def _container(self, kind: type, article: str):
        if not isinstance(self.value, kind):
            raise self.fail(f"must be {article}, got {type(self.value).__name__}")
        return self.value

    def __getitem__(self, key: str) -> Node:
        child = Node(self._container(dict, "an object").get(key), self._key(key))
        if key not in self.value:
            raise child.fail("missing")
        return child

    def get(self, key: str, read: Callable[[Node], object], default: object) -> object:
        """``read(self[key])``, or ``default`` when the key is absent or null."""
        value = self._container(dict, "an object").get(key)
        return default if value is None else read(Node(value, self._key(key)))

    def __iter__(self) -> Iterator[Node]:
        for index, value in enumerate(self._container(list, "a list")):
            yield Node(value, f"{self.path}[{index}]")

    def items(self) -> Iterator[tuple[Node, Node]]:
        """An object's (key, value) pairs, both carrying the entry's path."""
        for key, value in self._container(dict, "an object").items():
            yield Node(key, self._key(key)), Node(value, self._key(key))

    def fraction(self) -> Fraction:
        value = self.value
        if isinstance(value, float) and not math.isfinite(value):
            raise self.fail(f"expected a finite number, got {value!r:.40}")
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise self.fail(f"expected a number, got {value!r:.40}")
        if isinstance(value, str):
            try:
                exponent = int(value.lower().partition("e")[2] or 0)
            except ValueError:
                exponent = 0  # not an exponent: Fraction rejects the string
            if abs(exponent) > MAX_EXPONENT:
                raise self.fail(f"expected an exponent of at most {MAX_EXPONENT} in magnitude, got {value!r:.40}")
        try:
            return Fraction(str(value) if isinstance(value, float) else value)
        except ZeroDivisionError:
            raise self.fail(f"expected a finite number, got {value!r:.40}") from None
        except ValueError:  # not a number, or more digits than int() converts
            raise self.fail(f"expected a number, got {value!r:.40}") from None

    def int(self) -> int:
        number = self.fraction()
        if number.denominator != 1:
            raise self.fail(f"expected a whole number, got {self.value!r:.40}")
        return number.numerator

    def text(self) -> str:
        if isinstance(self.value, bool) or not isinstance(self.value, (str, int)):
            raise self.fail(f"expected a string, got {self.value!r:.40}")
        return str(self.value)

    def build(self, ctor: Callable, *args, **kwargs):
        """``ctor(*args, **kwargs)``; a ValueError it raises is prefixed with this path."""
        try:
            return ctor(*args, **kwargs)
        except ValueError as exc:
            raise self.fail(str(exc)) from None
