"""Deterministic 64-bit random generator used by the simulator.

SplitMix64 is tiny, fully specified, and trivial to reimplement bit-exactly,
which keeps simulation reports reproducible for a given seed. The generator
name is recorded in every report so a reader can tell which algorithm
produced the stream.

The two delay models drawn from it (network latency, re-allocation
handshake time) are exact rationals in seconds. The simulator draws them as
whole ticks of ``1/scale`` seconds: ``sampler(scale)`` is exact whenever the
model's ``tick_denominator`` divides ``scale``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .rational import Node, number_text

RNG_NAME = "splitmix64"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64 sequence starting from a 64-bit seed."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def ticks(seconds: Fraction, scale: int) -> int:
    """``seconds`` as a whole number of ticks of ``1/scale`` seconds."""
    seconds = Fraction(seconds)
    count, rest = divmod(seconds.numerator * scale, seconds.denominator)
    if rest:
        raise ValueError(f"{number_text(seconds)} s is not a whole number of 1/{number_text(scale)} s ticks")
    return count


@dataclass(frozen=True)
class FixedDelay:
    """Constant delay in seconds."""

    seconds: Fraction

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"delay must be >= 0 seconds, got {number_text(self.seconds)}")

    @property
    def max_seconds(self) -> Fraction:
        return self.seconds

    @property
    def tick_denominator(self) -> int:
        return Fraction(self.seconds).denominator

    def sampler(self, scale: int) -> Callable[[SplitMix64], int]:
        """The delay in ticks of ``1/scale`` seconds; it draws nothing from the generator."""
        delay = ticks(self.seconds, scale)
        return lambda rng: delay


@dataclass(frozen=True)
class UniformDelay:
    """Delay drawn uniformly from [min_seconds, max_seconds) seconds."""

    min_seconds: Fraction
    max_seconds: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.min_seconds <= self.max_seconds:
            low, high = number_text(self.min_seconds), number_text(self.max_seconds)
            raise ValueError(f"delay needs 0 <= min <= max seconds, got [{low}, {high}]")

    @property
    def _step(self) -> Fraction:
        """The grid spacing: a sample is ``min_seconds`` plus ``u`` steps, ``0 <= u < 2**64``."""
        return (Fraction(self.max_seconds) - Fraction(self.min_seconds)) / (1 << 64)

    @property
    def tick_denominator(self) -> int:
        return math.lcm(Fraction(self.min_seconds).denominator, self._step.denominator)

    def sampler(self, scale: int) -> Callable[[SplitMix64], int]:
        """A sample in ticks of ``1/scale`` seconds, uniform over a 2**64 grid of [min, max); one draw each."""
        low, step = ticks(self.min_seconds, scale), ticks(self._step, scale)
        return lambda rng: low + step * rng.next_u64()


DelayModel = FixedDelay | UniformDelay

_UNIT_SECONDS = {"ms": Fraction(1, 1000), "seconds": Fraction(1)}


def delay_from_dict(node: Node, unit: str) -> DelayModel:
    """Read ``{"fixed_<unit>": x}`` or ``{"uniform_<unit>": [low, high]}``, not both.

    ``unit`` is ``"ms"`` or ``"seconds"``; the model is in seconds either way.
    """
    scale = _UNIT_SECONDS[unit]
    fixed, uniform = f"fixed_{unit}", f"uniform_{unit}"
    seconds = node.get(fixed, Node.fraction, None)
    bounds = node.get(uniform, lambda pair: [bound.fraction() * scale for bound in pair], None)
    if seconds is not None:
        if bounds is not None:
            raise node.fail(f"must specify {fixed} or {uniform}, not both")
        return node.build(FixedDelay, seconds * scale)
    if bounds is None:
        raise node.fail(f"must specify {fixed} or {uniform}, got {node.value!r}")
    if len(bounds) != 2:
        raise node[uniform].fail(f"expected [low, high], got {node[uniform].value!r}")
    return node.build(UniformDelay, *bounds)
