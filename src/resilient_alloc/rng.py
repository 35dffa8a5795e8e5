"""Deterministic 64-bit random generator used by the simulator.

SplitMix64 is tiny, fully specified, and trivial to reimplement bit-exactly,
which keeps simulation reports reproducible for a given seed. The generator
name is recorded in every report so a reader can tell which algorithm
produced the stream.

The two delay models drawn from it (network latency, re-allocation
handshake time) are exact rationals in seconds.
"""

from __future__ import annotations

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

    def uniform(self, low: Fraction, high: Fraction) -> Fraction:
        """Exact rational sample in [low, high), uniform over a 2**64 grid."""
        return low + (high - low) * Fraction(self.next_u64(), 1 << 64)


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

    def sample(self, rng: SplitMix64) -> Fraction:
        return Fraction(self.seconds)


@dataclass(frozen=True)
class UniformDelay:
    """Delay drawn uniformly from [min_seconds, max_seconds) seconds."""

    min_seconds: Fraction
    max_seconds: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.min_seconds <= self.max_seconds:
            low, high = number_text(self.min_seconds), number_text(self.max_seconds)
            raise ValueError(f"delay needs 0 <= min <= max seconds, got [{low}, {high}]")

    def sample(self, rng: SplitMix64) -> Fraction:
        return rng.uniform(Fraction(self.min_seconds), Fraction(self.max_seconds))


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
