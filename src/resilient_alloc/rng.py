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

from .rational import as_fraction

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

    def sample(self, rng: SplitMix64) -> Fraction:
        return Fraction(self.seconds)


@dataclass(frozen=True)
class UniformDelay:
    """Delay drawn uniformly from [min_seconds, max_seconds) seconds."""

    min_seconds: Fraction
    max_seconds: Fraction

    def sample(self, rng: SplitMix64) -> Fraction:
        return rng.uniform(Fraction(self.min_seconds), Fraction(self.max_seconds))


DelayModel = FixedDelay | UniformDelay

_UNIT_SECONDS = {"ms": Fraction(1, 1000), "seconds": Fraction(1)}


def delay_from_dict(obj: dict, name: str, unit: str) -> DelayModel:
    """Parse ``{"fixed_<unit>": x}`` or ``{"uniform_<unit>": [low, high]}``.

    ``unit`` is ``"ms"`` or ``"seconds"``; the model is in seconds either way.
    """
    scale = _UNIT_SECONDS[unit]
    fixed, uniform = f"fixed_{unit}", f"uniform_{unit}"
    if fixed in obj:
        return FixedDelay(as_fraction(obj[fixed]) * scale)
    if uniform in obj:
        low, high = obj[uniform]
        return UniformDelay(as_fraction(low) * scale, as_fraction(high) * scale)
    raise ValueError(f"{name} must specify {fixed} or {uniform}, got {obj!r}")
