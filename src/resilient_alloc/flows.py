"""Mixed-criticality message flows and their bandwidth utilization.

A message flow declares, per criticality level, the largest message it will
send (C, bytes) and the minimum interval between consecutive messages
(T, seconds). Level 1 is normal operation with the most generous service;
higher levels describe progressively degraded service. A level with no
declared requirement means the flow requests no service at that level.

Utilization is the bandwidth demand ``factor * C / T`` expressed as an
integer number of micro-bits-per-second. Fixed-point integers (never floats)
keep capacity comparisons and tie-breaking reproducible across runs and
platforms. ``factor`` converts the byte-based C/T quotient into the unit the
network capacities are quoted in: 8 treats capacities as bits per second,
1 compares the raw quotient directly.

Each ``QosRequirement`` computes its factor-1 demand once, when it is built,
as ``demand_micro_bps``; ``utilization`` multiplies it by ``factor``. Each
``FlowSpec`` likewise reads its ``qos`` once, when it is built, into
``ladder``: its ``(level, demand_micro_bps)`` pairs in ascending level order.
The allocators and the exact solver read the ladder, not the dict.

A level is a plain ``int``. A ``bool``, an ``int`` subclass such as an
``IntEnum`` member, or any other type is refused, so ``True`` never stands
for a level ``1`` that another flow declares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .rational import Node, number_text, read_json

MICRO = 10**6

#: Characters that may not appear in flow names; the wire protocol uses
#: commas, colons, angle brackets and newlines as delimiters.
FORBIDDEN_NAME_CHARS = frozenset(",:<>\n")


def check_flow_name(name: str) -> None:
    """Raise ValueError if ``name`` is empty or holds a wire delimiter."""
    if name and FORBIDDEN_NAME_CHARS.isdisjoint(name):
        return
    if not name:
        raise ValueError("flow name must be non-empty")
    bad = FORBIDDEN_NAME_CHARS.intersection(name)
    raise ValueError(f"flow name {name!r} contains forbidden characters {sorted(bad)}")


class ValidationError(ValueError):
    """A flow set violates one of its structural rules.

    The message starts with the offending value's path in the flow set's
    JSON form (``flows[0].qos.3``), as the loaders' read errors do.
    """

    def __init__(self, flow_id: str | None, rule: str, detail: str, path: str) -> None:
        flow = "" if flow_id is None else f"flow {flow_id!r}: "
        super().__init__(f"{path}: [{rule}] {flow}{detail}")
        self.flow_id = flow_id
        self.rule = rule


@dataclass(frozen=True)
class QosRequirement:
    """Service requirement of one flow at one criticality level.

    message_size_bytes is the maximum message size C; min_interval_seconds
    is the minimum spacing T between consecutive messages. demand_micro_bps,
    C/T in micro-bps rounded half-up, is no part of ``repr``, ``==`` or ``hash``.
    """

    message_size_bytes: int
    min_interval_seconds: Fraction
    demand_micro_bps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.message_size_bytes < 1:
            raise ValueError(f"message size must be >= 1, got {number_text(self.message_size_bytes)}")
        t = self.min_interval_seconds
        if t <= 0:
            raise ValueError(f"interval must be > 0, got {number_text(t)}")
        # floor(C * MICRO / T + 1/2)
        num = 2 * self.message_size_bytes * MICRO * t.denominator
        object.__setattr__(self, "demand_micro_bps", (num + t.numerator) // (2 * t.numerator))


@dataclass(frozen=True)
class FlowSpec:
    """A declared message flow with per-level QoS requirements.

    ``qos`` maps criticality level (int, 1-based) to the requirement at that
    level. Absent levels mean no service is requested there. A level must be
    a plain ``int``; any other type, ``bool`` included, is a ``ValueError``.

    ``qos`` is read once, at construction: ``ladder`` holds its
    ``(level, demand_micro_bps)`` pairs in ascending level order, at factor
    1, and is no part of ``repr`` or ``==``. ``dataclasses.replace`` builds
    a new ladder; changing the dict in place does not.
    """

    id: str
    app: str
    name: str
    qos: dict[int, QosRequirement] = field(default_factory=dict)
    ladder: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_flow_name(self.name)
        qos = self.qos
        for level in qos:
            if type(level) is not int:
                raise ValueError(f"qos level must be an int, got {level!r:.40}")
        object.__setattr__(self, "ladder", tuple([(level, qos[level].demand_micro_bps) for level in sorted(qos)]))


@dataclass(frozen=True)
class FlowSet:
    """A flow catalogue with the number of criticality levels it assumes."""

    flows: tuple[FlowSpec, ...]
    l_max: int


def utilization(flow: FlowSpec, level: int, factor: int) -> int | None:
    """Bandwidth demand of ``flow`` at ``level`` in integer micro-bps.

    Returns None when the flow declares no service at that level. The C/T
    quotient is rounded half-up at micro-bps resolution (the requirement's
    ``demand_micro_bps``) and then multiplied by ``factor``, so
    ``utilization(f, L, 8) == 8 * utilization(f, L, 1)`` holds exactly for
    every input.
    """
    qos = flow.qos.get(level)
    return None if qos is None else factor * qos.demand_micro_bps


def validate_flow_set(flows: list[FlowSpec] | tuple[FlowSpec, ...], l_max: int) -> None:
    """Check set-level rules; raise ValidationError naming flow and rule."""
    if l_max < 1:
        raise ValidationError(None, "bad-l-max", f"must be >= 1, got {number_text(l_max)}", "l_max")
    seen: set[str] = set()
    for index, flow in enumerate(flows):
        path = f"flows[{index}]"
        if flow.id in seen:
            raise ValidationError(flow.id, "duplicate-id", "flow id appears more than once", f"{path}.id")
        seen.add(flow.id)
        if not flow.qos:
            raise ValidationError(flow.id, "no-levels", "flow declares no QoS level", f"{path}.qos")
        for level in flow.qos:
            if not 1 <= level <= l_max:
                raise ValidationError(flow.id, "bad-level", f"level {level} outside 1..{l_max}", f"{path}.qos.{level}")


def flow_from_dict(node: Node) -> FlowSpec:
    qos: dict[int, QosRequirement] = {}
    for key, entry in node.get("qos", Node.items, ()):
        level = key.int()
        if level in qos:
            raise key.fail(f"level {number_text(level)} appears more than once")
        qos[level] = entry.build(QosRequirement, entry["c"].int(), entry["t"].fraction())
    return node.build(FlowSpec, node["id"].text(), node.get("app", Node.text, ""), node["name"].text(), qos)


def flow_set_from_dict(obj: object) -> FlowSet:
    doc = Node(obj, "flow set", root=True)
    flows, l_max = tuple(map(flow_from_dict, doc["flows"])), doc["l_max"].int()
    validate_flow_set(flows, l_max)
    return FlowSet(flows=flows, l_max=l_max)


def load_flow_set(path: str | Path) -> FlowSet:
    """Read a ``{"l_max": .., "flows": [..]}`` document from disk."""
    return flow_set_from_dict(read_json(path))
