"""Heuristic allocation of message flows to network capacity bins.

The criticality-aware best-fit allocator walks criticality levels from the
highest down to 1. At each level it does two things: it tries to relax flows
that are already allocated at a stricter (numerically higher) level down to
the current one, and it best-fit-allocates flows that declare the current
level but hold no allocation yet. Running relaxation first favours the flows
that declared high-criticality service; running new allocations first (the
inverted variant) favours serving as many flows as possible.

Twelve classic baselines are provided for comparison: first/best/worst fit,
each in a plain and a decreasing variant, each run with every flow pinned to
either its lowest or its highest defined criticality level.

Every algorithm refuses two flows with one id, and two networks with one id,
before it places anything. A table maps each served flow's id to an
``Allocation(network_id, level)``; within one call, flows placed on the same
network at the same level share one ``Allocation`` object.

Determinism rules used throughout (ties are never broken randomly):

* flows are visited in their input order;
* networks are scanned in their declaration order, and equal best/worst-fit
  residuals resolve to the earlier network;
* decreasing variants sort by utilization, stable on input order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flows import FlowSpec, utilization
from .networks import NetworkProfile
from .rational import number_text

#: The twelve classic baselines in the comparison table's row order. A name
#: reads ``<l|h>-<ff|wf|bf>[d]``: every flow pinned to its lowest (``l``) or
#: highest (``h``) declared level, first/worst/best fit, and ``d`` for flows
#: sorted by decreasing utilization.
BASELINE_NAMES = (
    "l-ff", "l-ffd", "h-ff", "h-ffd",
    "l-wf", "l-wfd", "h-wf", "h-wfd",
    "l-bf", "l-bfd", "h-bf", "h-bfd",
)

#: Row order used by the comparison table: the baselines, then the
#: criticality-aware pair; callers append "exact" for the optimal solver.
HEURISTIC_NAMES = BASELINE_NAMES + ("cabf", "cabf-inv")


@dataclass(frozen=True)
class Allocation:
    """Service on one network at one criticality level; the table key names the flow."""

    network_id: str
    level: int


@dataclass(frozen=True)
class AllocatorConfig:
    """Shared allocator parameters.

    ``factor`` scales the C/T quotient into the capacity unit (see
    :func:`resilient_alloc.flows.utilization`).
    """

    l_max: int
    factor: int

    def __post_init__(self) -> None:
        if self.l_max < 1:
            raise ValueError(f"l_max must be >= 1, got {number_text(self.l_max)}")
        if self.factor < 1:
            raise ValueError(f"factor must be >= 1, got {number_text(self.factor)}")


class AllocationTable:
    """Flow id -> ``Allocation``, plus residual capacity per network.

    At most one entry exists per flow, and the residual of every network
    stays non-negative; ``place`` refuses an entry that would overload its
    network. Network ids must be distinct.
    """

    def __init__(self, networks: list[NetworkProfile]) -> None:
        self.entries: dict[str, Allocation] = {}
        self.residual: dict[str, int] = {}
        for profile in networks:
            if profile.id in self.residual:
                raise ValueError(f"duplicate network id {profile.id!r}")
            self.residual[profile.id] = profile.capacity_micro_bps

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AllocationTable):
            return NotImplemented
        return self.entries == other.entries and self.residual == other.residual

    def __repr__(self) -> str:
        return f"AllocationTable(entries={self.entries!r})"

    def place(self, flow_id: str, allocation: Allocation, demand_micro_bps: int) -> None:
        if flow_id in self.entries:
            raise ValueError(f"flow {flow_id!r} is already allocated")
        remaining = self.residual[allocation.network_id] - demand_micro_bps
        if remaining < 0:
            raise ValueError(
                f"network {allocation.network_id!r} cannot take {number_text(demand_micro_bps)} micro-bps"
            )
        self.entries[flow_id] = allocation
        self.residual[allocation.network_id] = remaining


class Placements(dict):
    """``(network position, level, type of level)`` -> its one ``Allocation``, built on first use.

    An allocator keeps one for a single call, so its table holds at most one
    placement object per network and level. The type keeps a ``True`` level
    apart from the equal ``1``, as the report writer does.
    """

    def __init__(self, networks: list[NetworkProfile]) -> None:
        super().__init__()
        self.network_ids = [p.id for p in networks]

    def __missing__(self, key: tuple[int, int, type]) -> Allocation:
        placed = self[key] = Allocation(self.network_ids[key[0]], key[1])
        return placed


def check_flow_ids(flows: list[FlowSpec]) -> None:
    """Raise ValueError naming the first flow id that appears twice."""
    seen: set[str] = set()
    for flow in flows:
        if flow.id in seen:
            raise ValueError(f"duplicate flow id {flow.id!r}")
        seen.add(flow.id)


def _first_fit(demand: int, residual: list[int]) -> int:
    """Position of the first network that fits ``demand``, or -1."""
    for j, left in enumerate(residual):
        if left >= demand:
            return j
    return -1


def _best_fit(demand: int, residual: list[int]) -> int:
    """Position of the fitting network with the least residual (the earlier on a tie), or -1."""
    best, best_left = -1, 0
    for j, left in enumerate(residual):
        if left >= demand and (best < 0 or left < best_left):
            best, best_left = j, left
    return best


def _worst_fit(demand: int, residual: list[int]) -> int:
    """Position of the fitting network with the most residual (the earlier on a tie), or -1."""
    best, best_left = -1, -1
    for j, left in enumerate(residual):
        if left >= demand and left > best_left:
            best, best_left = j, left
    return best


_FITS = {"ff": _first_fit, "bf": _best_fit, "wf": _worst_fit}


def _flows_by_level(flows: list[FlowSpec], factor: int) -> dict[int, list[tuple[str, int]]]:
    """Declared levels, highest first, each with its ``(flow id, demand)`` pairs in input order."""
    by_level: dict[int, list[tuple[str, int]]] = {}
    for flow in flows:
        for level, qos in flow.qos.items():
            by_level.setdefault(level, []).append((flow.id, factor * qos.demand_micro_bps))
    return dict(sorted(by_level.items(), reverse=True))


def _criticality_aware(
    flows: list[FlowSpec],
    networks: list[NetworkProfile],
    cfg: AllocatorConfig,
    admit_first: bool,
) -> AllocationTable:
    table = AllocationTable(networks)
    check_flow_ids(flows)
    residual = [p.capacity_micro_bps for p in networks]
    # flow id -> (network position, level, demand), in the order the table takes them.
    held: dict[str, tuple[int, int, int]] = {}
    # Levels no flow declares change nothing; skipping them keeps a huge l_max cheap.
    for level, declared_here in _flows_by_level(flows, cfg.factor).items():
        # The admit pass takes flows with no entry; the relax pass takes flows
        # held at a stricter level and puts the entry back if nothing fits.
        # Either way a flow it tries ends up last in ``held``.
        for admitting in (admit_first, not admit_first):
            for flow_id, demand in declared_here:
                current = held.get(flow_id)
                if admitting:
                    if current is not None:
                        continue
                else:
                    if current is None or current[1] <= level:
                        continue
                    del held[flow_id]
                    residual[current[0]] += current[2]
                j = _best_fit(demand, residual)
                if j >= 0:
                    residual[j] -= demand
                    held[flow_id] = (j, level, demand)
                elif current is not None:
                    residual[current[0]] -= current[2]
                    held[flow_id] = current
    placements = Placements(networks)
    for flow_id, (j, level, demand) in held.items():
        table.place(flow_id, placements[j, level, type(level)], demand)
    return table


def cabf(
    flows: list[FlowSpec], networks: list[NetworkProfile], cfg: AllocatorConfig
) -> AllocationTable:
    """Criticality-aware best fit: relax existing entries, then admit new ones."""
    return _criticality_aware(flows, networks, cfg, admit_first=False)


def cabf_inv(
    flows: list[FlowSpec], networks: list[NetworkProfile], cfg: AllocatorConfig
) -> AllocationTable:
    """Inverted variant: admit new flows at each level before relaxing."""
    return _criticality_aware(flows, networks, cfg, admit_first=True)


def heuristic(
    name: str,
    flows: list[FlowSpec],
    networks: list[NetworkProfile],
    cfg: AllocatorConfig,
) -> AllocationTable:
    """Run the baseline ``name`` (one of BASELINE_NAMES); a flow with no level or that fits nowhere is skipped."""
    if name not in BASELINE_NAMES:
        raise ValueError(f"unknown heuristic {name!r}; known: {', '.join(BASELINE_NAMES)}")
    table = AllocationTable(networks)
    check_flow_ids(flows)
    pick_level = max if name[0] == "h" else min
    chosen: list[tuple[str, int, int]] = []
    for flow in flows:
        if not flow.qos:
            continue
        level = pick_level(flow.qos)
        chosen.append((flow.id, level, cfg.factor * flow.qos[level].demand_micro_bps))
    if name.endswith("d"):
        chosen.sort(key=lambda item: item[2], reverse=True)

    fit = _FITS[name[2:4]]
    residual = [p.capacity_micro_bps for p in networks]
    placements = Placements(networks)
    for flow_id, level, demand in chosen:
        j = fit(demand, residual)
        if j >= 0:
            residual[j] -= demand
            table.place(flow_id, placements[j, level, type(level)], demand)
    return table


def verify_allocation_table(
    table: AllocationTable,
    flows: list[FlowSpec],
    networks: list[NetworkProfile],
    cfg: AllocatorConfig,
) -> None:
    """Raise ValueError unless the table satisfies all structural invariants."""
    flows_by_id = {flow.id: flow for flow in flows}
    load: dict[str, int] = {p.id: 0 for p in networks}
    for flow_id, allocation in table.entries.items():
        flow = flows_by_id.get(flow_id)
        if flow is None:
            raise ValueError(f"allocation for unknown flow {flow_id!r}")
        if allocation.network_id not in load:
            raise ValueError(f"allocation on unknown network {allocation.network_id!r}")
        demand = utilization(flow, allocation.level, cfg.factor)
        if demand is None:
            raise ValueError(f"flow {flow_id!r} has no QoS at level {allocation.level}")
        load[allocation.network_id] += demand
    for profile in networks:
        used = load[profile.id]
        if used > profile.capacity_micro_bps:
            raise ValueError(f"network {profile.id!r} overloaded: {number_text(used)} micro-bps")
        expected_residual = profile.capacity_micro_bps - used
        residual = table.residual.get(profile.id)
        if residual != expected_residual:
            shown = "None" if residual is None else number_text(residual)
            raise ValueError(
                f"residual mismatch on {profile.id!r}: {shown} != {number_text(expected_residual)}"
            )
