"""Heuristic allocation of message flows to network capacity bins.

The criticality-aware best-fit allocator walks criticality levels from the
highest down to 1. At each level it does two things: it tries to relax flows
that are already allocated at a stricter (numerically higher) level down to
the current one, and it best-fit-allocates flows that declare the current
level but hold no allocation yet. Running relaxation first favours the flows
that declared high-criticality service; running new allocations first (the
inverted variant) favours serving as many flows as possible. Two kinds of
pass cannot place anything and are skipped: the relax pass of the highest
declared level, and every admit pass once every flow holds a network (in a
validated flow set, every flow declares a level in ``1..l_max``). Skipping
them changes no table and no entry order.

Twelve classic baselines are provided for comparison: first/best/worst fit
(Johnson et al., SIAM J. Comput. 3(4), 1974), each in a plain and a
decreasing variant, each run with every flow pinned to either its lowest or
its highest defined criticality level. Each fit rule is one loop over a
table's flows, called once per table.

Every algorithm reads a flow's levels and factor-1 demands from its
``FlowSpec.ladder``, built once with the flow, and scales them by ``factor``
in each call. Levels are plain ``int`` values, so flows that declare the same
level are grouped, placed and reported as one level.

Every algorithm refuses two flows with one id, and two networks with one id,
before it places anything. Like the exact solver, every algorithm ignores a
declared level outside ``1..l_max`` and skips a flow that declares no other.
``verify_allocation_table`` and ``metrics.report`` refuse a repeated flow id
too. A table maps each served flow's id to an ``Allocation(network_id,
level)``; flows placed on the same network at the same level share one
``Allocation`` object, which the table builds. Every algorithm decides on
its own residuals and then enters its whole table in one
``AllocationTable.fill``, which recomputes the residuals and checks the
entries as a whole: a repeated flow id or an overloaded network refuses the
fill and leaves the table as it was.

Determinism rules used throughout (ties are never broken randomly):

* flows are visited in their input order;
* networks are scanned in their declaration order, and equal best/worst-fit
  residuals resolve to the earlier network;
* decreasing variants sort by utilization, stable on input order.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
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
    """Service on one network at one criticality level; the table key names the flow.

    The level is a plain ``int``; any other type, ``bool`` included, is a ``ValueError``.
    """

    network_id: str
    level: int

    def __post_init__(self) -> None:
        if type(self.level) is not int:
            raise ValueError(f"allocation level must be an int, got {self.level!r:.40}")


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
    stays non-negative: ``fill`` refuses a set of entries that would break
    either rule, and ``place`` enters one. Network ids must be distinct.

    The table builds its ``Allocation`` objects itself: entries on the same
    network at the same level share one.
    """

    def __init__(self, networks: list[NetworkProfile]) -> None:
        self.entries: dict[str, Allocation] = {}
        self.residual: dict[str, int] = {}
        for profile in networks:
            if profile.id in self.residual:
                raise ValueError(f"duplicate network id {profile.id!r}")
            self.residual[profile.id] = profile.capacity_micro_bps
        self._network_ids = list(self.residual)
        # ``level * width + position`` -> the one Allocation placed there.
        self._placements: dict[int, Allocation] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AllocationTable):
            return NotImplemented
        return self.entries == other.entries and self.residual == other.residual

    def __repr__(self) -> str:
        return f"AllocationTable(entries={self.entries!r})"

    def fill(self, rows: Iterable[tuple[str, int, int, int]]) -> None:
        """Enter ``(flow id, network position, level, demand)`` rows in their order, all or none.

        Each network's residual falls by its rows' demands. A flow id that
        repeats, within the rows or against an entry, or a network driven
        below zero refuses the whole fill with ``ValueError`` for the first
        bad row, and leaves the table as it was.
        """
        entries, network_ids, placements = self.entries, self._network_ids, self._placements
        width = len(network_ids)
        left = list(self.residual.values())
        added: dict[str, Allocation] = {}
        for flow_id, j, level, demand in rows:
            if flow_id in added or flow_id in entries:
                raise ValueError(f"flow {flow_id!r} is already allocated")
            left[j] -= demand
            if left[j] < 0:
                raise ValueError(f"network {network_ids[j]!r} cannot take {number_text(demand)} micro-bps")
            key = level * width + j
            placed = placements.get(key)
            if placed is None:
                placed = placements[key] = Allocation(network_ids[j], level)
            added[flow_id] = placed
        entries.update(added)
        self.residual.update(zip(network_ids, left))

    def place(self, flow_id: str, allocation: Allocation, demand_micro_bps: int) -> None:
        """Enter one flow: ``fill`` with the single row that ``allocation`` names."""
        if allocation.network_id not in self.residual:
            raise ValueError(f"unknown network {allocation.network_id!r}")
        j = self._network_ids.index(allocation.network_id)
        self.fill([(flow_id, j, allocation.level, demand_micro_bps)])


def check_flow_ids(flows: list[FlowSpec]) -> None:
    """Raise ValueError naming the first flow id that appears twice."""
    if len({flow.id for flow in flows}) == len(flows):
        return
    seen: set[str] = set()
    for flow in flows:
        if flow.id in seen:
            raise ValueError(f"duplicate flow id {flow.id!r}")
        seen.add(flow.id)


def _first_fit(items: list[tuple[str, int, int]], residual: list[int]) -> list[tuple[str, int, int, int]]:
    """Place each ``(flow id, level, demand)`` item on the first network that fits it.

    ``residual`` falls by each placed demand; the result holds ``fill``'s
    rows, in item order. An item that fits nowhere is left out.
    """
    rows = []
    for flow_id, level, demand in items:
        for left in residual:
            if left >= demand:
                j = residual.index(left)
                residual[j] = left - demand
                rows.append((flow_id, j, level, demand))
                break
    return rows


def _best_fit(items: list[tuple[str, int, int]], residual: list[int]) -> list[tuple[str, int, int, int]]:
    """``_first_fit``, but on the fitting network with the least residual (the earlier on a tie).

    Residuals are never negative, so -1 marks "no fit yet"; ``index`` returns
    the first of equal residuals. ``_criticality_aware`` writes this scan
    inline in both of its passes, one flow at a time.
    """
    rows = []
    for flow_id, level, demand in items:
        least = -1
        for left in residual:
            if left >= demand and (least < 0 or left < least):
                least = left
        if least >= 0:
            j = residual.index(least)
            residual[j] = least - demand
            rows.append((flow_id, j, level, demand))
    return rows


def _worst_fit(items: list[tuple[str, int, int]], residual: list[int]) -> list[tuple[str, int, int, int]]:
    """``_first_fit``, but on the network with the most residual (the earlier on a tie), if it fits."""
    rows = []
    if residual:
        for flow_id, level, demand in items:
            most = max(residual)
            if most >= demand:
                j = residual.index(most)
                residual[j] = most - demand
                rows.append((flow_id, j, level, demand))
    return rows


_FITS = {"ff": _first_fit, "bf": _best_fit, "wf": _worst_fit}


def _flows_by_level(flows: list[FlowSpec], cfg: AllocatorConfig) -> list[tuple[int, list[tuple[int, int]]]]:
    """Declared levels in ``1..l_max``, highest first, each with its flows' ``(position, demand)`` pairs.

    A level's pairs are in input order.
    """
    factor, l_max = cfg.factor, cfg.l_max
    by_level: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for i, flow in enumerate(flows):
        for level, demand in flow.ladder:
            by_level[level].append((i, factor * demand))
    return sorted((item for item in by_level.items() if 1 <= item[0] <= l_max), reverse=True)


def _criticality_aware(
    flows: list[FlowSpec],
    networks: list[NetworkProfile],
    cfg: AllocatorConfig,
    admit_first: bool,
) -> AllocationTable:
    table = AllocationTable(networks)
    check_flow_ids(flows)
    residual = [p.capacity_micro_bps for p in networks]
    # Levels no flow declares change nothing; skipping them keeps a huge l_max cheap.
    levels = _flows_by_level(flows, cfg)
    # By flow position: the network position it holds (-1 for none), its
    # level and demand there, and the pass that last tried it.
    where = [-1] * len(flows)
    held_level = [0] * len(flows)
    held_demand = [0] * len(flows)
    last_try = [0] * len(flows)
    # Two kinds of pass place nothing and are skipped: the relax pass of the
    # highest declared level, since no flow can hold a stricter one, and
    # every admit pass once ``unplaced``, the flows that hold nothing,
    # reaches 0. A flow that declares no level in 1..l_max (a validated flow
    # set has none) never holds a network, so it keeps the admit passes
    # running. A skipped pass still takes its step, so every flow's last try
    # stays put.
    unplaced = len(flows)
    top = levels[0][0] if levels else 0
    step = 0
    for level, declared_here in levels:
        for admitting in (admit_first, not admit_first):
            step += 1
            if admitting:
                if not unplaced:
                    continue
                # Flows that hold nothing. Each pass scans for its best fit
                # inline (``_best_fit``'s rule): one call per flow cost more
                # than the scan itself.
                for i, demand in declared_here:
                    if where[i] < 0:
                        least = -1
                        for left in residual:
                            if left >= demand and (least < 0 or left < least):
                                least = left
                        if least >= 0:
                            j = residual.index(least)
                            residual[j] = least - demand
                            where[i], held_level[i], held_demand[i] = j, level, demand
                            last_try[i] = step
                            unplaced -= 1
            elif level != top:
                # Flows held at a stricter level; each keeps its hold if nothing fits.
                for i, demand in declared_here:
                    held = where[i]
                    if held >= 0 and held_level[i] > level:
                        residual[held] += held_demand[i]
                        least = -1
                        for left in residual:
                            if left >= demand and (least < 0 or left < least):
                                least = left
                        if least >= 0:
                            j = residual.index(least)
                            residual[j] = least - demand
                            where[i], held_level[i], held_demand[i] = j, level, demand
                        else:
                            residual[held] -= held_demand[i]
                        last_try[i] = step
    # A flow's entry goes in at its last try: by pass, then by input order.
    table.fill([
        (flows[i].id, where[i], held_level[i], held_demand[i])
        for i in sorted(range(len(flows)), key=last_try.__getitem__)
        if where[i] >= 0
    ])
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
    """Run the baseline ``name`` (one of BASELINE_NAMES).

    A flow that declares no level in ``1..l_max``, or that fits nowhere, is skipped.
    """
    if name not in BASELINE_NAMES:
        raise ValueError(f"unknown heuristic {name!r}; known: {', '.join(BASELINE_NAMES)}")
    table = AllocationTable(networks)
    check_flow_ids(flows)
    factor, l_max = cfg.factor, cfg.l_max
    # The ladder's top rung for h-*, its bottom rung for l-*.
    pick = -1 if name[0] == "h" else 0
    chosen: list[tuple[str, int, int]] = []
    for flow in flows:
        ladder = flow.ladder
        if not ladder:
            continue
        if not (1 <= ladder[0][0] and ladder[-1][0] <= l_max):
            ladder = [rung for rung in ladder if 1 <= rung[0] <= l_max]
            if not ladder:
                continue
        level, demand = ladder[pick]
        chosen.append((flow.id, level, factor * demand))
    if name.endswith("d"):
        chosen.sort(key=lambda item: item[2], reverse=True)

    table.fill(_FITS[name[2:4]](chosen, [p.capacity_micro_bps for p in networks]))
    return table


def verify_allocation_table(
    table: AllocationTable,
    flows: list[FlowSpec],
    networks: list[NetworkProfile],
    cfg: AllocatorConfig,
) -> None:
    """Raise ValueError unless the flow ids are distinct and the table satisfies all structural invariants."""
    flows_by_id = {flow.id: flow for flow in flows}
    if len(flows_by_id) != len(flows):
        check_flow_ids(flows)
    load: dict[str, int] = {p.id: 0 for p in networks}
    for flow_id, allocation in table.entries.items():
        flow = flows_by_id.get(flow_id)
        if flow is None:
            raise ValueError(f"allocation for unknown flow {flow_id!r}")
        if allocation.network_id not in load:
            raise ValueError(f"allocation on unknown network {allocation.network_id!r}")
        if allocation.level < 1:
            raise ValueError(f"flow {flow_id!r} is placed at level {number_text(allocation.level)} below 1")
        if allocation.level > cfg.l_max:
            raise ValueError(
                f"flow {flow_id!r} is placed at level {number_text(allocation.level)}"
                f" above l_max {number_text(cfg.l_max)}"
            )
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
