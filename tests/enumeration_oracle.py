"""Independent exhaustive oracles and random instance generator.

Each flow takes one (network, level) option or stays unallocated; an
assignment is feasible when no network is loaded past its capacity. Both
oracles share nothing with the branch-and-bound search they check except
the utilization arithmetic, which is the quantity under test elsewhere.

* `best_objective_by_enumeration` scores every assignment at once with
  numpy, which keeps full enumeration affordable: the largest instances
  used here have 10^5 assignments.
* `first_optimum` walks the feasible assignments depth-first in the exact
  solver's exploration order and keeps the first optimum, so it checks the
  solver's table, not only its objective.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from resilient_alloc import AllocatorConfig, FlowSpec, NetworkProfile, QosRequirement
from resilient_alloc.flows import utilization


def best_objective_by_enumeration(
    flows: list[FlowSpec], networks: list[NetworkProfile], l_max: int, factor: int, require_all: bool = False
) -> int | None:
    """The best objective, or None when no assignment is feasible.

    With ``require_all`` no flow may stay unallocated.
    """
    if not flows:
        return 0
    m = len(networks)
    caps = np.array([p.capacity_micro_bps for p in networks], dtype=np.int64)

    per_flow: list[list[tuple[int, np.ndarray]]] = []
    for flow in flows:
        options = [] if require_all else [(0, np.zeros(m, dtype=np.int64))]
        for level in sorted(flow.qos):
            demand = utilization(flow, level, factor)
            assert demand is not None
            for j in range(m):
                load = np.zeros(m, dtype=np.int64)
                load[j] = demand
                options.append((1 + l_max - level, load))
        per_flow.append(options)
    if not all(per_flow):
        return None

    total = 1
    for options in per_flow:
        total *= len(options)
    index = np.arange(total, dtype=np.int64)
    scores = np.zeros(total, dtype=np.int64)
    loads = np.zeros((total, m), dtype=np.int64)
    stride = 1
    for options in per_flow:
        base = len(options)
        digit = (index // stride) % base
        scores += np.array([score for score, _ in options], dtype=np.int64)[digit]
        loads += np.stack([load for _, load in options])[digit]
        stride *= base
    feasible = (loads <= caps).all(axis=1)
    return int(scores[feasible].max()) if feasible.any() else None


def first_optimum(
    flows: list[FlowSpec], networks: list[NetworkProfile], l_max: int, factor: int, require_all: bool = False
) -> dict[str, tuple[str, int]] | None:
    """The first optimal assignment, flow id -> (network id, level), or None when none is feasible.

    Flows in input order; per flow, levels ascending, then networks in
    declaration order, then unallocated (left out with ``require_all``).
    Only a strict improvement replaces the best assignment found so far.
    """
    residual = [p.capacity_micro_bps for p in networks]
    path: dict[str, tuple[str, int]] = {}
    best: dict[str, tuple[str, int]] | None = None
    best_score = -1

    def visit(i: int, score: int) -> None:
        nonlocal best, best_score
        if i == len(flows):
            if score > best_score:
                best, best_score = dict(path), score
            return
        flow = flows[i]
        for level in sorted(flow.qos):
            if level > l_max:
                continue
            demand = utilization(flow, level, factor)
            for j, network in enumerate(networks):
                if residual[j] >= demand:
                    residual[j] -= demand
                    path[flow.id] = (network.id, level)
                    visit(i + 1, score + 1 + l_max - level)
                    del path[flow.id]
                    residual[j] += demand
        if not require_all:
            visit(i + 1, score)

    visit(0, 0)
    return best


def random_instance(
    rng: random.Random,
    max_flows: int = 5,
    max_networks: int = 3,
    max_level: int = 3,
) -> tuple[list[FlowSpec], list[NetworkProfile], AllocatorConfig]:
    l_max = rng.randint(1, max_level)
    n = rng.randint(0, max_flows)
    m = rng.randint(0, max_networks)
    flows = []
    for i in range(n):
        levels = rng.sample(range(1, l_max + 1), k=rng.randint(1, l_max))
        qos = {}
        for level in levels:
            interval = Fraction(rng.randint(1, 10))
            if rng.random() < 0.2:
                interval /= 2
            qos[level] = QosRequirement(
                message_size_bytes=rng.randint(1, 60), min_interval_seconds=interval
            )
        flows.append(FlowSpec(id=str(i + 1), app="App", name=f"flow {i + 1}", qos=qos))
    # capacities sized so that a healthy share of instances is capacity
    # constrained (some flows unservable, some forced to degrade)
    networks = [
        NetworkProfile(id=f"n{j}", name=f"net {j}", capacity_bps=rng.randint(5, 250))
        for j in range(m)
    ]
    return flows, networks, AllocatorConfig(l_max=l_max, factor=rng.choice((1, 8)))
