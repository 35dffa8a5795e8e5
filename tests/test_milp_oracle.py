"""Cross-check of the exact solver against an independent MILP (HiGHS via scipy).

The instances are capacity-tight: three equal networks, each a third of the
summed level-3 demand, so most flows must degrade and some stay unserved.
They are far too large for the enumeration oracle.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from resilient_alloc import (
    AllocatorConfig,
    FlowSpec,
    IlpInstance,
    NetworkProfile,
    QosRequirement,
    exact_solve,
    objective,
)
from resilient_alloc.flows import MICRO, utilization

scipy_optimize = pytest.importorskip("scipy.optimize")

# A search that never lowers its target fails here instead of hanging the run.
pytestmark = pytest.mark.usefixtures("time_box")

CFG = AllocatorConfig(l_max=3, factor=8)


def tight_instance(n: int, gen_seed: int) -> IlpInstance:
    """Three equal networks, each 1/3 of the summed level-3 demand."""
    rng = random.Random(gen_seed)
    flows = []
    for i in range(n):
        c1, t1 = rng.randint(20, 200), rng.randint(1, 10)
        flows.append(
            FlowSpec(
                id=str(i + 1),
                app="App",
                name=f"flow {i + 1}",
                qos={
                    1: QosRequirement(c1, Fraction(t1)),
                    2: QosRequirement(max(1, c1 // rng.randint(2, 4)), Fraction(t1 * rng.randint(1, 3))),
                    3: QosRequirement(max(1, c1 // rng.randint(4, 10)), Fraction(t1 * rng.randint(2, 6))),
                },
            )
        )
    total = sum(utilization(flow, 3, CFG.factor) for flow in flows)
    capacity = -(-total // (3 * MICRO))
    networks = tuple(NetworkProfile(f"n{j}", f"net {j}", capacity) for j in range(3))
    return IlpInstance(flows, networks, CFG)


def milp_optimum(instance: IlpInstance) -> int:
    """Optimal objective from one binary x[flow, level, network] per option.

    The solution is rounded and checked against the capacities in exact
    integers, so solver tolerances cannot overstate the optimum.
    """
    options = [
        (f, 1 + instance.cfg.l_max - level, utilization(flow, level, instance.cfg.factor), j)
        for f, flow in enumerate(instance.flows)
        for level in sorted(flow.qos)
        for j in range(len(instance.networks))
    ]
    capacities = [p.capacity_micro_bps for p in instance.networks]
    one_per_flow = np.zeros((len(instance.flows), len(options)))
    load = np.zeros((len(capacities), len(options)))
    for k, (f, _, demand, j) in enumerate(options):
        one_per_flow[f, k] = 1
        load[j, k] = demand / capacities[j]
    result = scipy_optimize.milp(
        c=-np.array([score for _, score, _, _ in options], dtype=float),
        constraints=[
            scipy_optimize.LinearConstraint(one_per_flow, 0, 1),
            scipy_optimize.LinearConstraint(load, 0, 1),
        ],
        integrality=np.ones(len(options)),
        bounds=scipy_optimize.Bounds(0, 1),
    )
    assert result.success, result.message
    picked = [option for option, x in zip(options, result.x) if x > 0.5]
    for j, capacity in enumerate(capacities):
        assert sum(demand for _, _, demand, on in picked if on == j) <= capacity
    return sum(score for _, score, _, _ in picked)


@pytest.mark.parametrize("n", [12, 16, 20, 30, 40])
def test_exact_matches_milp_on_tight_instances(n):
    # n = 40 keeps an open tail: seed 4000 takes seconds (see ROADMAP.md).
    limit = 10.0 if n == 40 else 1.0
    for k in range(10):
        instance = tight_instance(n, 100 * n + k)
        started = time.perf_counter()
        table = exact_solve(instance)
        elapsed = time.perf_counter() - started
        assert objective(table, CFG.l_max) == milp_optimum(instance), f"seed {100 * n + k}"
        assert elapsed < limit, f"seed {100 * n + k} took {elapsed:.3f} s"
