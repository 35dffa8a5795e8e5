from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from resilient_alloc import (
    AllocatorConfig,
    FlowSpec,
    IlpInstance,
    Infeasible,
    NetworkProfile,
    QosRequirement,
    exact_solve,
    objective,
    report,
    verify_allocation_table,
)
from resilient_alloc.solver import SurrogateBound, level_options

from enumeration_oracle import best_objective_by_enumeration, first_optimum, random_instance

CFG8 = AllocatorConfig(l_max=3, factor=8)
CFG1_8 = AllocatorConfig(l_max=1, factor=8)

# A search that never lowers its target fails here instead of hanging the run.
pytestmark = pytest.mark.usefixtures("time_box")


def solve_or_none(instance: IlpInstance) -> dict[str, tuple[str, int]] | None:
    """``exact_solve``'s placements, flow id -> (network id, level), or None if it raises Infeasible."""
    try:
        table = exact_solve(instance)
    except Infeasible:
        return None
    return {fid: (entry.network_id, entry.level) for fid, entry in table.entries.items()}


def reference(instance: IlpInstance) -> dict[str, tuple[str, int]] | None:
    cfg = instance.cfg
    return first_optimum(list(instance.flows), list(instance.networks), cfg.l_max, cfg.factor, instance.require_all)


class TestMotivatingExample:
    def test_optimum_objective_and_aggregates(self, assisted_living, table2_networks):
        instance = IlpInstance(assisted_living.flows, table2_networks, CFG8)
        started = time.perf_counter()
        table = exact_solve(instance)
        assert time.perf_counter() - started < 1.0
        rep = report(table, list(assisted_living.flows), table2_networks, 3)
        assert rep.objective == 22
        assert rep.percent_served == 100
        assert rep.avg_criticality == Fraction(5, 4)

    def test_first_optimum_serves_two_flows_degraded(self, assisted_living, table2_networks):
        # lexicographically first optimum: the two bulky sensors drop to
        # level 2, everything else runs at level 1, all on the widest network
        instance = IlpInstance(assisted_living.flows, table2_networks, CFG8)
        table = exact_solve(instance)
        levels = {fid: entry.level for fid, entry in table.entries.items()}
        assert levels == {"1": 1, "2": 1, "3": 1, "4": 1, "5": 1, "6": 2, "7": 2, "8": 1}
        assert {entry.network_id for entry in table.entries.values()} == {"wifi"}


class TestUpperBound:
    def test_pruning_never_changes_the_result(self):
        rng = random.Random(0xB0D7)
        for _ in range(60):
            flows, networks, cfg = random_instance(rng, max_flows=4)
            instance = IlpInstance(flows, networks, cfg)
            assert solve_or_none(instance) == reference(instance)

    def test_pruning_keeps_the_first_optimum(self):
        # the same placements as the exhaustive first optimum, or Infeasible
        # where it finds nothing; every other instance gets networks of one
        # capacity so that the twin rule has work to do
        rng = random.Random(0x7A1E)
        for k in range(240):
            flows, networks, cfg = random_instance(rng)
            if k % 2 and networks:
                capacity = networks[0].capacity_bps
                networks = [NetworkProfile(id=p.id, name=p.name, capacity_bps=capacity) for p in networks]
            for require_all in (False, True):
                instance = IlpInstance(flows, networks, cfg, require_all)
                assert solve_or_none(instance) == reference(instance)

    def test_root_bound_is_at_least_the_optimum(self):
        rng = random.Random(0xB0B0)
        for _ in range(200):
            flows, networks, cfg = random_instance(rng)
            instance = IlpInstance(flows, networks, cfg)
            bound = SurrogateBound(level_options(instance), require_all=False)
            free = sum(p.capacity_micro_bps for p in networks)
            assert bound(0, 0, free) >= best_objective_by_enumeration(flows, networks, cfg.l_max, cfg.factor)


def fragmented_instance(rng: random.Random, n: int, require_all: bool) -> IlpInstance:
    """Equal networks that each hold about 2 level-3 flows, so the merged-bin LP is loose."""
    flows = []
    for i in range(n):
        c3 = rng.randint(50, 100)
        c2 = c3 * rng.randint(2, 3)
        qos = {
            1: QosRequirement(c2 * rng.randint(2, 3), Fraction(1)),
            2: QosRequirement(c2, Fraction(1)),
            3: QosRequirement(c3, Fraction(1)),
        }
        flows.append(FlowSpec(id=str(i + 1), app="App", name=f"flow {i + 1}", qos=qos))
    capacity = 8 * 75 * 2  # twice the mean level-3 demand, in bps
    networks = tuple(NetworkProfile(f"n{j}", f"net {j}", capacity) for j in range(rng.randint(3, 5)))
    return IlpInstance(flows, networks, CFG8, require_all)


class TestDescent:
    def test_descent_matches_exhaustive_search_on_fragmented_networks(self):
        # The same placements as the exhaustive first optimum, or Infeasible
        # where it finds nothing; a root bound above the optimum makes the
        # descent take several steps.
        rng = random.Random(0xF4A6)
        steps = {False: 0, True: 0}
        for k in range(60):
            instance = fragmented_instance(rng, rng.randint(3, 7), require_all=k % 2 == 1)
            placements = solve_or_none(instance)
            assert placements == reference(instance)
            if placements is None:
                continue
            bound = SurrogateBound(level_options(instance), instance.require_all)
            free = sum(p.capacity_micro_bps for p in instance.networks)
            steps[instance.require_all] += bound(0, 0, free) > sum(1 + 3 - level for _, level in placements.values())
        assert min(steps.values()) >= 3, steps

    def test_descent_lowers_the_target_to_a_leaf_objective(self):
        # The root bound is 4 and no node is cut: the search to target 4
        # only rejects leaves of objective 3, so the next target comes from
        # leaf objectives alone. A ceiling that ignored them would stay at -1
        # and end the descent with Infeasible.
        flows = (
            FlowSpec(id="1", app="A", name="f1", qos={1: QosRequirement(46, Fraction(4))}),
            FlowSpec(
                id="2",
                app="A",
                name="f2",
                qos={1: QosRequirement(14, Fraction(1)), 2: QosRequirement(5, Fraction(5, 2))},
            ),
        )
        networks = (NetworkProfile("n0", "net 0", 203), NetworkProfile("n1", "net 1", 37))
        instance = IlpInstance(flows, networks, AllocatorConfig(l_max=2, factor=8), require_all=True)
        assert solve_or_none(instance) == reference(instance) == {"1": ("n0", 1), "2": ("n0", 2)}


class TestEdges:
    def test_single_flow_too_big_for_any_level(self):
        flow = FlowSpec(id="1", app="A", name="big", qos={1: QosRequirement(1000, Fraction(1))})
        net = NetworkProfile(id="n", name="N", capacity_bps=10)
        table = exact_solve(IlpInstance((flow,), (net,), CFG1_8))
        assert table.entries == {}
        assert objective(table, 1) == 0

    def test_no_flows(self):
        net = NetworkProfile(id="n", name="N", capacity_bps=10)
        table = exact_solve(IlpInstance((), (net,), CFG8))
        assert table.entries == {}

    def test_no_networks(self):
        flow = FlowSpec(id="1", app="A", name="f", qos={1: QosRequirement(1, Fraction(1))})
        table = exact_solve(IlpInstance((flow,), (), CFG8))
        assert table.entries == {}

    def test_require_all_infeasible(self):
        flow = FlowSpec(id="1", app="A", name="big", qos={1: QosRequirement(1000, Fraction(1))})
        net = NetworkProfile(id="n", name="N", capacity_bps=10)
        with pytest.raises(Infeasible):
            exact_solve(IlpInstance((flow,), (net,), CFG1_8, require_all=True))

    def test_require_all_feasible_matches_unconstrained_here(self, assisted_living, table2_networks):
        instance = IlpInstance(assisted_living.flows, table2_networks, CFG8, require_all=True)
        assert objective(exact_solve(instance), 3) == 22

    def test_thousands_of_flows_do_not_hit_the_recursion_limit(self):
        qos = {1: QosRequirement(1, Fraction(1))}
        flows = tuple(FlowSpec(id=str(i), app="A", name=f"f{i}", qos=qos) for i in range(2000))
        net = NetworkProfile(id="n", name="N", capacity_bps=10**6)
        table = exact_solve(IlpInstance(flows, (net,), CFG1_8))
        assert len(table.entries) == 2000

    def test_levels_above_l_max_are_never_placed(self):
        # Unvalidated: flow 1 declares level 3 with l_max 2. Placed there it
        # would score 0 and fit beside flow 2, ahead of leaving it out.
        qos = {1: QosRequirement(1000, Fraction(1)), 3: QosRequirement(1, Fraction(1))}
        flows = (
            FlowSpec(id="1", app="A", name="f1", qos=qos),
            FlowSpec(id="2", app="A", name="f2", qos={1: QosRequirement(1, Fraction(8))}),
        )
        net = NetworkProfile(id="n", name="N", capacity_bps=10)
        instance = IlpInstance(flows, (net,), AllocatorConfig(l_max=2, factor=8))
        assert solve_or_none(instance) == reference(instance) == {"2": ("n", 1)}

    def test_the_instance_holds_the_heuristics_config(self):
        # l_max and factor come only from an AllocatorConfig, which refuses a
        # zero factor, so no instance serves flows at zero demand.
        with pytest.raises(TypeError):
            IlpInstance((), (), l_max=3, factor=0)
        with pytest.raises(ValueError, match=r"^factor must be >= 1, got 0$"):
            IlpInstance((), (), AllocatorConfig(l_max=3, factor=0))

    def test_never_errors_without_require_all(self):
        rng = random.Random(0xFEED)
        for _ in range(40):
            flows, networks, cfg = random_instance(rng)
            instance = IlpInstance(flows, networks, cfg)
            exact_solve(instance)  # must not raise


class TestOracle:
    def test_matches_enumeration_on_random_instances(self):
        rng = random.Random(0x0AC1E)
        for _ in range(120):
            flows, networks, cfg = random_instance(rng)
            instance = IlpInstance(flows, networks, cfg)
            table = exact_solve(instance)
            verify_allocation_table(table, flows, networks, cfg)
            assert objective(table, cfg.l_max) == best_objective_by_enumeration(
                flows, networks, cfg.l_max, cfg.factor
            )

    def test_the_two_oracles_agree(self):
        # first_optimum's score is the numpy brute force's objective, and
        # both find nothing on the same instances
        rng = random.Random(0x2C0DE)
        for _ in range(300):
            flows, networks, cfg = random_instance(rng)
            for require_all in (False, True):
                best = best_objective_by_enumeration(flows, networks, cfg.l_max, cfg.factor, require_all)
                first = first_optimum(flows, networks, cfg.l_max, cfg.factor, require_all)
                score = None if first is None else sum(1 + cfg.l_max - level for _, level in first.values())
                assert score == best
