from __future__ import annotations

import hashlib
import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resilient_alloc import (
    Allocation,
    AllocationTable,
    AllocatorConfig,
    FlowSpec,
    IlpInstance,
    NetworkProfile,
    QosRequirement,
    cabf,
    cabf_inv,
    exact_solve,
    objective,
    heuristic,
    report,
    run_algorithm,
    verify_allocation_table,
)
from resilient_alloc import allocators
from resilient_alloc.allocators import HEURISTIC_NAMES
from resilient_alloc.catalog import ALGORITHM_NAMES
from resilient_alloc.flows import utilization

from enumeration_oracle import random_instance

CFG8 = AllocatorConfig(l_max=3, factor=8)
BASELINES = "l-ff, l-ffd, h-ff, h-ffd, l-wf, l-wfd, h-wf, h-wfd, l-bf, l-bfd, h-bf, h-bfd"
CFG1 = AllocatorConfig(l_max=3, factor=1)


def _levels(table: AllocationTable, flows) -> tuple:
    return tuple(
        table.entries[f.id].level if f.id in table.entries else None for f in flows
    )


def _networks(table: AllocationTable, flows) -> tuple:
    return tuple(
        table.entries[f.id].network_id if f.id in table.entries else None for f in flows
    )


class TestBestFit:
    def test_prefers_tightest_network(self, assisted_living, table2_networks):
        # flow 2 at its strictest level needs 4 bps; empty Sigfox (48) is tightest
        flow = assisted_living.flows[1]
        table = heuristic("h-bf", [flow], table2_networks, CFG8)
        assert table.entries[flow.id] == Allocation("sigfox", 3)

    def test_none_when_nothing_fits(self, assisted_living):
        # flow 4 needs 32000 bps at level 1; Wi-Fi offers only 30000 bps
        flow = assisted_living.flows[3]
        wifi = NetworkProfile(id="wifi", name="Wi-Fi", capacity_bps=30_000)
        table = heuristic("l-bf", [flow], [wifi], CFG8)
        assert table.entries == {}
        assert table.residual["wifi"] == 30_000_000_000

    @pytest.mark.parametrize("name", HEURISTIC_NAMES)
    def test_tie_breaks_toward_earlier_declaration(self, name):
        flow = FlowSpec(id="1", app="A", name="f", qos={1: QosRequirement(10, Fraction(1))})
        twins = [
            NetworkProfile(id="a", name="A", capacity_bps=100),
            NetworkProfile(id="b", name="B", capacity_bps=100),
        ]
        table = run_algorithm(name, [flow], twins, CFG8)
        assert table.entries["1"].network_id == "a"


class TestCriticalityAware:
    def test_cabf_matches_published_aggregates(self, assisted_living, table2_networks):
        table = cabf(list(assisted_living.flows), table2_networks, CFG8)
        rep = report(table, list(assisted_living.flows), table2_networks, 3)
        assert rep.objective == 22
        assert rep.percent_served == 100
        assert rep.avg_criticality == Fraction(5, 4)

    def test_cabf_inv_matches_published_aggregates(self, assisted_living, table2_networks):
        table = cabf_inv(list(assisted_living.flows), table2_networks, CFG8)
        rep = report(table, list(assisted_living.flows), table2_networks, 3)
        assert rep.objective == 22
        assert rep.percent_served == 100
        assert rep.avg_criticality == Fraction(5, 4)

    def test_empty_network_list(self, assisted_living):
        table = cabf(list(assisted_living.flows), [], CFG8)
        assert table.entries == {}
        table = cabf_inv(list(assisted_living.flows), [], CFG8)
        assert table.entries == {}

    def test_flow_declared_only_at_top_level_stays_there(self):
        flow = FlowSpec(id="1", app="A", name="alarm", qos={3: QosRequirement(10, Fraction(20))})
        sigfox = NetworkProfile(id="sigfox", name="Sigfox", capacity_bps=48)
        table = cabf([flow], [sigfox], CFG8)
        assert table.entries["1"] == Allocation("sigfox", 3)

    def test_placements_under_documented_iteration_order(self, assisted_living, table2_networks):
        # Regression pin for the deterministic input-order walk; the two
        # variants happen to coincide on this instance.
        expected = {
            "1": Allocation("lora", 1),
            "2": Allocation("wifi", 1),
            "3": Allocation("sigfox", 1),
            "4": Allocation("wifi", 1),
            "5": Allocation("lora", 1),
            "6": Allocation("sigfox", 2),
            "7": Allocation("sigfox", 2),
            "8": Allocation("sigfox", 1),
        }
        flows = list(assisted_living.flows)
        assert cabf(flows, table2_networks, CFG8).entries == expected
        assert cabf_inv(flows, table2_networks, CFG8).entries == expected

    def test_sigfox_only_device_row_per_flow_levels(self, assisted_living, fipy_networks):
        table = cabf_inv(list(assisted_living.flows), [fipy_networks["sigfox"]], CFG1)
        assert _levels(table, assisted_living.flows) == (2, 2, 1, 2, 1, 2, 2, 1)

    def test_nbiot_only_device_row_all_level_one(self, assisted_living, fipy_networks):
        table = cabf_inv(list(assisted_living.flows), [fipy_networks["nbiot"]], CFG1)
        assert _levels(table, assisted_living.flows) == (1,) * 8

    def test_rerunning_on_same_inputs_changes_nothing(self, assisted_living, table2_networks):
        flows = list(assisted_living.flows)
        first = cabf(flows, table2_networks, CFG8)
        second = cabf(flows, table2_networks, CFG8)
        assert first == second
        first_inv = cabf_inv(flows, table2_networks, CFG8)
        second_inv = cabf_inv(flows, table2_networks, CFG8)
        assert first_inv == second_inv

    def test_variants_differ_when_relaxation_competes_with_admission(self):
        # One 10 bps bin. Flow "a" holds level 2 (demand 2) from the first
        # pass; flow "b" wants level 1 (demand 5); relaxing "a" to level 1
        # costs 6. Relax-first spends the capacity on "a" and leaves "b"
        # unserved; admit-first serves "b" and keeps "a" degraded, which
        # scores higher.
        flow_a = FlowSpec(
            id="a",
            app="A",
            name="critical",
            qos={1: QosRequirement(6, Fraction(1)), 2: QosRequirement(2, Fraction(1))},
        )
        flow_b = FlowSpec(
            id="b", app="A", name="plain", qos={1: QosRequirement(5, Fraction(1))}
        )
        net = NetworkProfile(id="n", name="N", capacity_bps=10)
        cfg = AllocatorConfig(l_max=2, factor=1)

        relax_first = cabf([flow_a, flow_b], [net], cfg)
        assert relax_first.entries == {"a": Allocation("n", 1)}
        assert objective(relax_first, 2) == 2

        admit_first = cabf_inv([flow_a, flow_b], [net], cfg)
        assert admit_first.entries == {
            "a": Allocation("n", 2),
            "b": Allocation("n", 1),
        }
        assert objective(admit_first, 2) == 3

    def test_inner_rule_is_best_fit_not_first_fit(self):
        # Declaration order offers the roomy network first; best fit must
        # still pick the tight one, during admission and during relaxation.
        flow = FlowSpec(
            id="1",
            app="A",
            name="f",
            qos={1: QosRequirement(1, Fraction(1)), 2: QosRequirement(1, Fraction(2))},
        )
        big = NetworkProfile(id="big", name="Big", capacity_bps=100)
        small = NetworkProfile(id="small", name="Small", capacity_bps=10)
        cfg = AllocatorConfig(l_max=2, factor=1)
        for algorithm in (cabf, cabf_inv):
            table = algorithm([flow], [big, small], cfg)
            assert table.entries["1"] == Allocation("small", 1)


class TestBaselines:
    def test_low_first_fit_fills_wifi_and_skips_two(self, assisted_living, table2_networks):
        table = run_algorithm("l-ff", list(assisted_living.flows), table2_networks, CFG8)
        assert _levels(table, assisted_living.flows) == (1, 1, 1, 1, 1, None, None, 1)
        assert _networks(table, assisted_living.flows) == (
            "wifi", "wifi", "wifi", "wifi", "wifi", None, None, "wifi",
        )
        rep = report(table, list(assisted_living.flows), table2_networks, 3)
        assert (rep.objective, rep.percent_served, rep.avg_criticality) == (
            18, Fraction(75), Fraction(1),
        )

    def test_high_first_fit_serves_all_on_wifi(self, assisted_living, table2_networks):
        table = run_algorithm("h-ff", list(assisted_living.flows), table2_networks, CFG8)
        assert _levels(table, assisted_living.flows) == (3, 3, 2, 2, 2, 2, 2, 1)
        assert set(_networks(table, assisted_living.flows)) == {"wifi"}
        rep = report(table, list(assisted_living.flows), table2_networks, 3)
        assert (rep.objective, rep.avg_criticality) == (15, Fraction(17, 8))

    def test_high_best_fit_packs_everything_into_sigfox(self, assisted_living, table2_networks):
        table = run_algorithm("h-bf", list(assisted_living.flows), table2_networks, CFG8)
        assert _levels(table, assisted_living.flows) == (3, 3, 2, 2, 2, 2, 2, 1)
        assert set(_networks(table, assisted_living.flows)) == {"sigfox"}

    @pytest.mark.parametrize("name", ["l-ff", "l-ffd", "l-bf", "l-bfd", "l-wf", "l-wfd"])
    def test_low_side_aggregates(self, name, assisted_living, table2_networks):
        table = run_algorithm(name, list(assisted_living.flows), table2_networks, CFG8)
        rep = report(table, list(assisted_living.flows), table2_networks, 3)
        assert (rep.objective, rep.percent_served, rep.avg_criticality) == (
            18, Fraction(75), Fraction(1),
        )

    @pytest.mark.parametrize("name", ["h-ff", "h-ffd", "h-bf", "h-bfd", "h-wf", "h-wfd"])
    def test_high_side_aggregates(self, name, assisted_living, table2_networks):
        table = run_algorithm(name, list(assisted_living.flows), table2_networks, CFG8)
        rep = report(table, list(assisted_living.flows), table2_networks, 3)
        assert (rep.objective, rep.percent_served, rep.avg_criticality) == (
            15, Fraction(100), Fraction(17, 8),
        )

    @pytest.mark.parametrize(
        "name,order,expected",
        [
            # [big, small]: first fit stops at the roomy bin, best fit digs
            # out the tight one
            ("l-ff", ("big", "small"), "big"),
            ("l-bf", ("big", "small"), "small"),
            ("l-wf", ("big", "small"), "big"),
            # [small, big]: first fit now stops at the tight bin while worst
            # fit still chases the roomiest
            ("l-ff", ("small", "big"), "small"),
            ("l-bf", ("small", "big"), "small"),
            ("l-wf", ("small", "big"), "big"),
        ],
    )
    def test_fit_rules_diverge_on_unequal_bins(self, name, order, expected):
        flow = FlowSpec(id="1", app="A", name="f", qos={1: QosRequirement(5, Fraction(1))})
        bins = {
            "big": NetworkProfile(id="big", name="Big", capacity_bps=100),
            "small": NetworkProfile(id="small", name="Small", capacity_bps=6),
        }
        networks = [bins[key] for key in order]
        table = run_algorithm(name, [flow], networks, AllocatorConfig(l_max=1, factor=1))
        assert table.entries["1"].network_id == expected

    def test_decreasing_sort_is_stable(self):
        # equal demands keep their input order under the decreasing variant
        flows = [
            FlowSpec(id=str(i), app="A", name=f"f{i}", qos={1: QosRequirement(10, Fraction(1))})
            for i in range(1, 4)
        ]
        net = NetworkProfile(id="n", name="N", capacity_bps=160)  # fits two of 80 bps
        table = run_algorithm("l-ffd", flows, [net], AllocatorConfig(l_max=1, factor=8))
        assert sorted(table.entries) == ["1", "2"]

    @pytest.mark.parametrize("name", ["m-ff", "l-ffx", "bogus"])
    def test_unknown_name_rejected(self, assisted_living, table2_networks, name):
        flows = list(assisted_living.flows)
        known = f"{BASELINES}, cabf, cabf-inv, exact"
        with pytest.raises(ValueError, match=rf"^unknown algorithm '{name}'; known: {known}$"):
            run_algorithm(name, flows, table2_networks, CFG8)
        with pytest.raises(ValueError, match=rf"^unknown heuristic '{name}'; known: {BASELINES}$"):
            heuristic(name, flows, table2_networks, CFG8)

    @pytest.mark.parametrize("name", ["cabf", "cabf-inv", "exact"])
    def test_heuristic_lists_only_the_baselines(self, assisted_living, table2_networks, name):
        with pytest.raises(ValueError, match=rf"^unknown heuristic '{name}'; known: {BASELINES}$"):
            heuristic(name, list(assisted_living.flows), table2_networks, CFG8)

    def test_config_bounds(self):
        with pytest.raises(ValueError, match=r"^l_max must be >= 1, got 0$"):
            AllocatorConfig(l_max=0, factor=8)
        with pytest.raises(ValueError, match=r"^factor must be >= 1, got 0$"):
            AllocatorConfig(l_max=3, factor=0)
        with pytest.raises(ValueError, match=r"^l_max must be >= 1, got -1e\+400$"):
            AllocatorConfig(l_max=-(10**400), factor=8)

    def test_config_needs_a_factor(self):
        with pytest.raises(TypeError, match="factor"):
            AllocatorConfig(l_max=3)

    def test_run_algorithm_takes_one_signature_for_every_name(self, assisted_living, table2_networks):
        # require_all belongs to the exact solver's IlpInstance alone.
        assert list(inspect.signature(run_algorithm).parameters) == ["name", "flows", "networks", "cfg"]
        with pytest.raises(TypeError, match="require_all"):
            run_algorithm("exact", list(assisted_living.flows), table2_networks, CFG8, require_all=True)


# Each edit breaks one invariant of the cabf table on the assisted-living
# flows, whose placements TestCriticalityAware pins: flows 2 and 4 on Wi-Fi at
# level 1, flow 6 on Sigfox at level 2, flow 8 (level 1 only) on Sigfox.
TABLE_CORRUPTIONS = {
    "unknown_flow": (
        lambda table: table.entries.update({"9": Allocation("sigfox", 1)}),
        r"^allocation for unknown flow '9'$",
    ),
    "unknown_network": (
        lambda table: table.entries.update({"8": Allocation("zigbee", 1)}),
        r"^allocation on unknown network 'zigbee'$",
    ),
    "undeclared_level": (
        lambda table: table.entries.update({"8": Allocation("sigfox", 2)}),
        r"^flow '8' has no QoS at level 2$",
    ),
    # 1.6 + 32 + 32 kbps on the 64 kbps Wi-Fi, checked before Wi-Fi's residual.
    "overloaded_network": (
        lambda table: table.entries.update({"6": Allocation("wifi", 1)}),
        r"^network 'wifi' overloaded: 65600000000 micro-bps$",
    ),
    "residual_mismatch": (
        lambda table: table.residual.update(lora=table.residual["lora"] + 1),
        r"^residual mismatch on 'lora': 896000001 != 896000000$",
    ),
    # Checked before the level's demand, which flow 8 does not declare either.
    "level_above_l_max": (
        lambda table: table.entries.update({"8": Allocation("sigfox", 4)}),
        r"^flow '8' is placed at level 4 above l_max 3$",
    ),
    "level_below_1": (
        lambda table: table.entries.update({"8": Allocation("sigfox", 0)}),
        r"^flow '8' is placed at level 0 below 1$",
    ),
}


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_a_flow_with_no_level_is_left_out(name, assisted_living, table2_networks):
    flows = list(assisted_living.flows)
    no_level = FlowSpec("no-level", "App", "declares nothing", {})
    with_it = run_algorithm(name, flows[:4] + [no_level] + flows[4:], table2_networks, CFG8)
    assert with_it == run_algorithm(name, flows, table2_networks, CFG8)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_levels_above_l_max_are_ignored(name):
    # Unvalidated flows with l_max 3: flow 1 declares only level 5, flow 3
    # levels 1 and 4, flow 4 levels 4, 0 and 2. Placed at 5, flow 1 would
    # score -1 and still fit.
    small = QosRequirement(1, Fraction(1))
    flows = [
        FlowSpec("1", "App", "above only", {5: small}),
        FlowSpec("2", "App", "level one", {1: small}),
        FlowSpec("3", "App", "four and one", {4: small, 1: small}),
        FlowSpec("4", "App", "both sides of two", {4: small, 0: small, 2: small}),
    ]
    wifi = NetworkProfile(id="wifi", name="Wi-Fi", capacity_bps=64_000)
    table = run_algorithm(name, flows, [wifi], CFG8)
    assert table.entries == {"2": Allocation("wifi", 1), "3": Allocation("wifi", 1), "4": Allocation("wifi", 2)}
    assert objective(table, CFG8.l_max) == 8
    verify_allocation_table(table, flows, [wifi], CFG8)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_levels_below_1_are_ignored(name):
    # Unvalidated flows with l_max 3: flow 1 declares only level 0, flow 3
    # levels -2 and 1, flow 4 levels 5, -1 and 2. Placed at 0 or -2, a
    # flow would score 4 or 6, above the 3 that level 1 scores.
    small = QosRequirement(1, Fraction(1))
    flows = [
        FlowSpec("1", "App", "zero only", {0: small}),
        FlowSpec("2", "App", "level one", {1: small}),
        FlowSpec("3", "App", "minus two and one", {-2: small, 1: small}),
        FlowSpec("4", "App", "both sides of two", {5: small, -1: small, 2: small}),
    ]
    wifi = NetworkProfile(id="wifi", name="Wi-Fi", capacity_bps=64_000)
    table = run_algorithm(name, flows, [wifi], CFG8)
    assert table.entries == {"2": Allocation("wifi", 1), "3": Allocation("wifi", 1), "4": Allocation("wifi", 2)}
    assert objective(table, CFG8.l_max) == 8
    verify_allocation_table(table, flows, [wifi], CFG8)


class TestTableChecks:
    @pytest.mark.parametrize("corrupt,message", TABLE_CORRUPTIONS.values(), ids=list(TABLE_CORRUPTIONS))
    def test_verify_names_the_broken_invariant(self, assisted_living, table2_networks, corrupt, message):
        flows = list(assisted_living.flows)
        table = cabf(flows, table2_networks, CFG8)
        verify_allocation_table(table, flows, table2_networks, CFG8)
        corrupt(table)
        with pytest.raises(ValueError, match=message):
            verify_allocation_table(table, flows, table2_networks, CFG8)

    def test_a_table_equals_no_other_type(self, table2_networks):
        table = AllocationTable(table2_networks)
        assert table.__eq__(table.entries) is NotImplemented
        assert table != table.entries and table == AllocationTable(table2_networks)

    @pytest.mark.parametrize(
        "allocate",
        [
            pytest.param(cabf, id="cabf"),
            pytest.param(cabf_inv, id="cabf_inv"),
            pytest.param(lambda *args: heuristic("l-ff", *args), id="heuristic"),
            pytest.param(lambda *args: run_algorithm("exact", *args), id="exact"),
        ],
    )
    def test_duplicate_network_id_is_refused(self, assisted_living, table2_networks, allocate):
        # A second "lora" would otherwise replace the first one's capacity.
        lora = NetworkProfile(id="lora", name="Second LoRa", capacity_bps=99)
        with pytest.raises(ValueError, match=r"^duplicate network id 'lora'$"):
            allocate(list(assisted_living.flows), [*table2_networks, lora], CFG8)
        with pytest.raises(ValueError, match=r"^duplicate network id 'lora'$"):
            AllocationTable([*table2_networks, lora])

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_duplicate_flow_id_is_refused_before_any_placement(self, name, assisted_living, table2_networks, monkeypatch):
        # Two flows named "1": cabf would otherwise serve only one of them,
        # and l-ff or exact stop halfway with "flow '1' is already allocated".
        flows = list(assisted_living.flows)
        twin = FlowSpec("1", "App", "second flow one", {1: QosRequirement(1, Fraction(60))})
        placed = []
        monkeypatch.setattr(AllocationTable, "place", lambda table, *args: placed.append(args))
        monkeypatch.setattr(AllocationTable, "fill", lambda table, rows: placed.append(list(rows)))
        with pytest.raises(ValueError, match=r"^duplicate flow id '1'$"):
            run_algorithm(name, [*flows, twin], table2_networks, CFG8)
        assert placed == []

    @pytest.mark.parametrize("twin_size", [10, 20], ids=["equal", "unequal"])
    def test_report_and_verify_refuse_a_repeated_flow_id(self, table2_networks, twin_size):
        # Keyed by flow id, the twin would replace flow 1: report would give
        # 50% served, and verify would pass equal twins and blame a residual
        # for unequal ones.
        flow = FlowSpec("1", "App", "one", {1: QosRequirement(10, Fraction(1))})
        twin = FlowSpec("1", "App", "twin", {1: QosRequirement(twin_size, Fraction(1))})
        table = run_algorithm("cabf", [flow], table2_networks, CFG8)
        with pytest.raises(ValueError, match=r"^duplicate flow id '1'$"):
            report(table, [flow, twin], table2_networks, CFG8.l_max)
        with pytest.raises(ValueError, match=r"^duplicate flow id '1'$"):
            verify_allocation_table(table, [flow, twin], table2_networks, CFG8)

    def test_place_refuses_a_second_entry_for_a_flow(self, table2_networks):
        table = AllocationTable(table2_networks)
        table.place("1", Allocation("wifi", 1), 10)
        with pytest.raises(ValueError, match=r"^flow '1' is already allocated$"):
            table.place("1", Allocation("lora", 1), 10)
        assert table.entries == {"1": Allocation("wifi", 1)}
        assert table.residual["lora"] == 1_760_000_000

    def test_place_refuses_an_overload(self, table2_networks):
        table = AllocationTable(table2_networks)
        with pytest.raises(ValueError, match=r"^network 'sigfox' cannot take 48000001 micro-bps$"):
            table.place("1", Allocation("sigfox", 1), 48_000_001)
        assert table.entries == {}
        assert table.residual["sigfox"] == 48_000_000

    def test_place_refuses_an_unknown_network(self, table2_networks):
        table = AllocationTable(table2_networks)
        table.place("1", Allocation("wifi", 1), 10)
        entries, residual = dict(table.entries), dict(table.residual)
        with pytest.raises(ValueError, match=r"^unknown network 'nope'$"):
            table.place("2", Allocation("nope", 1), 5)
        assert table.entries == entries and table.residual == residual

    @pytest.mark.parametrize("level", [True, 1.0, "1"], ids=["bool", "float", "str"])
    def test_allocation_level_that_is_not_a_plain_int_is_refused(self, level):
        with pytest.raises(ValueError, match=rf"^allocation level must be an int, got {level!r}$"):
            Allocation("wifi", level)

    def test_place_prints_a_huge_demand_in_short(self, table2_networks):
        table = AllocationTable(table2_networks)
        with pytest.raises(ValueError, match=r"^network 'sigfox' cannot take 1e\+50 micro-bps$"):
            table.place("1", Allocation("sigfox", 1), 10**50)

    # table2_networks holds Wi-Fi, LoRa and Sigfox at positions 0, 1 and 2.
    @pytest.mark.parametrize(
        "rows,message",
        [
            ([("2", 1, 1, 10), ("1", 0, 2, 10)], r"^flow '1' is already allocated$"),
            ([("2", 1, 1, 10), ("3", 2, 1, 10), ("2", 0, 1, 10)], r"^flow '2' is already allocated$"),
            # Sigfox (48 000 000) takes the first two rows; the third is the first bad one.
            ([("2", 2, 1, 40_000_000), ("3", 2, 1, 8_000_000), ("4", 2, 1, 1), ("1", 0, 1, 10)],
             r"^network 'sigfox' cannot take 1 micro-bps$"),
        ],
        ids=["repeats_an_entry", "repeats_within_the_rows", "overload"],
    )
    def test_fill_refuses_the_whole_fill(self, table2_networks, rows, message):
        table = AllocationTable(table2_networks)
        table.place("1", Allocation("wifi", 1), 10)
        entries, residual = dict(table.entries), dict(table.residual)
        with pytest.raises(ValueError, match=message):
            table.fill(rows)
        assert table.entries == entries and list(table.entries) == ["1"]
        assert table.residual == residual

    def test_fill_enters_rows_in_order_and_shares_placements(self, table2_networks):
        table = AllocationTable(table2_networks)
        table.fill([("b", 2, 1, 5), ("a", 2, 3, 7), ("c", 0, 2, 3)])
        table.fill([("d", 2, 1, 11), ("e", 2, 3, 13)])
        assert list(table.entries) == ["b", "a", "c", "d", "e"]
        assert table.entries["d"] is table.entries["b"] and table.entries["e"] is table.entries["a"]
        assert table.entries["a"] is not table.entries["b"] and table.entries["b"] == Allocation("sigfox", 1)
        assert table.residual == {"wifi": 64_000_000_000 - 3, "lora": 1_760_000_000, "sigfox": 48_000_000 - 36}


@st.composite
def small_instances(draw):
    l_max = draw(st.integers(1, 3))
    qos_strategy = st.dictionaries(
        st.integers(1, l_max),
        st.tuples(st.integers(1, 60), st.integers(1, 10)),
        min_size=1,
        max_size=l_max,
    )
    raw_flows = draw(st.lists(qos_strategy, max_size=5))
    flows = [
        FlowSpec(
            id=str(i),
            app="A",
            name=f"flow {i}",
            qos={
                level: QosRequirement(c, Fraction(t)) for level, (c, t) in qos.items()
            },
        )
        for i, qos in enumerate(raw_flows)
    ]
    capacities = draw(st.lists(st.integers(1, 250), max_size=3))
    networks = [
        NetworkProfile(id=f"n{j}", name=f"net {j}", capacity_bps=capacity)
        for j, capacity in enumerate(capacities)
    ]
    factor = draw(st.sampled_from((1, 8)))
    return flows, networks, AllocatorConfig(l_max=l_max, factor=factor)


class TestProperties:
    @given(instance=small_instances(), name=st.sampled_from(ALGORITHM_NAMES))
    @settings(max_examples=300)
    def test_every_table_satisfies_the_structural_invariants(self, instance, name):
        flows, networks, cfg = instance
        table = run_algorithm(name, flows, networks, cfg)
        verify_allocation_table(table, flows, networks, cfg)
        # Flows placed on one network at one level share one Allocation.
        shared: dict[tuple[str, int], Allocation] = {}
        for allocation in table.entries.values():
            assert shared.setdefault((allocation.network_id, allocation.level), allocation) is allocation

    def test_all_algorithms_deterministic_and_valid_on_random_inputs(self):
        rng = random.Random(0xA110C)
        for _ in range(150):
            flows, networks, cfg = random_instance(rng, max_flows=6)
            for name in HEURISTIC_NAMES:
                table = run_algorithm(name, flows, networks, cfg)
                again = run_algorithm(name, flows, networks, cfg)
                assert table == again
                verify_allocation_table(table, flows, networks, cfg)
                for flow_id, allocation in table.entries.items():
                    flow = next(f for f in flows if f.id == flow_id)
                    assert allocation.level in flow.qos

    def test_heuristics_never_beat_exact(self):
        rng = random.Random(0xBEEF)
        for _ in range(120):
            flows, networks, cfg = random_instance(rng, max_flows=6)
            best = objective(
                exact_solve(IlpInstance(flows, networks, cfg)),
                cfg.l_max,
            )
            for name in HEURISTIC_NAMES:
                table = run_algorithm(name, flows, networks, cfg)
                assert objective(table, cfg.l_max) <= best

    def test_scaling_demand_and_capacity_together_preserves_entries(self):
        # Exact when each C/T is exactly representable in micro-bps, which
        # holds whenever T divides C * 10^6 (all intervals here are powers
        # of 2 and 5 times integers).
        rng = random.Random(0x5CA1E)
        for _ in range(100):
            flows, networks, cfg = random_instance(rng, max_flows=5)
            flows = [
                FlowSpec(
                    id=f.id,
                    app=f.app,
                    name=f.name,
                    qos={
                        level: QosRequirement(
                            q.message_size_bytes, Fraction(rng.choice((1, 2, 4, 5, 8, 10)))
                        )
                        for level, q in f.qos.items()
                    },
                )
                for f in flows
            ]
            for k in (3, 7):
                scaled_flows = [
                    FlowSpec(
                        id=f.id,
                        app=f.app,
                        name=f.name,
                        qos={
                            level: QosRequirement(
                                k * q.message_size_bytes, q.min_interval_seconds
                            )
                            for level, q in f.qos.items()
                        },
                    )
                    for f in flows
                ]
                scaled_networks = [
                    NetworkProfile(id=p.id, name=p.name, capacity_bps=k * p.capacity_bps)
                    for p in networks
                ]
                for name in HEURISTIC_NAMES:
                    base = run_algorithm(name, flows, networks, cfg)
                    scaled = run_algorithm(name, scaled_flows, scaled_networks, cfg)
                    assert base.entries == scaled.entries

    def test_utilization_demand_is_declared(self, assisted_living, table2_networks):
        flows = list(assisted_living.flows)
        for name in HEURISTIC_NAMES:
            table = run_algorithm(name, flows, table2_networks, CFG8)
            for flow_id, allocation in table.entries.items():
                flow = next(f for f in flows if f.id == flow_id)
                assert utilization(flow, allocation.level, 8) is not None


def _pinned_instance(rng: random.Random):
    """One seeded instance for the table digest.

    It has 0-40 flows and 1-5 networks. Each flow declares a random subset
    of the levels, some intervals have denominators 2, 3 or 7, and about one
    flow in twenty is too large for any network. Capacities come from a pool
    of two values, so equal residuals are common.
    """
    l_max = rng.randint(1, 4)
    pool = (rng.randint(20, 400), rng.randint(20, 400))
    networks = [
        NetworkProfile(id=f"n{j}", name=f"net {j}", capacity_bps=rng.choice(pool))
        for j in range(rng.randint(1, 5))
    ]
    flows = []
    for i in range(rng.randint(0, 40)):
        qos = {}
        for level in rng.sample(range(1, l_max + 1), k=rng.randint(1, l_max)):
            size = 10_000 if rng.random() < 0.05 else rng.randint(1, 60)
            qos[level] = QosRequirement(size, Fraction(rng.randint(1, 10), rng.choice((1, 1, 2, 3, 7))))
        flows.append(FlowSpec(id=str(i + 1), app="App", name=f"flow {i + 1}", qos=qos))
    return flows, networks, AllocatorConfig(l_max=l_max, factor=rng.choice((1, 8)))


class TestPinnedTables:
    """The fourteen heuristics' tables on seeded random instances, entry by entry."""

    INSTANCES = 2000
    # Recorded with the criticality-aware pair relaxing through
    # AllocationTable.remove and place, and every demand computed per call.
    DIGEST = "e6996ae0f826930c4265b1a50931befdc7975625e3290721636355e590246e3b"

    def test_tables_digest(self):
        rng = random.Random(0x7AB1E5)
        digest = hashlib.sha256()
        for _ in range(self.INSTANCES):
            flows, networks, cfg = _pinned_instance(rng)
            for name in HEURISTIC_NAMES:
                table = run_algorithm(name, flows, networks, cfg)
                entries = ";".join(f"{fid},{a.network_id},{a.level}" for fid, a in table.entries.items())
                residuals = ",".join(f"{key}={left}" for key, left in table.residual.items())
                digest.update(f"{name}:{entries}|{residuals}\n".encode())
        assert digest.hexdigest() == self.DIGEST


def _order_instance(rng: random.Random):
    """One seeded instance that ``_pinned_instance`` never draws.

    About one flow in eight declares no level.
    """
    l_max = rng.randint(1, 3)
    pool = (rng.randint(20, 300), rng.randint(20, 300))
    networks = [
        NetworkProfile(id=f"n{j}", name=f"net {j}", capacity_bps=rng.choice(pool))
        for j in range(rng.randint(1, 4))
    ]
    flows = []
    for i in range(rng.randint(0, 30)):
        qos = {}
        if rng.random() >= 0.125:
            for level in rng.sample(range(1, l_max + 1), k=rng.randint(1, l_max)):
                qos[level] = QosRequirement(rng.randint(1, 60), Fraction(rng.randint(1, 10), rng.choice((1, 2, 3))))
        flows.append(FlowSpec(id=str(i + 1), app="App", name=f"flow {i + 1}", qos=qos))
    return flows, networks, AllocatorConfig(l_max=l_max, factor=rng.choice((1, 8)))


def _relaxing_instance(rng: random.Random, fipy_networks):
    """128 flows on LoRa, Sigfox and NB-IoT (the FiPy set without Wi-Fi), each declaring levels 1, 2 and 3.

    The criticality-aware pair places each flow at level 3 and relaxes it
    through 2 to 1. Payloads up to 200 B leave room for every relaxation;
    up to 2 000 B make many of them fail.
    """
    networks = [fipy_networks[kind] for kind in ("lora", "sigfox", "nbiot")]
    largest = rng.choice((200, 2000))
    flows = []
    for i in range(128):
        size, period = rng.randint(4, largest), rng.randint(1, 30)
        qos = {
            1: QosRequirement(size, Fraction(period)),
            2: QosRequirement(max(4, size // 4), Fraction(2 * period)),
            3: QosRequirement(4, Fraction(4 * period)),
        }
        flows.append(FlowSpec(id=str(i + 1), app=f"App{i % 4}", name=f"flow {i + 1}", qos=qos))
    return flows, networks, AllocatorConfig(l_max=3, factor=8)


class TestPinnedTableOrder:
    """The fourteen heuristics' tables, entry order included, on inputs TestPinnedTables never draws."""

    SMALL, RELAXING = 600, 40
    DIGEST = "71cbbd27f05b5afe188ffda83ca62fc3ca227ea0b531c532b93328e1860d4380"

    def test_tables_digest(self, fipy_networks):
        rng = random.Random(0x0DE5)
        instances = [_order_instance(rng) for _ in range(self.SMALL)]
        instances += [_relaxing_instance(rng, fipy_networks) for _ in range(self.RELAXING)]
        digest = hashlib.sha256()
        for flows, networks, cfg in instances:
            for name in HEURISTIC_NAMES:
                table = run_algorithm(name, flows, networks, cfg)
                entries = ";".join(f"{fid},{a.network_id},{a.level!r}" for fid, a in table.entries.items())
                residuals = ",".join(f"{key}={left}" for key, left in table.residual.items())
                digest.update(f"{name}:{entries}|{residuals}\n".encode())
        assert digest.hexdigest() == self.DIGEST


def reference_first_fit(demand: int, residual: list[int]) -> int:
    for j, left in enumerate(residual):
        if left >= demand:
            return j
    return -1


def reference_best_fit(demand: int, residual: list[int]) -> int:
    best, best_left = -1, 0
    for j, left in enumerate(residual):
        if left >= demand and (best < 0 or left < best_left):
            best, best_left = j, left
    return best


def reference_worst_fit(demand: int, residual: list[int]) -> int:
    best, best_left = -1, -1
    for j, left in enumerate(residual):
        if left >= demand and left > best_left:
            best, best_left = j, left
    return best


def reference_fit_rows(reference, items, residual: list[int]) -> list:
    """``reference`` driven one item at a time: ``fill``'s rows, with ``residual`` lowered."""
    rows = []
    for flow_id, level, demand in items:
        j = reference(demand, residual)
        if j >= 0:
            residual[j] -= demand
            rows.append((flow_id, j, level, demand))
    return rows


@st.composite
def fit_inputs(draw):
    """0-8 ``(flow id, level, demand)`` items and 0-6 residuals, drawn from a pool of at most four values, zero among them.

    The small pool makes equal residuals common, and a demand is often one
    of the residuals.
    """
    pool = [0, *draw(st.lists(st.integers(0, 12), min_size=1, max_size=3))]
    residual = draw(st.lists(st.sampled_from(pool), max_size=6))
    demands = draw(st.lists(st.one_of(st.sampled_from(pool), st.integers(0, 13)), max_size=8))
    items = [(str(i), draw(st.integers(1, 3)), demand) for i, demand in enumerate(demands)]
    return items, residual


@pytest.mark.parametrize(
    "rule,reference",
    [
        (allocators._first_fit, reference_first_fit),
        (allocators._best_fit, reference_best_fit),
        (allocators._worst_fit, reference_worst_fit),
    ],
    ids=["first", "best", "worst"],
)
@given(case=fit_inputs())
# Equal residuals: each tie goes to the earlier network.
@example(case=([("a", 1, 3), ("b", 2, 3), ("c", 1, 3)], [5, 5, 5]))
# A demand equal to a residual, which it leaves at zero.
@example(case=([("a", 1, 4), ("b", 1, 2), ("c", 3, 6)], [6, 4, 9]))
# Zero-capacity networks: only a zero demand fits them.
@example(case=([("a", 1, 1), ("b", 2, 0), ("c", 1, 0)], [0, 0]))
# No networks, and no items.
@example(case=([("a", 1, 0), ("b", 1, 5)], []))
@example(case=([], [3, 0, 3]))
@settings(max_examples=400)
def test_fit_rules_match_the_reference_loop(rule, reference, case):
    items, residual = case
    expected_residual = list(residual)
    expected = reference_fit_rows(reference, items, expected_residual)
    assert rule(items, residual) == expected
    assert residual == expected_residual


def reference_criticality_aware(flows, networks, cfg, admit_first):
    """The criticality-aware pair as it was before any pass was skipped.

    Every level runs both its passes, and each entry goes in through
    ``AllocationTable.place``, one flow at a time.
    """
    table = AllocationTable(networks)
    allocators.check_flow_ids(flows)
    residual = [p.capacity_micro_bps for p in networks]
    by_level: dict = {}
    for i, flow in enumerate(flows):
        for level, qos in flow.qos.items():
            by_level.setdefault(level, []).append((i, cfg.factor * qos.demand_micro_bps))
    passes = sorted((item for item in by_level.items() if 1 <= item[0] <= cfg.l_max), reverse=True)
    where = [-1] * len(flows)
    held_level = [0] * len(flows)
    held_demand = [0] * len(flows)
    last_try = [0] * len(flows)
    step = 0
    for level, declared_here in passes:
        for admitting in (admit_first, not admit_first):
            step += 1
            for i, demand in declared_here:
                held = where[i]
                if admitting and held < 0:
                    j = reference_best_fit(demand, residual)
                    if j >= 0:
                        residual[j] -= demand
                        where[i], held_level[i], held_demand[i] = j, level, demand
                        last_try[i] = step
                elif not admitting and held >= 0 and held_level[i] > level:
                    residual[held] += held_demand[i]
                    j = reference_best_fit(demand, residual)
                    if j >= 0:
                        residual[j] -= demand
                        where[i], held_level[i], held_demand[i] = j, level, demand
                    else:
                        residual[held] -= held_demand[i]
                    last_try[i] = step
    shared: dict = {}
    for i in sorted(range(len(flows)), key=last_try.__getitem__):
        j = where[i]
        if j >= 0:
            level = held_level[i]
            placed = shared.setdefault((j, level, type(level)), Allocation(networks[j].id, level))
            table.place(flows[i].id, placed, held_demand[i])
    return table


@st.composite
def criticality_instances(draw):
    """0-6 flows on 0-4 networks for the criticality-aware pair.

    In half the instances levels are drawn from ``0``, ``-1``, ``1..3``
    and ``l_max + 1``, so a flow may declare no usable level and a level
    may lie outside ``1..l_max``; in the other half every flow declares a
    level in ``1..l_max``, as in a validated flow set. Capacities come
    from a pool of two values, so twin networks are common, and one pool
    value may be large enough to hold every flow at its top level. About one
    demand in eight fits no network.
    """
    l_max = draw(st.integers(1, 3))
    if draw(st.booleans()):
        levels = st.sampled_from([0, -1, 1, 2, 3, l_max + 1])
        size = st.one_of(st.integers(1, 60), st.just(10_000))
        qos = st.dictionaries(levels, st.tuples(size, st.integers(1, 10)), max_size=4)
    else:
        # A validated flow set: every flow declares a level, all in 1..l_max.
        levels = st.sampled_from(range(1, l_max + 1))
        qos = st.dictionaries(levels, st.tuples(st.integers(1, 60), st.integers(1, 10)), min_size=1, max_size=3)
    raw_flows = draw(st.lists(qos, max_size=6))
    flows = [
        FlowSpec(str(i), "A", f"flow {i}", {level: QosRequirement(c, Fraction(t)) for level, (c, t) in raw.items()})
        for i, raw in enumerate(raw_flows)
    ]
    pool = draw(st.lists(st.sampled_from([1, 8, 40, 120, 250, 100_000]), min_size=2, max_size=2))
    capacities = draw(st.lists(st.sampled_from(pool), max_size=4))
    networks = [NetworkProfile(f"n{j}", f"net {j}", capacity) for j, capacity in enumerate(capacities)]
    return flows, networks, AllocatorConfig(l_max=l_max, factor=draw(st.sampled_from((1, 8))))


def _entries_in_order(table: AllocationTable) -> list:
    return [(fid, a, type(a.level)) for fid, a in table.entries.items()]


_Q = QosRequirement(4, Fraction(1))
_WIFI = NetworkProfile("wifi", "Wi-Fi", 64_000)
_CFG = AllocatorConfig(l_max=3, factor=8)


@pytest.mark.parametrize(
    "allocate,admit_first", [(cabf, False), (cabf_inv, True)], ids=["cabf", "cabf_inv"]
)
@given(instance=criticality_instances())
# Every flow placed at its top level, so both lower admit passes have nothing left to place.
@example(instance=([FlowSpec(str(i), "A", "f", {1: _Q, 2: _Q, 3: _Q}) for i in range(3)], [_WIFI], _CFG))
# A flow that fits nowhere keeps every admit pass running.
@example(instance=(
    [FlowSpec("big", "A", "f", {1: QosRequirement(10**6, Fraction(1))}), FlowSpec("small", "A", "f", {2: _Q, 1: _Q})],
    [_WIFI, NetworkProfile("twin", "Twin", 64_000)],
    _CFG,
))
# "b" declares 1 beside "a"'s 1; a flow with levels outside 1..l_max only; no networks.
@example(instance=([FlowSpec("a", "A", "f", {1: _Q}), FlowSpec("b", "A", "f", {1: _Q, 2: _Q})], [_WIFI], _CFG))
@example(instance=([FlowSpec("out", "A", "f", {0: _Q, 4: _Q}), FlowSpec("in", "A", "f", {3: _Q})], [_WIFI], _CFG))
@example(instance=([FlowSpec("a", "A", "f", {3: _Q, 1: _Q})], [], _CFG))
@settings(max_examples=400)
def test_criticality_aware_matches_the_every_pass_reference(allocate, admit_first, instance):
    flows, networks, cfg = instance
    table = allocate(flows, networks, cfg)
    expected = reference_criticality_aware(flows, networks, cfg, admit_first)
    assert _entries_in_order(table) == _entries_in_order(expected)
    assert list(table.residual.items()) == list(expected.residual.items())
