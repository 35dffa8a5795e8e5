from __future__ import annotations

import json
import math
import random
from collections import Counter, OrderedDict
from enum import Enum, IntEnum
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resilient_alloc import (
    Allocation,
    AllocationTable,
    AllocatorConfig,
    FlowSpec,
    NetworkEvent,
    QosRequirement,
    Scenario,
    builtin_profile,
    cabf,
    load_scenario,
    objective,
    report,
    run,
    run_algorithm,
)
from resilient_alloc.allocators import HEURISTIC_NAMES
from resilient_alloc.metrics import (
    REPORT_SCHEMA_VERSION,
    format_quantity,
    glyph_map,
    json_document,
    render_comparison_csv,
    render_comparison_json,
    render_comparison_table,
    report_to_json_dict,
)

from enumeration_oracle import random_instance

CFG8 = AllocatorConfig(l_max=3, factor=8)


class TestObjective:
    def test_criticality_aware_scores_22(self, assisted_living, table2_networks):
        table = cabf(list(assisted_living.flows), table2_networks, CFG8)
        assert objective(table, 3) == 22

    def test_high_first_fit_scores_15(self, assisted_living, table2_networks):
        table = run_algorithm("h-ff", list(assisted_living.flows), table2_networks, CFG8)
        assert objective(table, 3) == 15

    def test_empty_table_scores_zero(self, table2_networks):
        assert objective(AllocationTable(table2_networks), 3) == 0

    def test_histogram_identity_on_random_instances(self):
        # sum over entries == sum over the level histogram
        rng = random.Random(0x715)
        for _ in range(80):
            flows, networks, cfg = random_instance(rng)
            for name in ("cabf", "h-bf", "l-ffd"):
                table = run_algorithm(name, flows, networks, cfg)
                histogram: dict[int, int] = {}
                for entry in table.entries.values():
                    histogram[entry.level] = histogram.get(entry.level, 0) + 1
                via_histogram = sum(
                    count * (1 + cfg.l_max - level) for level, count in histogram.items()
                )
                assert objective(table, cfg.l_max) == via_histogram


class TestReport:
    def test_low_ffd_row(self, assisted_living, table2_networks):
        table = run_algorithm("l-ffd", list(assisted_living.flows), table2_networks, CFG8)
        rep = report(table, list(assisted_living.flows), table2_networks, 3)
        assert rep.percent_served == Fraction(75)
        assert rep.avg_criticality == Fraction(1)
        assert rep.objective == 18

    def test_per_flow_holds_the_table_entries(self, assisted_living, table2_networks):
        flows = list(assisted_living.flows)
        table = run_algorithm("l-ffd", flows, table2_networks, CFG8)
        rep = report(table, flows, table2_networks, 3)
        assert list(rep.per_flow) == [flow.id for flow in flows]
        assert sum(placed is None for placed in rep.per_flow.values()) == 2
        for flow in flows:
            if flow.id in table.entries:
                assert rep.per_flow[flow.id] is table.entries[flow.id]
            else:
                assert rep.per_flow[flow.id] is None

    def test_per_network_load_accounts_used_capacity(self, assisted_living, table2_networks):
        table = run_algorithm("h-bf", list(assisted_living.flows), table2_networks, CFG8)
        rep = report(table, list(assisted_living.flows), table2_networks, 3)
        used, capacity = rep.per_network_load["sigfox"]
        assert capacity == 48_000_000
        assert 0 < used <= capacity
        assert rep.per_network_load["wifi"][0] == 0

    def test_empty_flow_set(self, table2_networks):
        rep = report(AllocationTable(table2_networks), [], table2_networks, 3)
        assert rep.objective == 0
        assert rep.percent_served == 0
        assert rep.avg_criticality is None

    def test_bounds_hold_on_random_instances(self):
        rng = random.Random(0xF00D)
        for _ in range(60):
            flows, networks, cfg = random_instance(rng)
            table = run_algorithm("cabf-inv", flows, networks, cfg)
            rep = report(table, flows, networks, cfg.l_max)
            assert 0 <= rep.percent_served <= 100
            if rep.avg_criticality is not None:
                assert 1 <= rep.avg_criticality <= cfg.l_max

    def test_objective_is_the_table_objective_on_random_instances(self):
        rng = random.Random(0x0B1E)
        for _ in range(60):
            flows, networks, cfg = random_instance(rng)
            for name in HEURISTIC_NAMES:
                table = run_algorithm(name, flows, networks, cfg)
                assert report(table, flows, networks, cfg.l_max).objective == objective(table, cfg.l_max)

    def test_objective_counts_an_entry_for_an_unlisted_flow(self, assisted_living, table2_networks):
        flows = list(assisted_living.flows)
        table = run_algorithm("h-ff", flows, table2_networks, CFG8)
        unlisted = [flow for flow in flows if flow.id != "1"]
        assert "1" in table.entries
        rep = report(table, unlisted, table2_networks, 3)
        assert "1" not in rep.per_flow
        assert rep.objective == objective(table, 3) == 15

    def test_objective_with_unserved_flows(self, assisted_living, table2_networks):
        flows = list(assisted_living.flows)
        table = run_algorithm("l-ffd", flows, table2_networks, CFG8)
        rep = report(table, flows, table2_networks, 3)
        assert sum(placed is None for placed in rep.per_flow.values()) == 2
        assert rep.objective == objective(table, 3) == 18
        # Unserved and unlisted at once.
        rep = report(table, [flow for flow in flows if flow.id != next(iter(table.entries))], table2_networks, 3)
        assert rep.objective == objective(table, 3)


class TestRendering:
    def test_truncated_two_decimals(self):
        assert format_quantity(Fraction(17, 8)) == "2.12"  # 2.125 truncates
        assert format_quantity(Fraction(5, 4)) == "1.25"
        assert format_quantity(Fraction(13, 8)) == "1.62"  # 1.625 truncates
        assert format_quantity(Fraction(1)) == "1"
        assert format_quantity(Fraction(100)) == "100"
        assert format_quantity(None) == "-"
        assert format_quantity(Fraction(-17, 8)) == "-2.12"  # toward zero, not down to -2.13
        assert format_quantity(Fraction(-1, 2)) == "-0.5"
        assert format_quantity(Fraction(-1, 200)) == "0"  # no sign on a value that truncates to zero

    def test_glyphs_follow_technology_names(self, table2_networks, fipy_networks):
        glyphs = glyph_map(table2_networks)
        assert glyphs == {"wifi": "*", "lora": "#", "sigfox": "+"}
        glyphs = glyph_map(list(fipy_networks.values()))
        assert glyphs["nbiot"] == "-"

    def test_table_header_shows_factor(self, assisted_living, table2_networks):
        flows = list(assisted_living.flows)
        rows = [("cabf", report(cabf(flows, table2_networks, CFG8), flows, table2_networks, 3))]
        text = render_comparison_table(rows, flows, table2_networks, factor=8)
        assert text.splitlines()[0].startswith("factor=8")
        assert "CABF" in text

    def test_csv_row_shape(self, assisted_living, table2_networks):
        flows = list(assisted_living.flows)
        rows = [("h-ff", report(run_algorithm("h-ff", flows, table2_networks, CFG8), flows, table2_networks, 3))]
        text = render_comparison_csv(rows, flows, table2_networks)
        lines = text.strip().splitlines()
        assert lines[0].split(",")[:2] == ["algorithm", "flow_1"]
        assert lines[1].split(",")[0] == "h-ff"
        assert lines[1].split(",")[-1] == "15"

    def test_json_is_schema_versioned_and_parseable(self, assisted_living, table2_networks):
        flows = list(assisted_living.flows)
        rows = [("cabf", report(cabf(flows, table2_networks, CFG8), flows, table2_networks, 3))]
        doc = json.loads(render_comparison_json(rows, factor=8))
        assert doc["schema_version"] == 1
        assert doc["factor"] == 8
        row = doc["rows"][0]
        assert row["algorithm"] == "cabf"
        assert row["objective"] == 22
        assert row["avg_criticality_display"] == "1.25"
        assert row["per_flow"]["6"]["level"] == 2


def placement_object(value) -> dict:
    """The stdlib encoder's fallback: an ``Allocation`` as its ``{"level", "network"}`` object."""
    if isinstance(value, Allocation):
        return {"level": value.level, "network": value.network_id}
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def stdlib_document(value) -> str:
    """The reference ``json_document`` must match: the stdlib's indented encoder."""
    return json.dumps(value, sort_keys=True, indent=2, default=placement_object)


def stdlib_comparison(rows, factor: int) -> str:
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "factor": factor,
        "rows": [{"algorithm": name, **report_to_json_dict(rep)} for name, rep in rows],
    }
    return stdlib_document(doc) + "\n"


def comparison_rows(flows, networks, cfg):
    return [
        (name, report(run_algorithm(name, flows, networks, cfg), flows, networks, cfg.l_max))
        for name in HEURISTIC_NAMES
    ]


# Any code point, plus the lone surrogates and C0 controls that escape specially.
JSON_TEXT = st.text(
    st.one_of(st.characters(), st.characters(categories=["Cs"]), st.characters(max_codepoint=0x1F))
)
# The JSON scalars, plus the ``Allocation`` leaf that the writer turns into an object.
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200).flatmap(lambda big: st.sampled_from([big, -big])),
    st.floats(),
    st.sampled_from([-0.0, 1e300, 5e-324, math.nan, math.inf, -math.inf]),
    JSON_TEXT,
    st.builds(Allocation, JSON_TEXT, st.integers()),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(JSON_TEXT, children, max_size=4),
    ),
    max_leaves=40,
)


PLACED = Allocation("wi\"fi", 2)


# Subclasses of the JSON leaf and container types: each must be written as its base type is.
class Rank(IntEnum):
    LOW = 3


class Tech(str, Enum):
    WIFI = "wi-fi"


class Ratio(float):
    pass


class Rows(list):
    pass


class Loose:
    """A non-``str`` dict key that sorts among ``str`` keys by its text."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __lt__(self, other) -> bool:
        return self.text < (other.text if isinstance(other, Loose) else other)

    def __gt__(self, other) -> bool:
        return self.text > (other.text if isinstance(other, Loose) else other)


# Keys from a pool of five, so the same key sets recur at one depth and across
# depths, in different insertion orders. ``Tech.WIFI`` is equal to "wi-fi", so
# a dict holds at most one of the two.
POOLED_KEYS = st.lists(st.sampled_from(["a", "b", "wi-fi", Tech.WIFI, "é"]), unique=True, max_size=4)
POOLED_VALUES = st.recursive(
    st.one_of(st.none(), st.integers(-3, 3), st.sampled_from(["x", 0.5, True]), st.just(PLACED)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(POOLED_KEYS, st.lists(children, min_size=4, max_size=4)).map(lambda pair: dict(zip(*pair))),
    ),
    max_leaves=30,
)


def last_dict(value):
    """The last dict in a depth-first walk of ``value``, or None."""
    found = None
    if isinstance(value, dict):
        found = value
        children = value.values()
    elif isinstance(value, list):
        children = value
    else:
        return None
    for child in children:
        found = last_dict(child) or found
    return found


class TestJsonDocument:
    @settings(max_examples=300)
    @given(POOLED_VALUES, st.sampled_from([1, 2.5, None, Loose("a"), Loose("z")]))
    @example([{"a": 1, "b": 2}, {"b": 3, "a": 4}, {"a": {"b": 5, "a": 6}}], 1)
    @example({"a": {"a": {"a": None, "b": 0}}, "b": [{"b": 1, "a": 2}, {"a": 3, "b": 4}]}, Loose("a"))
    @example([{"wi-fi": 1, "a": 2}, {"a": 3, Tech.WIFI: 4}, {Tech.WIFI: {"wi-fi": 5, "a": 6}, "a": 7}], Loose("b"))
    @example([{}, {"a": {}}, {"a": []}], None)
    def test_recurring_key_sets_match_the_stdlib_encoder(self, value, bad_key):
        assert json_document(value) == stdlib_document(value)
        # An earlier dict's keys plus one that is not a str.
        earlier = last_dict(value) or {}
        with pytest.raises(TypeError):
            json_document([value, {**earlier, bad_key: 0}])


    @settings(max_examples=300)
    @given(JSON_VALUES)
    @example({"": {}, "a": [], "b": [[], {}, ()], "c": ({"d": [{}]},)})
    @example([2**64, -(2**70), -0.0, 1e300, 5e-324, math.nan, math.inf, -math.inf, True, False, None])
    @example({"\ud800": "\udfff\x00\x1f\x7f", "é": "😀\u2028", "\"": "\\"})
    @example({"a": PLACED, "b": {"c": PLACED}, "d": [PLACED, [PLACED]]})
    @example(
        {
            "int_enum": Rank.LOW,
            "str_enum": Tech.WIFI,
            "float_subclass": Ratio(0.5),
            "ordered": OrderedDict([("b", Ratio(-0.0)), ("a", Rank.LOW)]),
            "counter": Counter("abca"),
            "list_subclass": Rows([Rank.LOW, Tech.WIFI, Rows()]),
        }
    )
    @example([Rank.LOW, Tech.WIFI, Ratio(1e300), OrderedDict(), Counter(), Rows(), {"k": Counter()}])
    @example(
        {
            "a": PLACED,
            "b": {"c": Allocation(PLACED.network_id, 2), "d": Allocation(PLACED.network_id, 1)},
            "e": Allocation(PLACED.network_id, 1),
            "f": [Allocation(PLACED.network_id, 1)],
        }
    )
    def test_matches_the_stdlib_encoder(self, value):
        assert json_document(value) == stdlib_document(value)

    @pytest.mark.parametrize(
        "value", [Fraction(1, 3), {1, 2}, {"k": [Fraction(1)]}, [{"k": frozenset()}], {1: "int key"}]
    )
    def test_unsupported_value_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            json_document(value)

    def test_comparison_on_random_instances_matches_the_stdlib(self):
        rng = random.Random(0x150)
        checked = 0
        while checked < 200:
            flows, networks, cfg = random_instance(rng, max_flows=128)
            if len(flows) < 8:
                continue
            rows = comparison_rows(flows, networks, cfg)
            assert render_comparison_json(rows, cfg.factor) == stdlib_comparison(rows, cfg.factor)
            checked += 1

    @pytest.mark.parametrize("factor", [1, 8])
    def test_comparison_on_the_paper_networks_matches_the_stdlib(
        self, assisted_living, table2_networks, fipy_networks, factor
    ):
        flows = list(assisted_living.flows)
        cfg = AllocatorConfig(l_max=assisted_living.l_max, factor=factor)
        for networks in (table2_networks, list(fipy_networks.values())):
            rows = comparison_rows(flows, networks, cfg)
            assert render_comparison_json(rows, factor) == stdlib_comparison(rows, factor)

    def test_wifi_loss_report_matches_the_stdlib(self, wifi_loss_path):
        result = run(load_scenario(wifi_loss_path))
        assert result.json_bytes() == stdlib_document(result.to_json_dict()).encode("utf-8")

    def test_many_small_flows_report_matches_the_stdlib(self):
        rng = random.Random(0x5A11)
        flows = tuple(
            FlowSpec(
                id=str(i + 1),
                app=f"App{i % 4}",
                name=f"flow {i + 1}",
                qos={
                    level: QosRequirement(rng.randint(4, 200) // level, Fraction(rng.randint(1, 30) * level))
                    for level in (1, 2, 3)
                },
            )
            for i in range(24)
        )
        events = []
        for network_id in ("wifi", "nbiot", "lora"):
            start = rng.randrange(10, 200)
            events += [NetworkEvent(Fraction(start), network_id, False), NetworkEvent(Fraction(start + 50), network_id, True)]
        scenario = Scenario(
            flows=flows,
            networks=tuple(builtin_profile(kind) for kind in ("wifi_table2", "lora_sf7_fipy", "sigfox_fipy", "nbiot_fipy")),
            l_max=3,
            factor=8,
            algorithm="cabf-inv",
            duration_seconds=Fraction(300),
            seed=rng.getrandbits(63),
            events=tuple(sorted(events, key=lambda event: (event.time, event.network_id))),
        )
        result = run(scenario)
        assert result.json_bytes() == stdlib_document(result.to_json_dict()).encode("utf-8")
