from __future__ import annotations

import json
import random
from fractions import Fraction

from resilient_alloc import AllocationTable, AllocatorConfig, cabf, objective, report, run_algorithm
from resilient_alloc.metrics import (
    format_quantity,
    glyph_map,
    render_comparison_csv,
    render_comparison_json,
    render_comparison_table,
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


class TestRendering:
    def test_truncated_two_decimals(self):
        assert format_quantity(Fraction(17, 8)) == "2.12"  # 2.125 truncates
        assert format_quantity(Fraction(5, 4)) == "1.25"
        assert format_quantity(Fraction(13, 8)) == "1.62"  # 1.625 truncates
        assert format_quantity(Fraction(1)) == "1"
        assert format_quantity(Fraction(100)) == "100"
        assert format_quantity(None) == "-"

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
