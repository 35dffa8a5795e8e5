from __future__ import annotations

import dataclasses
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from resilient_alloc import FlowSpec, QosRequirement, ValidationError, utilization, validate_flow_set
from resilient_alloc.flows import FORBIDDEN_NAME_CHARS, check_flow_name, flow_set_from_dict


def _flow(fid: str, qos: dict[int, tuple[int, object]], name: str | None = None) -> FlowSpec:
    return FlowSpec(
        id=fid,
        app="App",
        name=name or f"flow {fid}",
        qos={
            level: QosRequirement(c, Fraction(t)) for level, (c, t) in qos.items()
        },
    )


def _by_id(flow_set, fid):
    return next(flow for flow in flow_set.flows if flow.id == fid)


class TestUtilization:
    def test_fall_detection_level1_factor8(self, assisted_living):
        # 8 * 1000 / 10 = 800 bps
        flow = _by_id(assisted_living, "1")
        assert utilization(flow, 1, 8) == 800_000_000

    def test_undeclared_level_is_none(self, assisted_living):
        flow = _by_id(assisted_living, "8")
        assert utilization(flow, 2, 8) is None
        assert utilization(flow, 2, 1) is None

    def test_c_equals_t(self, assisted_living):
        # 30 bytes every 30 s at factor 1 -> exactly 1 byte/s
        flow = _by_id(assisted_living, "3")
        assert utilization(flow, 1, 1) == 1_000_000

    def test_fractional_interval(self):
        flow = _flow("x", {1: (1, Fraction(1, 2))})
        assert utilization(flow, 1, 1) == 2_000_000

    def test_rounding_half_up(self):
        # 1 byte / 3 s = 333333.33.. micro -> 333333
        flow = _flow("x", {1: (1, 3)})
        assert utilization(flow, 1, 1) == 333_333
        # 2/3 -> 666666.66.. -> 666667
        flow = _flow("y", {1: (2, 3)})
        assert utilization(flow, 1, 1) == 666_667

    @given(
        c=st.integers(min_value=1, max_value=10**9),
        t_num=st.integers(min_value=1, max_value=10**9),
        t_den=st.integers(min_value=1, max_value=10**6),
    )
    def test_factor8_is_exactly_eight_times_factor1(self, c, t_num, t_den):
        flow = _flow("x", {1: (c, Fraction(t_num, t_den))})
        assert utilization(flow, 1, 8) == 8 * utilization(flow, 1, 1)

    def test_fixture_is_antitone_in_level(self, assisted_living):
        # In the shipped catalogue, demand never grows with the level.
        for flow in assisted_living.flows:
            levels = sorted(flow.qos)
            for lower, higher in zip(levels, levels[1:]):
                assert utilization(flow, higher, 8) <= utilization(flow, lower, 8)


def _half_up_micro(c: int, t: Fraction) -> int:
    """C/T in micro-bps, rounded half-up, computed in exact rationals."""
    return math.floor(Fraction(c * 10**6) / t + Fraction(1, 2))


class TestDemand:
    """``QosRequirement.demand_micro_bps``: the factor-1 demand, computed once."""

    @pytest.mark.parametrize(
        "c,t",
        [
            pytest.param(10**400, Fraction(3), id="huge_c"),
            pytest.param(10**400 + 1, Fraction(10**400, 7), id="huge_c_and_t"),
            pytest.param(7, Fraction(1000000007 * 3 + 1, 1000000007), id="prime_denominator"),
            pytest.param(123456789, Fraction(2**61 - 1, 1000000009 * 1000000021), id="two_prime_denominators"),
            pytest.param(1, Fraction(2_000_000), id="exact_half_rounds_up"),
            pytest.param(1, Fraction(2_000_001), id="just_below_a_half"),
        ],
    )
    def test_matches_half_up_rounding(self, c, t):
        qos = QosRequirement(c, t)
        assert qos.demand_micro_bps == _half_up_micro(c, t)
        flow = FlowSpec(id="1", app="A", name="f", qos={2: qos})
        assert utilization(flow, 2, 1) == qos.demand_micro_bps
        assert utilization(flow, 2, 8) == 8 * qos.demand_micro_bps

    @given(c=st.integers(1, 10**30), t_num=st.integers(1, 10**30), t_den=st.integers(1, 10**12))
    def test_matches_half_up_rounding_anywhere(self, c, t_num, t_den):
        t = Fraction(t_num, t_den)
        assert QosRequirement(c, t).demand_micro_bps == _half_up_micro(c, t)

    def test_not_in_repr_eq_or_hash(self):
        qos = QosRequirement(30, Fraction(7, 3))
        assert repr(qos) == "QosRequirement(message_size_bytes=30, min_interval_seconds=Fraction(7, 3))"
        altered = QosRequirement(30, Fraction(7, 3))
        object.__setattr__(altered, "demand_micro_bps", 0)
        assert altered == qos and hash(altered) == hash(qos)
        with pytest.raises(TypeError, match="demand_micro_bps"):
            QosRequirement(30, Fraction(7, 3), demand_micro_bps=12_857_143)

    def test_replace_recomputes_it(self):
        qos = QosRequirement(30, Fraction(7, 3))
        assert qos.demand_micro_bps == 12_857_143
        assert dataclasses.replace(qos, message_size_bytes=60).demand_micro_bps == 25_714_286
        assert dataclasses.replace(qos, min_interval_seconds=Fraction(1, 2)).demand_micro_bps == 60_000_000


class TestValidation:
    def test_shipped_catalogue_is_valid(self, assisted_living):
        validate_flow_set(assisted_living.flows, assisted_living.l_max)

    def test_duplicate_id(self):
        flows = [_flow("1", {1: (10, 1)}), _flow("1", {1: (10, 1)}, name="other")]
        with pytest.raises(ValidationError) as excinfo:
            validate_flow_set(flows, 3)
        assert excinfo.value.rule == "duplicate-id"
        assert excinfo.value.flow_id == "1"

    def test_empty_qos(self):
        flow = FlowSpec(id="1", app="App", name="empty", qos={})
        with pytest.raises(ValidationError) as excinfo:
            validate_flow_set([flow], 3)
        assert excinfo.value.rule == "no-levels"

    def test_level_beyond_l_max(self):
        with pytest.raises(ValidationError) as excinfo:
            validate_flow_set([_flow("1", {4: (10, 1)})], 3)
        assert excinfo.value.rule == "bad-level"

    def test_forbidden_name_characters(self):
        with pytest.raises(ValueError):
            _flow("1", {1: (10, 1)}, name="a,b")
        with pytest.raises(ValueError):
            _flow("1", {1: (10, 1)}, name="a:b")

    @given(st.one_of(st.just(""), st.text(), st.text(alphabet=",:<>\nab\u00e9", max_size=6)))
    def test_name_check_matches_the_intersection_form(self, name):
        def reference(name: str) -> None:
            if not name:
                raise ValueError("flow name must be non-empty")
            bad = FORBIDDEN_NAME_CHARS.intersection(name)
            if bad:
                raise ValueError(f"flow name {name!r} contains forbidden characters {sorted(bad)}")

        outcomes = []
        for check in (check_flow_name, reference):
            try:
                outcomes.append(("ok", check(name)))
            except ValueError as exc:
                outcomes.append(("error", str(exc)))
        assert outcomes[0] == outcomes[1]

    def test_qos_requirement_bounds(self):
        with pytest.raises(ValueError):
            QosRequirement(0, Fraction(1))
        with pytest.raises(ValueError):
            QosRequirement(1, Fraction(0))


class TestJson:
    def test_shipped_catalogue_matches_expected_shape(self, assisted_living):
        assert assisted_living.l_max == 3
        assert [flow.id for flow in assisted_living.flows] == [str(i) for i in range(1, 9)]
        flow1 = _by_id(assisted_living, "1")
        assert flow1.app == "HealthApp"
        assert flow1.name == "fall detection"
        assert flow1.qos[3] == QosRequirement(10, Fraction(60))
        assert sorted(_by_id(assisted_living, "8").qos) == [1]

    def test_decimal_interval_parses_exactly(self):
        doc = json.loads(
            '{"l_max": 1, "flows": [{"id": "1", "app": "A", "name": "n",'
            ' "qos": {"1": {"c": 5, "t": 0.5}}}]}'
        )
        flow_set = flow_set_from_dict(doc)
        assert flow_set.flows[0].qos[1].min_interval_seconds == Fraction(1, 2)

    def test_rational_string_interval(self):
        doc = {
            "l_max": 1,
            "flows": [{"id": "1", "app": "A", "name": "n", "qos": {"1": {"c": 1, "t": "1/3"}}}],
        }
        flow_set = flow_set_from_dict(doc)
        assert flow_set.flows[0].qos[1].min_interval_seconds == Fraction(1, 3)

    @pytest.mark.parametrize("again", ["01", "1.0", "+1", "1e0"])
    def test_level_written_twice_is_refused(self, again):
        qos = {"1": {"c": 10, "t": 10}, again: {"c": 99999, "t": 1}}
        doc = {"l_max": 1, "flows": [{"id": "1", "name": "n", "qos": qos}]}
        with pytest.raises(ValueError, match=rf"^flows\[0\]\.qos\.{re.escape(again)}: level 1 appears more than once$"):
            flow_set_from_dict(doc)

    def test_loader_rejects_invalid_set(self):
        doc = {"l_max": 2, "flows": [{"id": "1", "app": "A", "name": "n", "qos": {"3": {"c": 1, "t": 1}}}]}
        with pytest.raises(ValidationError):
            flow_set_from_dict(doc)
