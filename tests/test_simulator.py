from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from resilient_alloc import (
    Allocation,
    FixedDelay,
    FlowSpec,
    NetworkEvent,
    NetworkProfile,
    QosRequirement,
    Scenario,
    UniformDelay,
    builtin_profile,
    load_scenario,
    run,
    run_algorithm,
)
from resilient_alloc import simulator, wire
from resilient_alloc.rng import SplitMix64
from resilient_alloc.simulator import DEFAULT_HANDSHAKE, NetworkCounts, scenario_from_dict

from conftest import MIXED_TRAFFIC, REPO_ROOT


def _scenario(flows, networks, **overrides) -> Scenario:
    defaults = dict(
        flows=tuple(flows),
        networks=tuple(networks),
        l_max=3,
        factor=1,
        algorithm="cabf-inv",
        duration_seconds=Fraction(600),
        seed=42,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def _simple_flow(fid: str, c: int, t: int, name: str | None = None) -> FlowSpec:
    return FlowSpec(
        id=fid,
        app="App",
        name=name or f"flow {fid}",
        qos={1: QosRequirement(c, Fraction(t))},
    )


class TestHandshakeDuration:
    # Samples are whole ticks of 1/SCALE seconds.
    SCALE = DEFAULT_HANDSHAKE.tick_denominator

    def test_default_model_stays_in_window(self):
        sample, rng = DEFAULT_HANDSHAKE.sampler(self.SCALE), SplitMix64(7)
        for _ in range(100):
            value = Fraction(sample(rng), self.SCALE)
            assert Fraction("1.3") <= value < Fraction("1.5")

    def test_fixed_zero_for_unit_tests(self):
        assert FixedDelay(Fraction(0)).sampler(self.SCALE)(SplitMix64(1)) == 0

    def test_same_seed_same_value(self):
        sample = DEFAULT_HANDSHAKE.sampler(self.SCALE)
        assert sample(SplitMix64(99)) == sample(SplitMix64(99))

    def test_sample_is_the_exact_grid_point(self):
        # low + (high - low) * u / 2**64 for the generator's next u, at any multiple of the scale.
        for scale in (self.SCALE, 3 * self.SCALE):
            draw = SplitMix64(5).next_u64()
            expected = Fraction("1.3") + Fraction("0.2") * Fraction(draw, 1 << 64)
            assert Fraction(DEFAULT_HANDSHAKE.sampler(scale)(SplitMix64(5)), scale) == expected

    def test_a_scale_that_splits_a_tick_is_refused(self):
        with pytest.raises(ValueError, match=r" s is not a whole number of 1/10 s ticks$"):
            DEFAULT_HANDSHAKE.sampler(10)


class TestWifiOnly:
    def test_everything_delivered_at_level_one(self, assisted_living):
        scenario = _scenario(assisted_living.flows, [builtin_profile("wifi_fipy")])
        report = run(scenario)
        for flow in assisted_living.flows:
            totals = report.flow_totals(flow.id)
            assert totals.sent == totals.delivered
            assert totals.err_not_allocated == 0
            assert totals.err_not_delivered == 0
            assert report.final_allocation[flow.id] == Allocation("wifi", 1)
        # 600 s of level-1 periods: first emission at T, last at/below 600
        assert report.flow_totals("1").sent == 60
        assert report.flow_totals("2").sent == 120
        assert report.flow_totals("8").sent == 0  # period longer than the run

    def test_delivered_bytes_respect_capacity(self, assisted_living):
        scenario = _scenario(assisted_living.flows, [builtin_profile("wifi_fipy")])
        report = run(scenario)
        budget = (
            builtin_profile("wifi_fipy").capacity_bps
            * scenario.duration_seconds
            / scenario.factor
        )
        assert report.per_network["wifi"].bytes <= budget


class TestSigfoxOnly:
    """120 simulated seconds against the hand-simulated event sequence.

    Allocation pins flows (1,2,4,6,7) to level 2 and (3,5,8) to level 1. The
    12-byte payload cap rejects every message of flows 1, 2, 3 and 5; flow 4
    wins each 30-second emission tick by flow order, leaving flows 6 and 7
    inside the 10.5 s minimum gap forever; flow 8's period exceeds the run.
    """

    EXPECTED = {
        "1": (6, 0, 0, 6),
        "2": (12, 0, 0, 12),
        "3": (4, 0, 0, 4),
        "4": (4, 4, 0, 0),
        "5": (12, 0, 0, 12),
        "6": (4, 0, 0, 4),
        "7": (4, 0, 0, 4),
        "8": (0, 0, 0, 0),
    }

    def test_counts_match_hand_simulation(self, assisted_living):
        scenario = _scenario(
            assisted_living.flows,
            [builtin_profile("sigfox_fipy")],
            duration_seconds=Fraction(120),
        )
        report = run(scenario)
        for flow_id, (sent, delivered, ena, end) in self.EXPECTED.items():
            totals = report.flow_totals(flow_id)
            assert (
                totals.sent,
                totals.delivered,
                totals.err_not_allocated,
                totals.err_not_delivered,
            ) == (sent, delivered, ena, end), flow_id
        sigfox = report.per_network["sigfox"]
        assert sigfox.messages == 4
        assert sigfox.bytes == 40
        assert sigfox.budget_violations_avoided == 0

    def test_levels_match_allocation(self, assisted_living):
        scenario = _scenario(
            assisted_living.flows,
            [builtin_profile("sigfox_fipy")],
            duration_seconds=Fraction(120),
        )
        report = run(scenario)
        levels = {fid: placed.level for fid, placed in report.final_allocation.items()}
        assert levels == {"1": 2, "2": 2, "3": 1, "4": 2, "5": 1, "6": 2, "7": 2, "8": 1}


class TestAvailabilityChange:
    def _loss_scenario(self, assisted_living):
        return _scenario(
            assisted_living.flows,
            [builtin_profile("wifi_fipy"), builtin_profile("nbiot_fipy")],
            events=(NetworkEvent(time=Fraction(300), network_id="wifi", up=False),),
        )

    def test_exactly_one_handshake_in_default_window(self, assisted_living):
        report = run(self._loss_scenario(assisted_living))
        assert len(report.handshakes) == 1
        shake = report.handshakes[0]
        assert shake.start == 300
        assert Fraction("1.3") <= shake.duration < Fraction("1.5")

    def test_no_emissions_inside_the_window(self, assisted_living):
        transcript: list = []
        report = run(self._loss_scenario(assisted_living), transcript=transcript.append)
        shake = report.handshakes[0]
        for entry in transcript:
            if entry["dir"] == "host->node" and not entry["body"].startswith("<"):
                inside = float(shake.start) < entry["t"] < float(shake.accepted)
                assert not inside, entry

    def test_post_event_allocations_avoid_lost_network(self, assisted_living):
        report = run(self._loss_scenario(assisted_living))
        for flow in assisted_living.flows:
            assert report.final_allocation[flow.id] == Allocation("nbiot", 1)

    def test_handshake_frames_in_transcript(self, assisted_living):
        transcript: list = []
        report = run(self._loss_scenario(assisted_living), transcript=transcript.append)
        shake = report.handshakes[0]
        inits = [e for e in transcript if e["body"] == "<INFO:RE-ALLOC:INIT>"]
        accepts = [e for e in transcript if e["body"] == "<INFO:RE-ALLOC:ACCEPTED>"]
        mfeas = [e for e in transcript if e["body"].startswith("MFEA:")]
        assert [e["t"] for e in inits] == [float(shake.start)]
        assert [e["t"] for e in accepts] == [float(shake.accepted)]
        assert [e["t"] for e in mfeas] == [0.0, float(shake.accepted)]

    def test_in_flight_messages_on_lost_network_fail(self):
        flow = _simple_flow("1", c=10, t=10)
        slow = NetworkProfile(
            id="slow", name="Slow", capacity_bps=1000, latency=FixedDelay(Fraction(2))
        )
        scenario = _scenario(
            [flow],
            [slow],
            duration_seconds=Fraction(25),
            events=(NetworkEvent(time=Fraction(11), network_id="slow", up=False),),
            handshake=FixedDelay(Fraction(1, 2)),
        )
        report = run(scenario)
        totals = report.flow_totals("1")
        # sent at t=10 (lost in flight) and at t=21.5 (no network left)
        assert totals.sent == 2
        assert totals.delivered == 0
        assert totals.err_not_delivered == 1
        assert totals.err_not_allocated == 1
        assert report.final_allocation["1"] is None

    def test_wifi_loss_with_lora_fallback(self, assisted_living):
        scenario = _scenario(
            assisted_living.flows,
            [builtin_profile("wifi_fipy"), builtin_profile("lora_sf7_fipy")],
            events=(NetworkEvent(time=Fraction(300), network_id="wifi", up=False),),
        )
        report = run(scenario)
        assert len(report.handshakes) == 1
        for flow in assisted_living.flows:
            placed = report.final_allocation[flow.id]
            assert placed is not None
            assert placed.network_id == "lora"

    def test_final_allocation_is_the_last_table(self, assisted_living, monkeypatch):
        tables = []

        def recording(*args):
            tables.append(run_algorithm(*args))
            return tables[-1]

        monkeypatch.setattr(simulator, "run_algorithm", recording)
        scenario = _scenario(
            assisted_living.flows,
            [builtin_profile("wifi_fipy"), builtin_profile("lora_sf7_fipy")],
            events=(NetworkEvent(time=Fraction(300), network_id="wifi", up=False),),
        )
        report = run(scenario)
        assert len(tables) == 2
        last = tables[-1].entries
        assert report.final_allocation == {flow.id: last.get(flow.id) for flow in assisted_living.flows}
        for flow_id, placed in report.final_allocation.items():
            assert isinstance(placed, Allocation)
            assert placed is last[flow_id]

    def test_changes_inside_an_open_window_merge_into_one_handshake(self, assisted_living):
        scenario = _scenario(
            assisted_living.flows,
            [builtin_profile("wifi_fipy"), builtin_profile("nbiot_fipy")],
            events=(
                NetworkEvent(time=Fraction(300), network_id="wifi", up=False),
                NetworkEvent(time=Fraction("300.5"), network_id="wifi", up=True),
            ),
        )
        transcript: list = []
        report = run(scenario, transcript=transcript.append)
        assert len(report.handshakes) == 1
        shake = report.handshakes[0]
        assert shake.start == 300
        # the second change re-samples completion from t=300.5
        assert Fraction("1.8") <= shake.duration < Fraction("2.0")
        inits = [e for e in transcript if e["body"] == "<INFO:RE-ALLOC:INIT>"]
        assert len(inits) == 1
        for entry in transcript:
            if entry["dir"] == "host->node" and not entry["body"].startswith("<"):
                assert not float(shake.start) < entry["t"] < float(shake.accepted)

    def test_network_coming_up_also_reallocates(self):
        flow = _simple_flow("1", c=10, t=10)
        big = NetworkProfile(id="big", name="Big", capacity_bps=1000)
        small = NetworkProfile(id="small", name="Small", capacity_bps=100)
        scenario = _scenario(
            [flow],
            [big, small],
            duration_seconds=Fraction(100),
            initially_available=("big",),
            events=(NetworkEvent(time=Fraction(50), network_id="small", up=True),),
            handshake=FixedDelay(Fraction(0)),
        )
        report = run(scenario)
        assert len(report.handshakes) == 1
        # best fit prefers the tighter bin once it exists
        assert report.final_allocation["1"] == Allocation("small", 1)


class TestDeliveryConstraints:
    def test_payload_cap_blocks_oversized_messages(self):
        flow = _simple_flow("1", c=20, t=10)
        capped = NetworkProfile(id="capped", name="Capped", capacity_bps=1000, max_payload_bytes=10)
        report = run(_scenario([flow], [capped], duration_seconds=Fraction(50)))
        totals = report.flow_totals("1")
        assert totals.sent == 5
        assert totals.delivered == 0
        assert totals.err_not_delivered == 5
        assert report.per_network["capped"].budget_violations_avoided == 0

    def test_min_gap_blocks_rapid_fire(self):
        flow = _simple_flow("1", c=1, t=2)
        gapped = NetworkProfile(
            id="gapped",
            name="Gapped",
            capacity_bps=1000,
            min_inter_message_gap_seconds=Fraction(5),
        )
        report = run(_scenario([flow], [gapped], duration_seconds=Fraction(10)))
        totals = report.flow_totals("1")
        # sends at 2,4,6,8,10; the gap admits t=2 and t=8 only
        assert totals.sent == 5
        assert totals.delivered == 2
        assert totals.err_not_delivered == 3

    def test_daily_budget_resets_at_midnight(self):
        flow = _simple_flow("1", c=1, t=21600)  # four emissions per day
        rationed = NetworkProfile(
            id="rationed", name="Rationed", capacity_bps=1000, max_messages_per_day=2
        )
        report = run(
            _scenario([flow], [rationed], duration_seconds=Fraction(172800))
        )
        totals = report.flow_totals("1")
        # day 0: 21600, 43200 delivered, 64800 refused; day 1 (from t=86400):
        # 86400, 108000 delivered, 129600, 151200 refused; day 2: 172800 delivered
        assert totals.sent == 8
        assert totals.delivered == 5
        assert totals.err_not_delivered == 3
        assert report.per_network["rationed"].budget_violations_avoided == 3

    def test_send_rules_apply_in_order_payload_budget_gap(self):
        # A refusal is counted by the first rule that fails, so the budget
        # tally shows the order: payload cap, then daily allowance, then gap.
        big = _simple_flow("big", c=20, t=10)
        small = _simple_flow("small", c=5, t=10)
        strict = NetworkProfile(
            id="strict",
            name="Strict",
            capacity_bps=1000,
            max_payload_bytes=10,
            max_messages_per_day=2,
            min_inter_message_gap_seconds=Fraction(15),
        )
        report = run(_scenario([big, small], [strict], duration_seconds=Fraction(60)))
        big_totals, small_totals = report.flow_totals("big"), report.flow_totals("small")
        # big: every send is over the payload cap and never reaches the budget.
        assert (big_totals.sent, big_totals.delivered, big_totals.err_not_delivered) == (6, 0, 6)
        # small: 10 and 30 delivered; 20 inside the gap; 40, 50, 60 over the budget.
        assert (small_totals.sent, small_totals.delivered, small_totals.err_not_delivered) == (6, 2, 4)
        assert report.per_network["strict"] == NetworkCounts(messages=2, bytes=10, budget_violations_avoided=3)

    def test_fractional_period_keeps_exact_emission_grid(self):
        flow = FlowSpec(
            id="1", app="A", name="fast", qos={1: QosRequirement(1, Fraction(1, 2))}
        )
        net = NetworkProfile(id="n", name="N", capacity_bps=1000)
        report = run(_scenario([flow], [net], duration_seconds=Fraction(5)))
        totals = report.flow_totals("1")
        assert totals.sent == 10  # 0.5, 1.0, ..., 5.0
        assert totals.delivered == 10

    def test_unallocated_flow_reports_not_allocated(self):
        fits = _simple_flow("1", c=10, t=10, name="fits")
        too_big = _simple_flow("2", c=10_000, t=1, name="too big")
        tiny = NetworkProfile(id="tiny", name="Tiny", capacity_bps=100)
        transcript: list = []
        report = run(
            _scenario([fits, too_big], [tiny], duration_seconds=Fraction(30)),
            transcript=transcript.append,
        )
        assert report.final_allocation["1"] == Allocation("tiny", 1)
        assert report.final_allocation["2"] is None
        rejected = report.flow_totals("2")
        assert rejected.sent == 30
        assert rejected.err_not_allocated == 30
        assert rejected.delivered == 0
        # the refusals travel the wire in their canonical form
        errors = [e for e in transcript if e["body"] == "<ERR:too big:NOT-ALLOCATED>"]
        acks = [e for e in transcript if e["body"] == "<ACK:fits>"]
        assert len(errors) == 30
        assert len(acks) == 3


class TestReportInvariants:
    @pytest.mark.parametrize(
        "kinds",
        [
            ("wifi_fipy",),
            ("sigfox_fipy",),
            ("wifi_fipy", "sigfox_fipy"),
            ("nbiot_fipy", "lora_sf7_fipy"),
        ],
    )
    def test_conservation(self, assisted_living, kinds):
        networks = [builtin_profile(kind) for kind in kinds]
        report = run(_scenario(assisted_living.flows, networks, duration_seconds=Fraction(180)))
        for flow in assisted_living.flows:
            totals = report.flow_totals(flow.id)
            assert totals.sent == (
                totals.delivered + totals.err_not_allocated + totals.err_not_delivered
            )

    def test_exact_solver_drives_the_node_too(self, assisted_living):
        scenario = _scenario(
            assisted_living.flows,
            [builtin_profile("wifi_fipy")],
            algorithm="exact",
            duration_seconds=Fraction(60),
        )
        report = run(scenario)
        for flow in assisted_living.flows:
            totals = report.flow_totals(flow.id)
            assert totals.sent == totals.delivered

    def test_byte_identical_reports_for_same_seed(self, wifi_loss_path):
        first = run(load_scenario(wifi_loss_path)).json_bytes()
        second = run(load_scenario(wifi_loss_path)).json_bytes()
        assert first == second

    def test_seed_is_recorded_with_generator_name(self, wifi_loss_path):
        report = run(load_scenario(wifi_loss_path))
        doc = report.to_json_dict()
        assert doc["seed"] == 20210607
        assert doc["rng"] == "splitmix64"
        assert doc["schema_version"] == 1

    def test_per_level_fractions_cover_the_declared_levels(self):
        flows = [
            _simple_flow("1", 10, 10),
            FlowSpec(id="2", app="App", name="flow 2", qos={3: QosRequirement(10, Fraction(10))}),
        ]
        report = run(_scenario(flows, [builtin_profile("wifi_fipy")], l_max=10**6))
        assert list(report.to_json_dict()["delivered_fraction_by_level"]) == ["1", "3"]

    def test_codec_fault_surfaces_as_simulation_failure(self, wifi_loss_path, monkeypatch):
        # The node learns the level only from the decoded frame, so a decoder
        # that shifts it breaks per-level conservation.
        decode_app = wire.decode_app

        def shifted(data: bytes) -> wire.AppMessage:
            message = decode_app(data)
            return wire.AppMessage(message.flow_name, message.level + 1, message.payload)

        monkeypatch.setattr(wire, "decode_app", shifted)
        with pytest.raises(AssertionError, match="conservation violated"):
            run(load_scenario(wifi_loss_path))

    def test_memory_stays_flat_over_simulated_time(self):
        def peak_bytes(days: int) -> int:
            scenario = _scenario(
                [_simple_flow("1", 1, 300)],
                [builtin_profile("wifi_fipy")],
                duration_seconds=Fraction(days * 86400),
            )
            tracemalloc.start()
            try:
                run(scenario)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_bytes(1)  # warm up one-time caches
        assert peak_bytes(7) <= 1.5 * peak_bytes(1)


class TestFrameMemo:
    def test_each_distinct_message_frame_is_encoded_once_and_every_frame_decoded(self, monkeypatch):
        calls: Counter[str] = Counter()
        for name in ("encode_frame", "encode_app", "encode_control", "decode_app", "parse_control"):

            def counted(arg, _name=name, _original=getattr(wire, name)):
                calls[_name] += 1
                return _original(arg)

            monkeypatch.setattr(wire, name, counted)
        frames: list[dict] = []
        scenario = scenario_from_dict(MIXED_TRAFFIC)
        run(scenario, frames.append)
        sent = Counter(frame["body"] for frame in frames)
        # MFEA and re-allocation frames are encoded at every send, the rest once per run.
        each_send = {body: n for body, n in sent.items() if body.startswith(("MFEA:", "<INFO:"))}
        once = [body for body in sent if body not in each_send]
        controls = [body for body in sent if body.startswith("<")]
        apps = [body for body in once if body not in controls]
        assert calls == {
            "encode_frame": len(once) + sum(each_send.values()),
            # Scenario.validate encodes one empty APP body per declared level.
            "encode_app": len(apps) + sum(len(flow.qos) for flow in scenario.flows),
            "encode_control": len(once) - len(apps) + sum(n for body, n in each_send.items() if body.startswith("<")),
            "decode_app": sum(sent[body] for body in apps),
            "parse_control": sum(sent[body] for body in controls),
        }
        assert max(sent[body] for body in once) > 1


class TestLargeDenominators:
    """Times with many large coprime denominators: a huge tick scale, the same bytes as exact rationals."""

    # Ten-digit primes: each period, gap and latency bound has its own denominator.
    PRIMES = (
        1000000007, 1000000009, 1000000021, 1000000033, 1000000087, 1000000093, 1000000097, 1000000103,
        1000000123, 1000000181, 1000000207, 1000000223, 1000000241, 1000000271, 1000000289, 1000000297,
    )
    # Recorded with every simulated time held as a Fraction.
    REPORT_DIGEST = "14faa4e2ef236695b891dc005d46b9371c739bc0d91a998f8beda4a952d09be7"
    TRANSCRIPT_DIGEST = "fdf2e195e3956ae05edd6644bb6e90258dbb746be92bd6f3b50cf9ad88622f35"

    def scenario(self) -> Scenario:
        primes = iter(self.PRIMES)

        def just_over(seconds: int) -> Fraction:
            prime = next(primes)
            return Fraction(seconds * prime + 1, prime)

        flows = [
            FlowSpec(
                id=str(i + 1),
                app="App",
                name=f"flow {i + 1}",
                qos={level: QosRequirement(c, just_over(4 + 6 * level + i)) for level, c in ((1, 40), (2, 20), (3, 8))},
            )
            for i in range(4)
        ]
        wifi = NetworkProfile(
            id="wifi",
            name="Wi-Fi",
            capacity_bps=1000,
            min_inter_message_gap_seconds=just_over(3),
            latency=UniformDelay(Fraction(1, self.PRIMES[-1]), just_over(0)),
        )
        lora = NetworkProfile(
            id="lora",
            name="LoRa",
            capacity_bps=6,
            max_payload_bytes=30,
            max_messages_per_day=150,
            latency=UniformDelay(Fraction(1), just_over(2)),
        )
        events = (
            NetworkEvent(time=Fraction(1, 10**400), network_id="wifi", up=False),
            NetworkEvent(time=just_over(1800), network_id="wifi", up=True),
        )
        return _scenario(flows, [wifi, lora], duration_seconds=Fraction(3600), seed=2022, events=events)

    def test_the_scale_is_huge(self):
        assert simulator._Simulation(self.scenario(), None).scale > 10**400 * 2**64 * 10**(9 * 12)

    def test_report_and_transcript_bytes(self):
        lines: list[str] = []
        report = run(self.scenario(), transcript=lambda entry: lines.append(json.dumps(entry, sort_keys=True) + "\n"))
        # Deliveries on both networks, gap refusals on Wi-Fi, payload and allowance refusals on LoRa.
        assert report.per_network == {"wifi": NetworkCounts(285, 11400, 0), "lora": NetworkCounts(150, 3000, 260)}
        assert hashlib.sha256(report.json_bytes()).hexdigest() == self.REPORT_DIGEST
        assert hashlib.sha256("".join(lines).encode("utf-8")).hexdigest() == self.TRANSCRIPT_DIGEST


class TestScenarioValidation:
    def test_non_scalar_field_is_invalid_scenario(self, wifi_loss_path):
        doc = json.loads(wifi_loss_path.read_text())
        doc["duration_seconds"] = [600]
        with pytest.raises(ValueError, match=r"^duration_seconds: expected a number, got \[600\]$"):
            scenario_from_dict(doc)

    def test_non_object_flow_is_invalid_scenario(self, wifi_loss_path):
        doc = json.loads(wifi_loss_path.read_text())
        doc["flows"] = [1]
        with pytest.raises(ValueError, match=r"^flows\[0\]: must be an object, got int$"):
            scenario_from_dict(doc)

    def test_duplicate_flow_names_rejected(self):
        flows = [_simple_flow("1", 1, 1, name="same"), _simple_flow("2", 1, 1, name="same")]
        net = NetworkProfile(id="n", name="N", capacity_bps=10)
        message = r"^flows\[1\]\.name: duplicate flow name 'same' \(the wire protocol addresses flows by name\)$"
        with pytest.raises(ValueError, match=message):
            run(_scenario(flows, [net]))

    def test_event_time_outside_duration_rejected(self):
        flow = _simple_flow("1", 1, 1)
        net = NetworkProfile(id="n", name="N", capacity_bps=10)
        with pytest.raises(ValueError, match=r"^events\[0\]\.t: time 11 outside \[0, duration\]$"):
            run(
                _scenario(
                    [flow],
                    [net],
                    duration_seconds=Fraction(10),
                    events=(NetworkEvent(Fraction(11), "n", False),),
                )
            )

    def test_unknown_event_network_rejected(self):
        flow = _simple_flow("1", 1, 1)
        net = NetworkProfile(id="n", name="N", capacity_bps=10)
        with pytest.raises(ValueError, match=r"^events\[0\]\.network: unknown network 'ghost'$"):
            run(_scenario([flow], [net], events=(NetworkEvent(Fraction(1), "ghost", False),)))

    def test_unknown_algorithm_rejected(self):
        flow = _simple_flow("1", 1, 1)
        net = NetworkProfile(id="n", name="N", capacity_bps=10)
        with pytest.raises(ValueError, match=r"^algorithm: unknown algorithm 'magic'$"):
            run(_scenario([flow], [net], algorithm="magic"))

    @pytest.mark.parametrize(
        "field,delay,expected",
        [
            pytest.param("handshake", None, DEFAULT_HANDSHAKE, id="default"),
            pytest.param("latency", {"fixed_ms": 8}, FixedDelay(Fraction("0.008")), id="fixed_ms"),
            pytest.param(
                "latency",
                {"uniform_ms": [24, 2800]},
                UniformDelay(Fraction("0.024"), Fraction("2.8")),
                id="uniform_ms",
            ),
            pytest.param("handshake", {"fixed_seconds": "1/2"}, FixedDelay(Fraction(1, 2)), id="fixed_seconds"),
            pytest.param(
                "handshake",
                {"uniform_seconds": [1.3, 1.5]},
                UniformDelay(Fraction("1.3"), Fraction("1.5")),
                id="uniform_seconds",
            ),
            pytest.param("latency", {"fixed_seconds": 1}, None, id="latency_without_ms_key"),
            pytest.param("handshake", {"fixed_ms": 1400}, None, id="handshake_without_seconds_key"),
        ],
    )
    def test_delay_override_parses(self, wifi_loss_path, field, delay, expected):
        doc = json.loads(wifi_loss_path.read_text())
        if field == "latency":
            doc["networks"][0] = {"id": "wifi", "capacity_bps": 750_000, "latency": delay}
        elif delay is not None:
            doc["handshake"] = delay
        if expected is None:
            with pytest.raises(ValueError, match="must specify"):
                scenario_from_dict(doc)
            return
        scenario = scenario_from_dict(doc)
        got = scenario.networks[0].latency if field == "latency" else scenario.handshake
        assert got == expected

    @pytest.mark.parametrize(
        "make,message",
        [
            pytest.param(lambda: {"handshake": FixedDelay(Fraction(-1))}, "delay must be >= 0", id="handshake"),
            pytest.param(
                lambda: {"latency": UniformDelay(Fraction(2), Fraction(1))}, "0 <= min <= max", id="latency_inverted"
            ),
            pytest.param(
                lambda: {"latency": UniformDelay(Fraction(-1), Fraction(1))}, "0 <= min <= max", id="latency_below_zero"
            ),
            *(
                pytest.param(lambda field=field: {field: -1}, f"{field} must be >= 0", id=f"{field}_negative")
                for field in (
                    "max_messages_per_day",
                    "min_inter_message_gap_seconds",
                    "connect_time_seconds",
                )
            ),
        ],
    )
    def test_negative_times_are_rejected_at_construction(self, make, message):
        # Every value is made inside pytest.raises: the constructors must refuse
        # it, or the run would move virtual time backwards.
        with pytest.raises(ValueError, match=message):
            fields = make()
            handshake = fields.pop("handshake", DEFAULT_HANDSHAKE)
            net = NetworkProfile(id="n", name="N", capacity_bps=10, **fields)
            run(_scenario([_simple_flow("1", 1, 1)], [net], handshake=handshake))

    def test_invariants_are_checked_under_optimize_flag(self, wifi_loss_path):
        # A tampered wire counter must still trip the consistency check when
        # the interpreter strips assert statements (python -O).
        script = (
            "import sys\n"
            "from resilient_alloc.simulator import _Simulation, load_scenario\n"
            "sim = _Simulation(load_scenario(sys.argv[1]), None)\n"
            "report = sim.run()\n"
            "name = sim.scenario.flows[0].name\n"
            "sim.wire_acks[name] = sim.wire_acks.get(name, 0) + 1\n"
            "try:\n"
            "    sim._check_consistency(report)\n"
            "except AssertionError:\n"
            "    print('raised')\n"
        )
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        done = subprocess.run(
            [sys.executable, "-O", "-c", script, str(wifi_loss_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "raised\n"


class TestSelfChecks:
    """Each check the simulation makes on its own frames and counters raises when broken."""

    @pytest.fixture
    def sim(self, wifi_loss_path) -> simulator._Simulation:
        return simulator._Simulation(load_scenario(wifi_loss_path), None)

    def test_accept_outside_a_window(self, sim):
        with pytest.raises(AssertionError, match=r"^node got a re-allocation accept outside an open window$"):
            sim._node_on_frame(b"<INFO:RE-ALLOC:ACCEPTED>")
        assert sim.handshakes == []

    def test_control_message_the_node_cannot_handle(self, sim):
        with pytest.raises(AssertionError, match=r"^node cannot handle control message Ack\(flow_name='x'\)$"):
            sim._node_on_frame(b"<ACK:x>")

    def test_control_message_the_host_cannot_handle(self, sim):
        with pytest.raises(AssertionError, match=r"^host cannot handle control message ReallocAccepted\(\)$"):
            sim._host_on_frame(b"<INFO:RE-ALLOC:ACCEPTED>")

    def test_malformed_frame_on_the_channel(self, sim, monkeypatch):
        encode_frame = wire.encode_frame
        monkeypatch.setattr(wire, "encode_frame", lambda body: encode_frame(body)[:-1] + b"X")
        message = r"^node->host frame is malformed: MalformedFrame\(reason='bad-terminator', skipped=b''\)$"
        with pytest.raises(AssertionError, match=message):
            sim.run()

    def test_mfea_entry_the_host_disagrees_with(self, sim, monkeypatch):
        encode_mfea = wire.encode_mfea

        def one_byte_more(entries: list[wire.MfeaEntry]) -> str:
            return encode_mfea([dataclasses.replace(e, payload_size=e.payload_size + 1) for e in entries])

        monkeypatch.setattr(wire, "encode_mfea", one_byte_more)
        with pytest.raises(AssertionError, match=r"^MFEA entry disagrees for flow 1$"):
            sim.run()

    def test_ack_count_that_disagrees(self, sim):
        report = sim.run()
        sim.wire_acks[sim.scenario.flows[0].name] += 1
        with pytest.raises(AssertionError, match=r"^wire ACKs disagree with deliveries for flow 1$"):
            sim._check_consistency(report)

    @pytest.mark.parametrize("reason", list(wire.ErrorReason), ids=lambda reason: reason.value)
    def test_err_counts_that_disagree(self, sim, reason):
        report = sim.run()
        name = sim.scenario.flows[0].name
        sim.wire_errs[name, reason] += 1
        with pytest.raises(AssertionError, match=rf"^wire {reason.value.lower()} ERRs disagree for flow 1$"):
            sim._check_consistency(report)
