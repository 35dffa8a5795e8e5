"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <n> <label>: PASS|FAIL`` line (run
pytest with ``-s`` or ``-rA`` to see them) and then asserts the individual
conditions so failures stay diagnosable.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from resilient_alloc import (
    AllocatorConfig,
    IlpInstance,
    NetworkEvent,
    Scenario,
    builtin_profile,
    cabf,
    cabf_inv,
    exact_solve,
    load_scenario,
    objective,
    report,
    run,
    run_algorithm,
    verify_allocation_table,
    wire,
)
from resilient_alloc.allocators import HEURISTIC_NAMES
from resilient_alloc.metrics import format_quantity

from enumeration_oracle import best_objective_by_enumeration, random_instance

CFG8 = AllocatorConfig(l_max=3, factor=8)
CFG1 = AllocatorConfig(l_max=3, factor=1)

L_SIDE = ("l-ff", "l-ffd", "l-bf", "l-bfd", "l-wf", "l-wfd")
H_SIDE = ("h-ff", "h-ffd", "h-bf", "h-bfd", "h-wf", "h-wfd")


def _announce(number: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}")


def _aggregates(table, flows, networks):
    rep = report(table, flows, networks, 3)
    return rep.objective, rep.percent_served, rep.avg_criticality


def test_criterion_1_exact_solver_on_motivating_example(assisted_living, table2_networks):
    flows = list(assisted_living.flows)
    started = time.perf_counter()
    table = exact_solve(IlpInstance(assisted_living.flows, table2_networks, CFG8))
    elapsed = time.perf_counter() - started
    got = _aggregates(table, flows, table2_networks)
    ok = got == (22, Fraction(100), Fraction(5, 4)) and elapsed < 1.0
    _announce(1, "exact solver optimum 22 / 100% / 1.25 in < 1 s", ok)
    assert got == (22, Fraction(100), Fraction(5, 4))
    assert elapsed < 1.0


def test_criterion_2_criticality_aware_pair_matches_optimum(assisted_living, table2_networks):
    flows = list(assisted_living.flows)
    res_cabf = _aggregates(cabf(flows, table2_networks, CFG8), flows, table2_networks)
    res_inv = _aggregates(cabf_inv(flows, table2_networks, CFG8), flows, table2_networks)
    expected = (22, Fraction(100), Fraction(5, 4))
    ok = res_cabf == expected and res_inv == expected
    _announce(2, "criticality-aware pair 22 / 100% / 1.25", ok)
    assert res_cabf == expected
    assert res_inv == expected


def test_criterion_3_baseline_aggregates(assisted_living, table2_networks):
    flows = list(assisted_living.flows)
    results = {
        name: _aggregates(run_algorithm(name, flows, table2_networks, CFG8), flows, table2_networks)
        for name in L_SIDE + H_SIDE
    }
    low_expected = (18, Fraction(75), Fraction(1))
    high_expected = (15, Fraction(100), Fraction(17, 8))
    ok = all(results[name] == low_expected for name in L_SIDE) and all(
        results[name] == high_expected for name in H_SIDE
    )
    ok = ok and format_quantity(Fraction(17, 8)) == "2.12"
    _announce(3, "baselines 18/75%/1 (low) and 15/100%/2.12 (high)", ok)
    for name in L_SIDE:
        assert results[name] == low_expected, name
    for name in H_SIDE:
        assert results[name] == high_expected, name
    assert format_quantity(Fraction(17, 8)) == "2.12"


def test_criterion_4_device_availability_table(assisted_living, fipy_networks):
    flows = list(assisted_living.flows)
    expected_rows = {
        ("wifi",): Fraction(1),
        ("nbiot",): Fraction(1),
        ("lora",): Fraction(5, 4),
        ("sigfox",): Fraction(13, 8),
        ("wifi", "lora"): Fraction(1),
        ("wifi", "sigfox"): Fraction(1),
        ("nbiot", "lora"): Fraction(1),
        ("nbiot", "sigfox"): Fraction(1),
    }
    observed = {}
    for row, expected_avg in expected_rows.items():
        networks = [fipy_networks[key] for key in row]
        rep = report(cabf_inv(flows, networks, CFG1), flows, networks, 3)
        observed[row] = (rep.percent_served, rep.avg_criticality)
    sigfox_table = cabf_inv(flows, [fipy_networks["sigfox"]], CFG1)
    sigfox_levels = tuple(sigfox_table.entries[f.id].level for f in flows)
    ok = all(
        observed[row] == (Fraction(100), expected) for row, expected in expected_rows.items()
    ) and sigfox_levels == (2, 2, 1, 2, 1, 2, 2, 1)
    _announce(4, "device table rows incl. Sigfox levels (2,2,1,2,1,2,2,1)", ok)
    for row, expected_avg in expected_rows.items():
        assert observed[row] == (Fraction(100), expected_avg), row
    assert sigfox_levels == (2, 2, 1, 2, 1, 2, 2, 1)


def test_criterion_5_oracle_equivalence_on_random_instances():
    rng = random.Random(0x5EED5)
    started = time.perf_counter()
    checked = 0
    for _ in range(1000):
        flows, networks, cfg = random_instance(rng)
        instance = IlpInstance(flows, networks, cfg)
        best = objective(exact_solve(instance), cfg.l_max)
        brute = best_objective_by_enumeration(flows, networks, cfg.l_max, cfg.factor)
        assert best == brute, (flows, networks, cfg)
        for name in HEURISTIC_NAMES:
            heuristic_objective = objective(
                run_algorithm(name, flows, networks, cfg), cfg.l_max
            )
            assert heuristic_objective <= best, (name, flows, networks, cfg)
        checked += 1
    elapsed = time.perf_counter() - started
    ok = checked == 1000 and elapsed < 60.0
    _announce(5, f"1000 instances: exact == brute force, heuristics <= ({elapsed:.1f} s)", ok)
    assert checked == 1000
    assert elapsed < 60.0


def test_criterion_6_allocation_validity_on_random_instances():
    rng = random.Random(0x5EED6)
    for _ in range(1000):
        flows, networks, cfg = random_instance(rng, max_flows=6)
        for name in HEURISTIC_NAMES:
            table = run_algorithm(name, flows, networks, cfg)
            verify_allocation_table(table, flows, networks, cfg)
        instance = IlpInstance(flows, networks, cfg)
        verify_allocation_table(exact_solve(instance), flows, networks, cfg)
    _announce(6, "1000 instances x 15 algorithms: tables valid", True)


def test_criterion_7_wire_codec_properties():
    rng = random.Random(0x5EED7)
    cases = 0
    while cases < 10_000:
        bodies = [rng.randbytes(rng.randint(0, 64)) for _ in range(rng.randint(1, 4))]
        cases += len(bodies)
        stream = b"".join(wire.encode_frame(body) for body in bodies)
        decoder = wire.FrameDecoder()
        events: list = []
        position = 0
        while position < len(stream):
            step = rng.randint(1, 13)
            events.extend(decoder.feed(stream[position : position + step]))
            position += step
        assert events == [wire.Frame(body) for body in bodies]
        assert decoder.pending == b""
    sample = wire.encode_mfea(
        [wire.MfeaEntry(41, "Wi-Fi", 10, "Kitchen Sensor", 1)]
    )
    expected = "MFEA:[{'PS': 41, 'N': 'Wi-Fi', 'PE': 10, 'MF': 'Kitchen Sensor', 'CL': 1}]"
    ok = cases >= 10_000 and sample == expected
    _announce(7, f"wire codec: {cases} chunked round-trips + canonical MFEA", ok)
    assert sample == expected
    assert cases >= 10_000


def test_criterion_8_high_criticality_delivery_and_handshake(assisted_living):
    flows = assisted_living.flows
    top_level_flows = [f.id for f in flows if 3 in f.qos]
    assert top_level_flows == ["1", "2"]

    def scenario(kinds, events=()):
        return Scenario(
            flows=flows,
            networks=tuple(builtin_profile(kind) for kind in kinds),
            l_max=3,
            factor=1,
            algorithm="cabf-inv",
            duration_seconds=Fraction(600),
            seed=99,
            events=tuple(events),
        )

    families = [
        scenario(("wifi_fipy",)),
        scenario(("nbiot_fipy",)),
        scenario(("wifi_fipy", "sigfox_fipy")),
        scenario(("nbiot_fipy", "sigfox_fipy")),
        scenario(
            ("wifi_fipy", "nbiot_fipy"),
            events=[NetworkEvent(time=Fraction(300), network_id="wifi", up=False)],
        ),
    ]
    fractions_ok = True
    for scen in families:
        rep = run(scen)
        for flow_id in top_level_flows:
            fractions_ok = fractions_ok and rep.delivered_fraction(flow_id) == 1

    transcript: list = []
    started = time.perf_counter()
    rep = run(families[-1], transcript=transcript.append)
    elapsed = time.perf_counter() - started
    one_handshake = len(rep.handshakes) == 1
    shake = rep.handshakes[0]
    duration_ok = Fraction("1.3") <= shake.duration <= Fraction("1.5")
    quiet = all(
        not (float(shake.start) < entry["t"] < float(shake.accepted))
        for entry in transcript
        if entry["dir"] == "host->node" and not entry["body"].startswith("<")
    )
    ok = fractions_ok and one_handshake and duration_ok and quiet and elapsed < 5.0
    _announce(8, "top-criticality flows 100% delivered; one quiet 1.3-1.5 s handshake", ok)
    assert fractions_ok
    assert one_handshake
    assert duration_ok
    assert quiet
    assert elapsed < 5.0


def test_criterion_9_reports_are_byte_deterministic(wifi_loss_path):
    first = run(load_scenario(wifi_loss_path)).json_bytes()
    second = run(load_scenario(wifi_loss_path)).json_bytes()
    ok = first == second
    _announce(9, "same scenario + seed gives byte-identical report JSON", ok)
    assert first == second
