"""Replay oracle: the simulator's counts against a simplified model of the node.

Without availability events the allocation never changes, so a reference
needs no heap, no wire and no random numbers. It runs the allocator once over
the networks that start up, lists each flow's emissions at k·T <= duration
(k >= 1; T from the allocated level, or from the lowest declared level when
the flow is unallocated), and replays each network's sends in (time, flow
position) order through the payload cap, the daily allowance and the gap
since the last successful send. Without outages every admitted message is
delivered, so latency moves no count and uniform latencies can be drawn too.

The model and its comparisons stay in this module: pytest rewrites asserts
only in test modules, so they hold under ``python -O`` as well.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_alloc import FixedDelay, FlowSpec, NetworkProfile, QosRequirement, Scenario, UniformDelay, run
from resilient_alloc.allocators import AllocatorConfig
from resilient_alloc.catalog import run_algorithm
from resilient_alloc.simulator import FlowLevelCounts, NetworkCounts

_SECONDS_PER_DAY = 86400
# Keeps each example under about this many emissions.
_MAX_EMISSIONS = 3000
# Message sizes and payload caps come from one small set, so that a size
# equal to the cap is drawn often.
_SIZES = (1, 5, 12, 51, 100)


def reference_counts(scenario: Scenario) -> tuple[dict, dict]:
    """``per_flow_level`` and ``per_network`` as the simplified model counts them."""
    up = {p.id for p in scenario.networks}
    if scenario.initially_available is not None:
        up = set(scenario.initially_available)
    cfg = AllocatorConfig(l_max=scenario.l_max, factor=scenario.factor)
    table = run_algorithm(scenario.algorithm, list(scenario.flows), [p for p in scenario.networks if p.id in up], cfg)

    per_flow_level: dict[str, dict[int, FlowLevelCounts]] = {}
    sends: dict[str, list[tuple[Fraction, int, int, FlowLevelCounts]]] = {p.id: [] for p in scenario.networks}
    for position, flow in enumerate(scenario.flows):
        placed = table.entries.get(flow.id)
        level = min(flow.qos) if placed is None else placed.level
        qos = flow.qos[level]
        emissions = int(scenario.duration_seconds // qos.min_interval_seconds)
        per_flow_level[flow.id] = {}
        if emissions == 0:
            continue
        counts = per_flow_level[flow.id][level] = FlowLevelCounts(sent=emissions)
        if placed is None:
            counts.err_not_allocated = emissions
            continue
        for k in range(1, emissions + 1):
            sends[placed.network_id].append((k * qos.min_interval_seconds, position, qos.message_size_bytes, counts))

    per_network = {}
    for profile in scenario.networks:
        totals = per_network[profile.id] = NetworkCounts()
        cap, allowance = profile.max_payload_bytes, profile.max_messages_per_day
        gap = profile.min_inter_message_gap_seconds
        last_send, day, sent_today = None, None, 0
        for time, _, size, counts in sorted(sends[profile.id], key=lambda send: send[:2]):
            if time // _SECONDS_PER_DAY != day:
                day, sent_today = time // _SECONDS_PER_DAY, 0
            if cap is not None and size > cap:
                counts.err_not_delivered += 1
            elif allowance is not None and sent_today >= allowance:
                totals.budget_violations_avoided += 1
                counts.err_not_delivered += 1
            elif gap is not None and last_send is not None and time - last_send < gap:
                counts.err_not_delivered += 1
            else:
                last_send, sent_today = time, sent_today + 1
                totals.messages += 1
                totals.bytes += size
                counts.delivered += 1
    return per_flow_level, per_network


@st.composite
def scenarios(draw) -> Scenario:
    """Event-free scenarios of up to 6 flows and 3 networks, over runs of up to 50 hours."""
    # Whole days drawn apart, so that allowances roll over in many examples.
    duration = Fraction(draw(st.integers(0, 2)) * _SECONDS_PER_DAY + draw(st.integers(1, 2 * 3600)))
    n_flows = draw(st.integers(0, 6))
    # Every period and gap is a multiple of one unit, so ties and exact gaps
    # are common; the unit keeps the emissions under the cap.
    unit = Fraction(math.ceil(2 * duration * max(n_flows, 1) / _MAX_EMISSIONS), 2)
    multiples = st.sampled_from((1, 2, 3, 4, 5, 7, 10)).map(lambda m: m * unit)
    l_max = draw(st.integers(1, 3))
    flows = []
    for i in range(n_flows):
        levels = draw(st.sets(st.integers(1, l_max), min_size=1))
        qos = {level: QosRequirement(draw(st.sampled_from(_SIZES)), draw(multiples)) for level in levels}
        flows.append(FlowSpec(id=str(i + 1), app="App", name=f"flow {i + 1}", qos=qos))
    latency = st.one_of(
        st.integers(0, 5000).map(lambda ms: FixedDelay(Fraction(ms, 1000))),
        st.tuples(st.integers(0, 3000), st.integers(0, 3000)).map(
            lambda pair: UniformDelay(Fraction(pair[0], 1000), Fraction(sum(pair), 1000))
        ),
    )
    networks = [
        NetworkProfile(
            id=f"n{j}",
            name=f"net {j}",
            capacity_bps=draw(st.sampled_from((1, 10, 100, 1000, 100_000))),
            max_payload_bytes=draw(st.none() | st.sampled_from(_SIZES)),
            max_messages_per_day=draw(st.none() | st.integers(0, 10)),
            min_inter_message_gap_seconds=draw(st.none() | st.just(Fraction(0)) | multiples),
            latency=draw(latency),
        )
        for j in range(draw(st.integers(1, 3)))
    ]
    initially_available = draw(st.none() | st.lists(st.sampled_from([p.id for p in networks]), unique=True))
    return Scenario(
        flows=tuple(flows),
        networks=tuple(networks),
        l_max=l_max,
        factor=draw(st.sampled_from((1, 8))),
        algorithm=draw(st.sampled_from(("cabf", "cabf-inv", "l-ff", "h-bfd", "exact"))),
        duration_seconds=duration,
        seed=draw(st.integers(0, 2**64 - 1)),
        initially_available=None if initially_available is None else tuple(initially_available),
    )


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_simulator_matches_the_replay_model(scenario):
    per_flow_level, per_network = reference_counts(scenario)
    report = run(scenario)
    assert report.per_flow_level == per_flow_level
    assert report.per_network == per_network
