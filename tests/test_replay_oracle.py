"""Replay oracle: the simulator's counts against a simplified model of the node.

The model needs no heap, no wire and no random numbers. It cuts the run into
epochs. Epoch 0 starts at 0 with the allocation over the networks that start
up. An availability event at time e pauses the host before any emission at e,
so it ends the epoch: every emission at or after e is dropped. With a fixed
handshake h, it opens a re-allocation window that closes at e + h; a later
event at or before the close extends the window to close h after that event,
and the pair is one handshake. The next epoch starts when the window closes,
with the allocation over the networks then up. In each epoch a flow emits at
start + k·T (k >= 1; T from the allocated level, or from the lowest declared
level when the flow is unallocated) while the time is before the next event
and at most the duration. Each network's sends are replayed in (time, flow position) order
across epochs through the payload cap, the daily allowance and the gap since
the last successful send.

Stage 1 draws no events, so the allocation never changes, every admitted
message is delivered, latency moves no count and uniform latencies can be
drawn too. Stage 2 draws one outage with fixed latencies: a network X that
starts up goes down at t_d and may come back at t_u > t_d + h. At t_d, every
message admitted on X that would arrive at or after t_d is lost: it counts as
not delivered at its level and never reaches X's counts, though its send
still advanced X's gap clock and daily count. Stage 3 may add a second change
at t_2 inside the window, t_d < t_2 < t_d + h: X comes back, or another
network goes up or down. The window then closes at t_2 + h, and a network
that goes down at t_2 loses its messages in flight at t_2 the same way.

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
from resilient_alloc.simulator import DEFAULT_HANDSHAKE, FlowLevelCounts, Handshake, NetworkCounts, NetworkEvent

_SECONDS_PER_DAY = 86400
# Keeps each example under about this many emissions.
_MAX_EMISSIONS = 3000
# Message sizes and payload caps come from one small set, so that a size
# equal to the cap is drawn often.
_SIZES = (1, 5, 12, 51, 100)


def reference(scenario: Scenario) -> tuple[dict, dict, list]:
    """``per_flow_level``, ``per_network`` and ``handshakes`` as the simplified model counts them.

    With events, the handshake and every latency must be fixed.
    """
    up = {p.id for p in scenario.networks}
    if scenario.initially_available is not None:
        up = set(scenario.initially_available)
    shake = scenario.handshake.max_seconds
    epochs, start = [], Fraction(0)  # (start, end, networks up)
    windows: list[list[Fraction]] = []  # [opened, closes] of each re-allocation window
    for event in scenario.events:
        if windows and event.time <= windows[-1][1]:
            windows[-1][1] = event.time + shake
        else:
            epochs.append((start, event.time, up))
            windows.append([event.time, event.time + shake])
        up = up | {event.network_id} if event.up else up - {event.network_id}
        start = windows[-1][1]
    epochs.append((start, math.inf, up))

    cfg = AllocatorConfig(l_max=scenario.l_max, factor=scenario.factor)
    per_flow_level: dict[str, dict[int, FlowLevelCounts]] = {flow.id: {} for flow in scenario.flows}
    sends: dict[str, list[tuple[Fraction, int, int, FlowLevelCounts]]] = {p.id: [] for p in scenario.networks}
    for start, end, up in epochs:
        table = run_algorithm(scenario.algorithm, list(scenario.flows), [p for p in scenario.networks if p.id in up], cfg)
        for position, flow in enumerate(scenario.flows):
            placed = table.entries.get(flow.id)
            level = min(flow.qos) if placed is None else placed.level
            qos = flow.qos[level]
            time = start + qos.min_interval_seconds
            while time <= scenario.duration_seconds and time < end:
                counts = per_flow_level[flow.id].setdefault(level, FlowLevelCounts())
                counts.sent += 1
                if placed is None:
                    counts.err_not_allocated += 1
                else:
                    sends[placed.network_id].append((time, position, qos.message_size_bytes, counts))
                time += qos.min_interval_seconds

    downs: dict[str, list[Fraction]] = {p.id: [] for p in scenario.networks}
    for event in scenario.events:
        if not event.up:
            downs[event.network_id].append(event.time)
    per_network = {}
    for profile in scenario.networks:
        totals = per_network[profile.id] = NetworkCounts()
        cap, allowance = profile.max_payload_bytes, profile.max_messages_per_day
        gap, latency = profile.min_inter_message_gap_seconds, profile.latency.max_seconds
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
                if any(time < down <= time + latency for down in downs[profile.id]):
                    counts.err_not_delivered += 1  # lost in flight
                else:
                    totals.messages += 1
                    totals.bytes += size
                    counts.delivered += 1
    handshakes = [Handshake(opened, closes) for opened, closes in windows]
    return per_flow_level, per_network, handshakes


def _millis(ms: int) -> Fraction:
    return Fraction(ms, 1000)


@st.composite
def scenarios(draw, outage: bool = False, second_change: bool = False) -> Scenario:
    """Scenarios of up to 6 flows and 3 networks, over runs of up to 50 hours.

    With ``outage``, latencies and the handshake are fixed and one network
    that starts up goes down, and may come back after the handshake. With
    ``second_change`` too, a second network change falls inside that
    handshake's window where the window and the run leave room for one.
    """
    # Whole days drawn apart, so that allowances roll over in many examples.
    duration = Fraction(draw(st.integers(0, 2)) * _SECONDS_PER_DAY + draw(st.integers(1, 2 * 3600)))
    n_flows = draw(st.integers(0, 6))
    # Every period and gap is a multiple of one unit, or k/3 or k/7 of it, so
    # ties and exact gaps are common and the simulator's tick scale is not
    # only a power of ten; the unit keeps the emissions under the cap, as no
    # draw is below it.
    unit = Fraction(math.ceil(2 * duration * max(n_flows, 1) / _MAX_EMISSIONS), 2)
    multiples = st.sampled_from((1, 2, 3, 4, 5, 7, 10)).map(lambda m: m * unit) | st.sampled_from((3, 7)).flatmap(
        lambda d: st.integers(d, 10 * d).map(lambda k: Fraction(k, d) * unit)
    )
    l_max = draw(st.integers(1, 3))
    flows = []
    for i in range(n_flows):
        levels = draw(st.sets(st.integers(1, l_max), min_size=1))
        qos = {level: QosRequirement(draw(st.sampled_from(_SIZES)), draw(multiples)) for level in levels}
        flows.append(FlowSpec(id=str(i + 1), app="App", name=f"flow {i + 1}", qos=qos))
    # Delays of up to 5 s, or a few periods, so that messages are in flight
    # at an outage and windows span emissions.
    delays = st.integers(0, 5000).map(_millis) | multiples
    latency = delays.map(FixedDelay)
    if not outage:
        latency |= st.tuples(st.integers(0, 3000), st.integers(0, 3000)).map(
            lambda pair: UniformDelay(_millis(pair[0]), _millis(sum(pair)))
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
    ids = [p.id for p in networks]
    initially_available = draw(st.none() | st.lists(st.sampled_from(ids), min_size=1 if outage else 0, unique=True))
    handshake, events = DEFAULT_HANDSHAKE, []
    if outage:
        handshake = FixedDelay(draw(delays))
        network = draw(st.sampled_from(initially_available or ids))
        # Outages often fall just after a send, which is a multiple of the unit.
        down = min(duration, draw(st.integers(0, int(duration // unit))) * unit + draw(delays))
        events.append(NetworkEvent(down, network, False))
        up, closes = set(initially_available or ids) - {network}, down + handshake.seconds
        if second_change and down < min(duration, closes):
            # Strictly inside the window: X comes back, or another network changes.
            changed = draw(st.sampled_from(ids))
            at = min(duration, down + handshake.seconds * Fraction(draw(st.integers(1, 15)), 16))
            events.append(NetworkEvent(at, changed, changed not in up))
            up ^= {changed}
            closes = at + handshake.seconds
        if network not in up and closes < duration and draw(st.booleans()):
            back = min(duration, closes + _millis(draw(st.integers(1, 5000))) + draw(delays))
            events.append(NetworkEvent(back, network, True))
    return Scenario(
        flows=tuple(flows),
        networks=tuple(networks),
        l_max=l_max,
        factor=draw(st.sampled_from((1, 8))),
        algorithm=draw(st.sampled_from(("cabf", "cabf-inv", "l-ff", "h-bfd", "exact"))),
        duration_seconds=duration,
        seed=draw(st.integers(0, 2**64 - 1)),
        events=tuple(events),
        handshake=handshake,
        initially_available=None if initially_available is None else tuple(initially_available),
    )


def _check(scenario: Scenario) -> None:
    per_flow_level, per_network, handshakes = reference(scenario)
    report = run(scenario)
    assert report.per_flow_level == per_flow_level
    assert report.per_network == per_network
    assert report.handshakes == handshakes


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_simulator_matches_the_replay_model(scenario):
    _check(scenario)


@settings(max_examples=200, deadline=None)
@given(scenarios(outage=True))
def test_simulator_matches_the_replay_model_with_one_outage(scenario):
    _check(scenario)


@settings(max_examples=200, deadline=None)
@given(scenarios(outage=True, second_change=True))
def test_simulator_matches_the_replay_model_with_a_second_change_in_the_window(scenario):
    _check(scenario)
