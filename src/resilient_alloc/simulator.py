"""Deterministic discrete-event simulation of the host/node pair.

The host side plays the applications: one generator per flow emits a message
of the configured payload size every T seconds (first emission at t = T) and
keeps delivery statistics. The node side runs the allocator, announces the
resulting table over the framed wire protocol, and forwards application
messages to their assigned network subject to that network's delivery
constraints. Host and node are separate state machines that exchange real
protocol frames through an in-memory channel (encoded on one side, decoded
on the other), so codec regressions surface as simulation failures. The
frame is the only host-to-node channel: the node learns a message's flow,
level and size only from the decoded frame, and keeps only the messages
still in flight, so memory does not grow with simulated time.

A flow's messages at one level, its ACKs and its ERRs for one reason are
the same bytes every time, so each distinct such frame is built once per
run, through the ``wire`` encoders, and its bytes are reused for every later
send. Re-allocation control frames and MFEA announcements are encoded at
each send. Every frame sent is still fed to the receiver's decoder and
decoded there.

Virtual time replaces a thread-and-sleep implementation style: events are
processed in non-decreasing time order with deterministic tie-breaking
(network change < re-allocation start < re-allocation complete < message
emission < delivery, then flow input order, then insertion order). All
randomness (latency samples, handshake durations) comes from one named,
seeded generator, so a scenario replays to a byte-identical report.

Time is an int: a whole number of ticks of 1/scale seconds. Every time a
run reaches is a sum of input times (event times, periods, fixed delays and
uniform lower bounds) and of uniform draws, each a whole number of 2**-64
shares of its delay's span. ``scale`` is the lcm of the denominators of all
of these and of the duration and the send gaps, so each is a whole number of
ticks and the int arithmetic is exact: equal times stay equal and events pop
in the same order as with exact rationals. A time is converted back only
where it is written: a handshake as a ``Fraction``, a transcript time as the
correctly rounded float of ``ticks / scale``.

Delivery rules enforced per network, in this order: a message larger than
the payload cap, over the daily message allowance (which resets at every
simulated midnight, t mod 86400 = 0), or arriving sooner than the minimum
inter-message gap after the previous successful send is rejected and
reported as not delivered; the gap clock only advances on successful sends.
Messages still in flight on a network when it goes down are also counted as
not delivered; there is no retry.

Availability changes trigger a re-allocation handshake: the node announces
re-allocation, the host pauses every generator immediately, and after the
configured context-switch duration (default: uniform between 1.3 s and
1.5 s) the node publishes the new table, the host acknowledges, and
generators restart with a full period. During the window the node keeps the
previous table active except for entries on networks that are down. A
second availability change inside an open window extends it: the completion
is re-sampled from the later change and a single merged handshake is
recorded.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import asdict, astuple, dataclass, field
from fractions import Fraction
from pathlib import Path

from . import wire
from .allocators import Allocation, AllocatorConfig
from .catalog import ALGORITHM_NAMES, run_algorithm
from .flows import FlowSpec, flow_from_dict, validate_flow_set
from .metrics import json_document
from .networks import NetworkProfile, network_from_dict
from .rational import Node, number_text, read_json
from .rng import RNG_NAME, DelayModel, SplitMix64, UniformDelay, delay_from_dict, ticks

SIM_SCHEMA_VERSION = 1

_SECONDS_PER_DAY = 86400

# Tie-break priorities for events sharing a timestamp.
_P_NETWORK_CHANGE = 0
_P_REALLOC_START = 1
_P_REALLOC_COMPLETE = 2
_P_EMIT = 3
_P_DELIVER = 4


DEFAULT_HANDSHAKE = UniformDelay(Fraction("1.3"), Fraction("1.5"))

# Reports and transcripts write times and periods as floats.
_FLOAT_MAX = Fraction(sys.float_info.max)
# Runs are refused above this many emissions, so every accepted run finishes.
_MAX_EMISSIONS = 10**8


@dataclass(frozen=True)
class NetworkEvent:
    """Availability change: a network goes up or down at ``time``."""

    time: Fraction
    network_id: str
    up: bool


@dataclass(frozen=True)
class Scenario:
    """Complete simulation input; see the module docstring for semantics."""

    flows: tuple[FlowSpec, ...]
    networks: tuple[NetworkProfile, ...]
    l_max: int
    factor: int
    algorithm: str
    duration_seconds: Fraction
    seed: int
    events: tuple[NetworkEvent, ...] = ()
    handshake: DelayModel = DEFAULT_HANDSHAKE
    initially_available: tuple[str, ...] | None = None

    def validate(self) -> None:
        """Apply every scenario rule; the first rule broken raises ``ValueError`` naming its field."""
        validate_flow_set(self.flows, self.l_max)
        if self.duration_seconds <= 0:
            raise ValueError(f"duration_seconds: must be > 0, got {number_text(self.duration_seconds)}")
        # Every simulated time is at most the duration plus one handshake or one latency.
        delays = [self.handshake, *(profile.latency for profile in self.networks)]
        if self.duration_seconds + max(delay.max_seconds for delay in delays) > _FLOAT_MAX:
            raise ValueError(
                "duration_seconds: the duration plus the longest handshake or latency is beyond the float range"
            )
        if float(self.duration_seconds) == 0:
            raise ValueError("duration_seconds: must be > 0 as a float, got a value that rounds to 0.0")
        if self.algorithm not in ALGORITHM_NAMES:
            raise ValueError(f"algorithm: unknown algorithm {self.algorithm!r}")
        if self.factor < 1:
            raise ValueError(f"factor: must be >= 1, got {number_text(self.factor)}")
        if not 0 <= self.seed < (1 << 64):
            raise ValueError(f"seed: must fit in 64 bits, got {number_text(self.seed)}")
        ids: set[str] = set()
        widest, width = "", -1  # the network name that encodes longest in an MFEA record
        for index, profile in enumerate(self.networks):
            if profile.id in ids:
                raise ValueError(f"networks[{index}].id: duplicate network id {profile.id!r}")
            ids.add(profile.id)
            name = Node(profile.name, f"networks[{index}].name").build(wire.quote, profile.name)
            quoted = len(wire.escape_body(name.encode("utf-8")))
            if quoted > width:
                widest, width = profile.name, quoted
        names: set[str] = set()
        emissions = 0
        entries = []  # each flow's longest MFEA record on the widest network
        for index, flow in enumerate(self.flows):
            if flow.name in names:
                raise ValueError(
                    f"flows[{index}].name: duplicate flow name {flow.name!r}"
                    " (the wire protocol addresses flows by name)"
                )
            names.add(flow.name)
            Node(flow.name, f"flows[{index}].name").build(wire.quote, flow.name)
            for level, qos in flow.qos.items():
                period = qos.min_interval_seconds
                # MFEA records write a fractional period as a nonzero float.
                if period.denominator != 1 and (period > _FLOAT_MAX or float(period) == 0):
                    problem = "beyond the float range" if period > _FLOAT_MAX else "rounds to 0.0 as a float"
                    raise ValueError(
                        f"flows[{index}].qos.{level}.t: flow {flow.id!r}: level {level} period is fractional"
                        f" and {problem}"
                    )
                # The payload needs no escaping, so the frame grows by exactly c.
                size = len(wire.escape_body(wire.encode_app(wire.AppMessage(flow.name, level, b"")))) + qos.message_size_bytes
                if size > wire.MAX_BODY:
                    raise ValueError(
                        f"flows[{index}].qos.{level}.c: flow {flow.id!r}: a level {level} message needs a"
                        f" {size}-byte frame body, over the {wire.MAX_BODY}-byte limit"
                    )
            # A flow emits at most once per its shortest declared period.
            emissions += self.duration_seconds // min(qos.min_interval_seconds for qos in flow.qos.values())
            if self.networks:
                records = (wire.mfea_entry(flow, widest, level) for level in flow.qos)
                entries.append(max(records, key=lambda entry: len(wire.encode_mfea([entry]))))
        if emissions > _MAX_EMISSIONS:
            raise ValueError(f"duration_seconds: the run would emit more than {_MAX_EMISSIONS} messages")
        # The node announces every allocated flow in one frame; ``entries`` is its worst case.
        size = len(wire.escape_body(wire.encode_mfea(entries).encode("utf-8")))
        if entries and size > wire.MAX_BODY:
            raise ValueError(
                f"flows: announcing all {len(entries)} flows can need a {size}-byte frame body,"
                f" over the {wire.MAX_BODY}-byte limit"
            )
        for index, event in enumerate(self.events):
            if event.network_id not in ids:
                raise ValueError(f"events[{index}].network: unknown network {event.network_id!r}")
            if not 0 <= event.time <= self.duration_seconds:
                raise ValueError(f"events[{index}].t: time {number_text(event.time)} outside [0, duration]")
        for index, network_id in enumerate(self.initially_available or ()):
            if network_id not in ids:
                raise ValueError(f"initially_available[{index}]: unknown network {network_id!r}")


@dataclass(slots=True)
class FlowLevelCounts:
    sent: int = 0
    delivered: int = 0
    err_not_allocated: int = 0
    err_not_delivered: int = 0


@dataclass(slots=True)
class NetworkCounts:
    messages: int = 0
    bytes: int = 0
    budget_violations_avoided: int = 0


def _sum_counts(rows: Iterable[FlowLevelCounts]) -> FlowLevelCounts:
    return FlowLevelCounts(*(sum(column) for column in zip(*map(astuple, rows))))


def _delivered_fraction(counts: FlowLevelCounts) -> Fraction | None:
    return None if counts.sent == 0 else Fraction(counts.delivered, counts.sent)


@dataclass(frozen=True, slots=True)
class Handshake:
    start: Fraction
    accepted: Fraction

    @property
    def duration(self) -> Fraction:
        return self.accepted - self.start


@dataclass
class SimReport:
    """Everything the simulation measured; JSON rendering is deterministic."""

    algorithm: str
    seed: int
    rng_name: str
    factor: int
    l_max: int
    declared_levels: tuple[int, ...]
    duration_seconds: Fraction
    per_flow_level: dict[str, dict[int, FlowLevelCounts]]
    per_network: dict[str, NetworkCounts]
    handshakes: list[Handshake]
    final_allocation: dict[str, Allocation | None]

    def flow_totals(self, flow_id: str) -> FlowLevelCounts:
        return _sum_counts(self.per_flow_level[flow_id].values())

    def delivered_fraction(self, flow_id: str) -> Fraction | None:
        return _delivered_fraction(self.flow_totals(flow_id))

    def delivered_fraction_by_level(self, level: int) -> Fraction | None:
        rows = (levels[level] for levels in self.per_flow_level.values() if level in levels)
        return _delivered_fraction(_sum_counts(rows))

    def to_json_dict(self) -> dict:
        """The report for ``json_document``; ``final_allocation`` maps a flow id to its ``Allocation`` or None."""
        per_flow = {}
        for flow_id, levels in self.per_flow_level.items():
            totals = _sum_counts(levels.values())
            fraction = _delivered_fraction(totals)
            per_flow[flow_id] = {
                "levels": {str(level): asdict(counts) for level, counts in levels.items()},
                **asdict(totals),
                "delivered_fraction": None if fraction is None else float(fraction),
            }
        by_level = {}
        for level in self.declared_levels:
            fraction = self.delivered_fraction_by_level(level)
            by_level[str(level)] = None if fraction is None else float(fraction)
        return {
            "schema_version": SIM_SCHEMA_VERSION,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "rng": self.rng_name,
            "factor": self.factor,
            "l_max": self.l_max,
            "duration_seconds": float(self.duration_seconds),
            "per_flow": per_flow,
            "per_network": {network_id: asdict(counts) for network_id, counts in self.per_network.items()},
            "handshakes": [
                {
                    "start": float(shake.start),
                    "accepted": float(shake.accepted),
                    "duration": float(shake.duration),
                }
                for shake in self.handshakes
            ],
            "delivered_fraction_by_level": by_level,
            "final_allocation": self.final_allocation,
        }

    def json_bytes(self) -> bytes:
        return json_document(self.to_json_dict()).encode("utf-8")


@dataclass(frozen=True, eq=False, slots=True)
class _MsgRecord:
    """One message in flight, hashed by identity: each record is its own key in ``pending``."""

    flow_idx: int
    level: int
    size: int


@dataclass(slots=True)
class _NetworkRuntime:
    profile: NetworkProfile
    up: bool
    gap: int  # the profile's send gap in ticks, 0 when it has none
    latency: Callable[[SplitMix64], int]  # a latency sample in ticks
    counts: NetworkCounts = field(default_factory=NetworkCounts)
    last_send: int | None = None
    day_index: int | None = None
    sent_today: int = 0
    pending: dict[_MsgRecord, None] = field(default_factory=dict)  # in send order


_TO_NODE = "host->node"
_TO_HOST = "node->host"


def _tick_scale(scenario: Scenario) -> int:
    """Ticks per second: the lcm of every denominator a simulated time is built from."""
    times = [scenario.duration_seconds, *(event.time for event in scenario.events)]
    times += (qos.min_interval_seconds for flow in scenario.flows for qos in flow.qos.values())
    times += (p.min_inter_message_gap_seconds or 0 for p in scenario.networks)
    delays = [scenario.handshake, *(p.latency for p in scenario.networks)]
    return math.lcm(*(Fraction(time).denominator for time in times), *(delay.tick_denominator for delay in delays))


def _control_body(message: wire.ControlMessage) -> bytes:
    return wire.encode_control(message).encode("utf-8")


def _app_body(flow: FlowSpec, level: int) -> bytes:
    """The body of every message ``flow`` emits at ``level``."""
    return wire.encode_app(wire.AppMessage(flow.name, level, b"x" * flow.qos[level].message_size_bytes))


def _ack_body(flow: FlowSpec) -> bytes:
    return _control_body(wire.Ack(flow.name))


def _err_body(flow: FlowSpec, reason: wire.ErrorReason) -> bytes:
    return _control_body(wire.Err(flow.name, reason))


class _Simulation:
    """Single-run state; see module docstring for the rules implemented."""

    def __init__(self, scenario: Scenario, transcript: Callable[[dict], object] | None) -> None:
        self.scenario = scenario
        self.transcript = transcript
        self.rng = SplitMix64(scenario.seed)
        self.cfg = AllocatorConfig(l_max=scenario.l_max, factor=scenario.factor)
        # Per-flow state is kept by the flow's position in ``flows``.
        self.flows = scenario.flows
        self.index_by_name = {flow.name: i for i, flow in enumerate(scenario.flows)}

        # Times are ints in ticks of 1/scale seconds; see the module docstring.
        self.scale = scale = _tick_scale(scenario)
        self.end = ticks(scenario.duration_seconds, scale)
        self.day = _SECONDS_PER_DAY * scale
        self.periods = [{level: ticks(q.min_interval_seconds, scale) for level, q in f.qos.items()} for f in self.flows]
        self.handshake = scenario.handshake.sampler(scale)

        up = scenario.initially_available
        self.networks: dict[str, _NetworkRuntime] = {}
        for p in scenario.networks:
            gap = ticks(p.min_inter_message_gap_seconds or 0, scale)
            self.networks[p.id] = _NetworkRuntime(p, up is None or p.id in up, gap, p.latency.sampler(scale))

        # host state
        self.paused = False
        self.levels: list[int] = []  # the level each application emits at
        self.emit_epoch = 0
        self.wire_acks: Counter[str] = Counter()
        self.wire_errs: Counter[tuple[str, wire.ErrorReason]] = Counter()

        # node state
        self.active: dict[int, Allocation] = {}  # flow position -> its table entry
        self.window_start: int | None = None  # set while a re-allocation window is open
        self.realloc_epoch = 0

        # accounting
        self.stats: list[dict[int, FlowLevelCounts]] = [{} for _ in scenario.flows]
        self.handshakes: list[Handshake] = []

        self.now = 0
        self._heap: list[tuple] = []
        self._seq = 0

        self._links = {
            _TO_NODE: (wire.FrameDecoder(), self._node_on_frame),
            _TO_HOST: (wire.FrameDecoder(), self._host_on_frame),
        }
        # (body, frame) of each per-message frame sent so far, keyed by
        # (flow position, level) for an APP frame, flow position for an ACK
        # and (flow position, reason) for an ERR.
        self._frames: dict[object, tuple[bytes, bytes]] = {}

    # -- plumbing -------------------------------------------------------------

    def _push(self, time: int, priority: int, flow_idx: int, action, *payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, priority, flow_idx, self._seq, action, payload))

    def _counts(self, flow_idx: int, level: int) -> FlowLevelCounts:
        levels = self.stats[flow_idx]
        counts = levels.get(level)
        if counts is None:
            counts = levels[level] = FlowLevelCounts()
        return counts

    def _send(self, direction: str, body: bytes, frame: bytes) -> None:
        """Feed ``frame``, the encoded ``body``, to the receiver's decoder and dispatch it."""
        if self.transcript is not None:
            text = body.decode("utf-8", "backslashreplace")
            self.transcript({"t": self.now / self.scale, "dir": direction, "body": text})
        decoder, on_frame = self._links[direction]
        for event in decoder.feed(frame):
            if isinstance(event, wire.MalformedFrame):
                raise AssertionError(f"{direction} frame is malformed: {event}")
            on_frame(event.body)

    def _send_memo(self, direction: str, key: object, build: Callable[..., bytes], *args) -> None:
        """Send the frame kept under ``key``; on its first send, frame the body ``build(*args)``."""
        entry = self._frames.get(key)
        if entry is None:
            body = build(*args)
            entry = self._frames[key] = (body, wire.encode_frame(body))
        self._send(direction, *entry)

    def _send_control(self, direction: str, message: wire.ControlMessage) -> None:
        body = _control_body(message)
        self._send(direction, body, wire.encode_frame(body))

    # -- node ------------------------------------------------------------------

    def _announce_allocation(self) -> None:
        """Allocate over the networks that are up, make the table active and announce it.

        Frames arrive with no delay, so a paused host accepts inside this
        ``_send``: no frame reaches the node between the switch and the accept.
        """
        table = run_algorithm(
            self.scenario.algorithm,
            list(self.flows),
            [p for p in self.scenario.networks if self.networks[p.id].up],
            self.cfg,
        )
        allocation, entries = {}, []
        for i, flow in enumerate(self.flows):
            placed = table.entries.get(flow.id)
            if placed is not None:
                allocation[i] = placed
                entries.append(wire.mfea_entry(flow, self.networks[placed.network_id].profile.name, placed.level))
        self.active = allocation
        body = wire.encode_mfea(entries).encode("utf-8")
        self._send(_TO_HOST, body, wire.encode_frame(body))

    def _node_on_frame(self, body: bytes) -> None:
        if body.startswith(b"<"):
            message = wire.parse_control(body.decode("utf-8"))
            if isinstance(message, wire.ReallocAccepted):
                if self.window_start is None:
                    raise AssertionError("node got a re-allocation accept outside an open window")
                start, accepted = Fraction(self.window_start, self.scale), Fraction(self.now, self.scale)
                self.handshakes.append(Handshake(start, accepted))
                self.window_start = None
            else:
                raise AssertionError(f"node cannot handle control message {message!r}")
            return
        self._node_on_app(wire.decode_app(body))

    def _refuse(self, flow_idx: int, level: int, reason: wire.ErrorReason) -> None:
        """Count a message the node does not deliver and report it to the host."""
        counts = self._counts(flow_idx, level)
        if reason is wire.ErrorReason.NOT_ALLOCATED:
            counts.err_not_allocated += 1
        else:
            counts.err_not_delivered += 1
        self._send_memo(_TO_HOST, (flow_idx, reason), _err_body, self.flows[flow_idx], reason)

    def _admits(self, runtime: _NetworkRuntime, size: int) -> bool:
        """Apply the send-time rules in the module docstring's order; count a budget refusal."""
        profile = runtime.profile
        if profile.max_payload_bytes is not None and size > profile.max_payload_bytes:
            return False
        day = self.now // self.day
        if runtime.day_index != day:
            runtime.day_index = day
            runtime.sent_today = 0
        if profile.max_messages_per_day is not None and runtime.sent_today >= profile.max_messages_per_day:
            runtime.counts.budget_violations_avoided += 1
            return False
        return runtime.last_send is None or self.now - runtime.last_send >= runtime.gap

    def _node_on_app(self, message: wire.AppMessage) -> None:
        flow_idx = self.index_by_name[message.flow_name]
        placed = self.active.get(flow_idx)
        if placed is None or not self.networks[placed.network_id].up:
            self._refuse(flow_idx, message.level, wire.ErrorReason.NOT_ALLOCATED)
            return
        runtime = self.networks[placed.network_id]
        size = len(message.payload)
        if not self._admits(runtime, size):
            self._refuse(flow_idx, message.level, wire.ErrorReason.NOT_DELIVERED)
            return
        runtime.last_send = self.now
        runtime.sent_today += 1
        record = _MsgRecord(flow_idx, message.level, size)
        runtime.pending[record] = None
        self._push(self.now + runtime.latency(self.rng), _P_DELIVER, flow_idx, self._do_deliver, runtime, record)

    def _do_deliver(self, runtime: _NetworkRuntime, record: _MsgRecord) -> None:
        # A record is gone when its network went down while the message was in flight.
        if record not in runtime.pending:
            return
        del runtime.pending[record]
        self._counts(record.flow_idx, record.level).delivered += 1
        runtime.counts.messages += 1
        runtime.counts.bytes += record.size
        self._send_memo(_TO_HOST, record.flow_idx, _ack_body, self.flows[record.flow_idx])

    # -- host -------------------------------------------------------------------

    def _host_on_frame(self, body: bytes) -> None:
        text = body.decode("utf-8")
        if text.startswith("MFEA:"):
            self._host_apply_mfea(wire.decode_mfea(text))
            return
        message = wire.parse_control(text)
        # The frequent kinds first: every refusal is an ERR, every delivery an ACK.
        if isinstance(message, wire.Err):
            self.wire_errs[message.flow_name, message.reason] += 1
            return
        if isinstance(message, wire.Ack):
            self.wire_acks[message.flow_name] += 1
            return
        if isinstance(message, wire.ReallocInit):
            self.paused = True
            return
        raise AssertionError(f"host cannot handle control message {message!r}")

    def _host_apply_mfea(self, entries: list[wire.MfeaEntry]) -> None:
        # A flow left out has no service: the application still runs at its
        # most generous declared level, and the node will refuse its messages.
        self.levels = [min(flow.qos) for flow in self.flows]
        for entry in entries:
            flow_idx = self.index_by_name[entry.flow_name]
            flow = self.flows[flow_idx]
            if entry != wire.mfea_entry(flow, entry.network, entry.level):
                raise AssertionError(f"MFEA entry disagrees for flow {flow.id}")
            self.levels[flow_idx] = entry.level
        was_paused = self.paused
        self.paused = False
        # A new epoch makes every emission scheduled under the old table stale.
        self.emit_epoch += 1
        for flow_idx in range(len(self.flows)):
            self._schedule_emit(flow_idx)
        if was_paused:
            self._send_control(_TO_NODE, wire.ReallocAccepted())

    def _schedule_emit(self, flow_idx: int) -> None:
        """Schedule the flow's next emission one period on, unless that passes the end of the run."""
        next_time = self.now + self.periods[flow_idx][self.levels[flow_idx]]
        if next_time <= self.end:
            self._push(next_time, _P_EMIT, flow_idx, self._do_emit, flow_idx, self.emit_epoch)

    def _do_emit(self, flow_idx: int, epoch: int) -> None:
        if epoch != self.emit_epoch or self.paused:
            return
        level = self.levels[flow_idx]
        self._counts(flow_idx, level).sent += 1
        self._send_memo(_TO_NODE, (flow_idx, level), _app_body, self.flows[flow_idx], level)
        self._schedule_emit(flow_idx)

    # -- availability and re-allocation ------------------------------------------

    def _do_network_change(self, network_id: str, up: bool) -> None:
        runtime = self.networks[network_id]
        runtime.up = up
        if not up:
            for record in runtime.pending:
                # the node reports the loss exactly as a failed send would be
                self._refuse(record.flow_idx, record.level, wire.ErrorReason.NOT_DELIVERED)
            runtime.pending.clear()
        self._push(self.now, _P_REALLOC_START, 0, self._do_realloc_start)

    def _do_realloc_start(self) -> None:
        self.realloc_epoch += 1
        if self.window_start is None:
            self.window_start = self.now
            self._send_control(_TO_HOST, wire.ReallocInit())
        completes = self.now + self.handshake(self.rng)
        self._push(completes, _P_REALLOC_COMPLETE, 0, self._do_realloc_complete, self.realloc_epoch)

    def _do_realloc_complete(self, epoch: int) -> None:
        if epoch == self.realloc_epoch:
            self._announce_allocation()

    # -- driver --------------------------------------------------------------------

    def run(self) -> SimReport:
        # The first table is active at once: no window is open, so the host
        # applies it without sending an accept.
        self._announce_allocation()

        for event in self.scenario.events:
            self._push(
                ticks(event.time, self.scale), _P_NETWORK_CHANGE, 0, self._do_network_change, event.network_id, event.up
            )

        while self._heap:
            time, _priority, _flow_idx, _seq, action, payload = heapq.heappop(self._heap)
            self.now = time
            action(*payload)

        return self._build_report()

    def _build_report(self) -> SimReport:
        report = SimReport(
            algorithm=self.scenario.algorithm,
            seed=self.scenario.seed,
            rng_name=RNG_NAME,
            factor=self.scenario.factor,
            l_max=self.scenario.l_max,
            declared_levels=tuple(sorted({level for flow in self.flows for level in flow.qos})),
            duration_seconds=self.scenario.duration_seconds,
            per_flow_level={flow.id: dict(sorted(stats.items())) for flow, stats in zip(self.flows, self.stats)},
            per_network={network_id: runtime.counts for network_id, runtime in self.networks.items()},
            handshakes=list(self.handshakes),
            final_allocation={flow.id: self.active.get(i) for i, flow in enumerate(self.flows)},
        )
        self._check_consistency(report)
        return report

    def _check_consistency(self, report: SimReport) -> None:
        # Conservation per (flow, level): the host counts a message as sent at
        # the level it emitted, the node counts its outcome at the level it
        # decoded. Then agreement between the wire view and the counters.
        for flow in self.flows:
            for level, counts in report.per_flow_level[flow.id].items():
                if counts.sent != counts.delivered + counts.err_not_allocated + counts.err_not_delivered:
                    raise AssertionError(f"conservation violated for flow {flow.id} at level {level}")
            total = report.flow_totals(flow.id)
            if self.wire_acks.get(flow.name, 0) != total.delivered:
                raise AssertionError(f"wire ACKs disagree with deliveries for flow {flow.id}")
            for reason, counted in (
                (wire.ErrorReason.NOT_ALLOCATED, total.err_not_allocated),
                (wire.ErrorReason.NOT_DELIVERED, total.err_not_delivered),
            ):
                if self.wire_errs.get((flow.name, reason), 0) != counted:
                    raise AssertionError(f"wire {reason.value.lower()} ERRs disagree for flow {flow.id}")


def run(scenario: Scenario, transcript: Callable[[dict], object] | None = None) -> SimReport:
    """Simulate ``scenario``; optionally pass each wire frame to ``transcript``.

    ``transcript``, when given, is called with one ``{"t", "dir", "body"}`` dict
    per frame, in stream order, as the frame is sent; nothing is buffered. A
    caller that wants a list passes ``entries.append``. If the run stops with an
    error, the frames sent before it have already been passed.
    """
    scenario.validate()
    return _Simulation(scenario, transcript).run()


# --- scenario JSON -----------------------------------------------------------


def _event(node: Node) -> NetworkEvent:
    kind = node["kind"]
    if kind.value not in ("up", "down"):
        raise kind.fail(f"must be 'up' or 'down', got {kind.value!r}")
    return NetworkEvent(node["t"].fraction(), node["network"].text(), kind.value == "up")


def scenario_from_dict(obj: object) -> Scenario:
    """Parse a scenario document; ``Scenario.validate`` (which ``run`` calls) applies the rules."""
    doc = Node(obj, "scenario", root=True)
    return Scenario(
        flows=tuple(map(flow_from_dict, doc["flows"])),
        networks=tuple(map(network_from_dict, doc["networks"])),
        l_max=doc["l_max"].int(),
        factor=doc.get("factor", Node.int, 8),
        algorithm=doc.get("algorithm", Node.text, "cabf-inv"),
        duration_seconds=doc["duration_seconds"].fraction(),
        seed=doc["seed"].int(),
        events=doc.get("events", lambda events: tuple(map(_event, events)), ()),
        handshake=doc.get("handshake", lambda handshake: delay_from_dict(handshake, "seconds"), DEFAULT_HANDSHAKE),
        initially_available=doc.get("initially_available", lambda ids: tuple(map(Node.text, ids)), None),
    )


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(read_json(path))
