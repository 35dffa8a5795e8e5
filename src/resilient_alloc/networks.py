"""Network interface profiles: capacity bins plus delivery constraints.

A profile describes one communication interface as seen by the allocator
(bandwidth capacity in bits per second) and by the simulator (payload cap,
daily message allowance, minimum spacing between sends, latency behaviour,
connect time). The built-in profiles cover the Wi-Fi / LoRa / Sigfox /
NB-IoT interfaces of a multi-radio edge board in two calibrations: the
64000 / 1760 / 48 bps set used in the allocation comparison and the
750000 / 55000 / 5470 / 100 bps set measured on the device itself.

Latency models are deliberately coarse. Wi-Fi and NB-IoT use their observed
fixed averages (8 ms and 576 ms); LoRa and Sigfox draw uniformly from their
observed min/max windows, because nothing finer than the endpoints is known.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

from .flows import MICRO
from .rational import Node, number_text, read_json
from .rng import DelayModel, FixedDelay, UniformDelay, delay_from_dict


@dataclass(frozen=True)
class NetworkProfile:
    """One network interface treated as a capacity bin.

    ``capacity_bps`` is the only field the allocators look at. The delivery
    constraint fields (payload cap, daily allowance, inter-message gap) are
    enforced by the simulator at send time, never by the allocators.
    """

    id: str
    name: str
    capacity_bps: int
    max_payload_bytes: int | None = None
    max_messages_per_day: int | None = None
    min_inter_message_gap_seconds: Fraction | None = None
    latency: DelayModel = FixedDelay(Fraction(0))
    connect_time_seconds: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.capacity_bps <= 0:
            raise ValueError(f"capacity must be > 0, got {number_text(self.capacity_bps)}")
        if self.max_payload_bytes is not None and self.max_payload_bytes < 1:
            raise ValueError(f"payload cap must be >= 1, got {number_text(self.max_payload_bytes)}")
        for name in ("max_messages_per_day", "min_inter_message_gap_seconds", "connect_time_seconds"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {number_text(value)}")

    @property
    def capacity_micro_bps(self) -> int:
        return self.capacity_bps * MICRO


#: Per spreading factor / bandwidth: uplink bitrate (bps), payload cap
#: (bytes), and the daily message allowance. The allowance is the number of
#: max-size messages whose time on air fits the 1% duty cycle plus the
#: community fair-use airtime cap.
LORA_UPLINK_TABLE: dict[tuple[int, int], tuple[int, int, int]] = {
    (12, 125): (250, 51, 12),
    (11, 125): (440, 51, 23),
    (10, 125): (980, 51, 51),
    (9, 125): (1760, 115, 53),
    (8, 125): (3125, 222, 54),
    (7, 125): (5470, 222, 97),
    (7, 250): (11000, 222, 195),
}


def lora_profile(sf: int, bandwidth_khz: int) -> NetworkProfile:
    """Profile for one LoRa uplink configuration.

    Only the seven (spreading factor, bandwidth) pairs with published
    figures are supported; anything else raises ValueError.
    """
    entry = LORA_UPLINK_TABLE.get((sf, bandwidth_khz))
    if entry is None:
        raise ValueError(
            f"unsupported LoRa configuration SF{sf}/{bandwidth_khz} kHz; "
            f"supported: {sorted(LORA_UPLINK_TABLE)}"
        )
    bitrate, payload, per_day = entry
    return NetworkProfile(
        id="lora",
        name="LoRa",
        capacity_bps=bitrate,
        max_payload_bytes=payload,
        max_messages_per_day=per_day,
        min_inter_message_gap_seconds=Fraction("0.000165"),
        latency=UniformDelay(Fraction("0.024"), Fraction("2.8")),
        connect_time_seconds=Fraction("5.6"),  # over-the-air activation, measured average
    )


# Every field of a built-in profile but its capacity, which the calibration sets.
_WIFI = dict(
    id="wifi",
    name="Wi-Fi",
    # TCP/UDP fragmentation means there is no hard payload cap on Wi-Fi.
    latency=FixedDelay(Fraction("0.008")),
    connect_time_seconds=Fraction("7.7"),  # scan plus association, measured average
)
_SIGFOX = dict(
    id="sigfox",
    name="Sigfox",
    max_payload_bytes=12,
    max_messages_per_day=140,
    min_inter_message_gap_seconds=Fraction("10.5"),  # mean spacing needed between uplinks
    latency=UniformDelay(Fraction(1), Fraction("4.5")),
    connect_time_seconds=Fraction("0.1"),  # socket creation, a few milliseconds
)
_NBIOT = dict(
    id="nbiot",
    name="NB-IoT",
    latency=FixedDelay(Fraction("0.576")),
    connect_time_seconds=Fraction("15.5"),  # init + attach + connect, no modem reset
)

_BUILTINS = {
    "wifi_table2": NetworkProfile(capacity_bps=64000, **_WIFI),
    "lora_sf9_table2": lora_profile(9, 125),
    "sigfox_table2": NetworkProfile(capacity_bps=48, **_SIGFOX),
    "wifi_fipy": NetworkProfile(capacity_bps=750_000, **_WIFI),
    "nbiot_fipy": NetworkProfile(capacity_bps=55_000, **_NBIOT),
    "lora_sf7_fipy": lora_profile(7, 125),
    "sigfox_fipy": NetworkProfile(capacity_bps=100, **_SIGFOX),
}

BUILTIN_KINDS = tuple(_BUILTINS)


def builtin_profile(kind: str) -> NetworkProfile:
    """Return a named built-in profile; unknown kinds raise ValueError."""
    try:
        return _BUILTINS[kind]
    except KeyError:
        raise ValueError(f"unknown built-in profile {kind!r}; known: {', '.join(BUILTIN_KINDS)}") from None


def network_from_dict(node: Node) -> NetworkProfile:
    """Build a profile from a JSON object; ``{"builtin": kind}`` names a built-in and nothing else."""
    kind = node.get("builtin", Node.text, None)
    if kind is not None:
        for field in fields(NetworkProfile):
            if node.value.get(field.name) is not None:
                raise node[field.name].fail("not allowed next to builtin")
        return node.build(builtin_profile, kind)
    network_id = node["id"].text()
    return node.build(
        NetworkProfile,
        id=network_id,
        name=node.get("name", Node.text, network_id),
        capacity_bps=node["capacity_bps"].int(),
        max_payload_bytes=node.get("max_payload_bytes", Node.int, None),
        max_messages_per_day=node.get("max_messages_per_day", Node.int, None),
        min_inter_message_gap_seconds=node.get("min_inter_message_gap_seconds", Node.fraction, None),
        latency=node.get("latency", lambda latency: delay_from_dict(latency, "ms"), FixedDelay(Fraction(0))),
        connect_time_seconds=node.get("connect_time_seconds", Node.fraction, Fraction(0)),
    )


def networks_from_json(doc: object) -> list[NetworkProfile]:
    """Read a network list, bare or as ``{"networks": [..]}``; ids must be unique."""
    entries = Node(doc, "networks", root=True)
    networks: dict[str, NetworkProfile] = {}
    for node in entries["networks"] if isinstance(doc, dict) else entries:
        profile = network_from_dict(node)
        if profile.id in networks:
            raise node.fail(f"duplicate network id {profile.id!r}")
        networks[profile.id] = profile
    return list(networks.values())


def load_networks(path: str | Path) -> list[NetworkProfile]:
    """Read a network list (or ``{"networks": [..]}``) from disk."""
    return networks_from_json(read_json(path))
