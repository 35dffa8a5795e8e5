from __future__ import annotations

import signal
from pathlib import Path

import pytest

from resilient_alloc import builtin_profile, load_flow_set

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMOS = REPO_ROOT / "demos"

# A scenario whose wire traffic holds every per-message frame kind: APP frames
# at levels 1 and 2 (the alarm steps down while "fast" is down), ACKs,
# NOT-ALLOCATED ERRs (bulk has no home without "fast") and NOT-DELIVERED ERRs
# (meter's period is shorter than the send gap on "slow"). The alarm's name
# holds a backslash, so its frames are escaped on the wire.
MIXED_TRAFFIC = {
    "l_max": 2,
    "factor": 8,
    "algorithm": "cabf-inv",
    "duration_seconds": 240,
    "seed": 11,
    "networks": [
        {"id": "fast", "capacity_bps": 100000, "latency": {"fixed_ms": 5}},
        {
            "id": "slow",
            "capacity_bps": 100,
            "max_payload_bytes": 12,
            "min_inter_message_gap_seconds": 15,
            "latency": {"uniform_ms": [1000, 4000]},
        },
    ],
    "events": [
        {"kind": "down", "network": "fast", "t": 80},
        {"kind": "up", "network": "fast", "t": 160},
    ],
    "flows": [
        {"id": "a", "app": "App", "name": "door\\alarm", "qos": {"1": {"c": 400, "t": 20}, "2": {"c": 10, "t": 30}}},
        {"id": "m", "app": "App", "name": "meter", "qos": {"1": {"c": 12, "t": 10}}},
        {"id": "b", "app": "App", "name": "bulk", "qos": {"1": {"c": 200, "t": 2}}},
    ],
}


@pytest.fixture()
def time_box():
    """Fail the test after 60 s of wall time instead of letting it hang (where SIGALRM exists)."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("test ran past its 60 s time box")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 60)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def assisted_living():
    """The eight-flow assisted-living catalogue shipped with the repo."""
    return load_flow_set(DEMOS / "assisted_living.json")


@pytest.fixture()
def table2_networks():
    """Wi-Fi 64000 / LoRa SF9 1760 / Sigfox 48 bps, in that order."""
    return [
        builtin_profile("wifi_table2"),
        builtin_profile("lora_sf9_table2"),
        builtin_profile("sigfox_table2"),
    ]


@pytest.fixture()
def fipy_networks():
    """Measured device profiles keyed by technology, declaration order fixed."""
    return {
        "wifi": builtin_profile("wifi_fipy"),
        "nbiot": builtin_profile("nbiot_fipy"),
        "lora": builtin_profile("lora_sf7_fipy"),
        "sigfox": builtin_profile("sigfox_fipy"),
    }


@pytest.fixture(scope="session")
def wifi_loss_path() -> Path:
    return DEMOS / "wifi_loss.json"
