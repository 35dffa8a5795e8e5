from __future__ import annotations

import signal
from pathlib import Path

import pytest

from resilient_alloc import builtin_profile, load_flow_set

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMOS = REPO_ROOT / "demos"


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
