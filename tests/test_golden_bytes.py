"""Golden digests for the CLI reports, the demo scripts and a wire transcript.

Each case runs in a fresh interpreter and compares the sha256 of its stdout
with a recorded value, so any change to a rendered byte (column widths,
number formatting, key order, latency units) fails here. The transcript case
pins every frame the simulator exchanges, in order, byte for byte. Re-record
a digest only for an intended change of output.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from conftest import DEMOS, MIXED_TRAFFIC, REPO_ROOT

FLOWS = str(DEMOS / "assisted_living.json")
TABLE2 = "wifi_table2,lora_sf9_table2,sigfox_table2"
FIPY = "wifi_fipy,nbiot_fipy,lora_sf7_fipy,sigfox_fipy"
CLI = ["-m", "resilient_alloc.cli"]

GOLDEN = {
    "compare-table-table2": (
        CLI + ["compare", "--flows", FLOWS, "--networks", TABLE2, "--format", "table"],
        "a5653e61aed8be5fb5484840dafd4c4cb01fee420972edb8f8b98c2bf95eb1b5",
    ),
    "compare-table-fipy": (
        CLI + ["compare", "--flows", FLOWS, "--networks", FIPY, "--format", "table"],
        "c75d72b178abff3ee1e24954cc7508a7e1712ae5cd538f300c7bc7dd497d102e",
    ),
    "compare-csv-table2": (
        CLI + ["compare", "--flows", FLOWS, "--networks", TABLE2, "--format", "csv"],
        "64cadededda2f0f40ecb02ac1769e07e6411fb90d511314f6eb5309197e035f4",
    ),
    "compare-csv-fipy": (
        CLI + ["compare", "--flows", FLOWS, "--networks", FIPY, "--format", "csv"],
        "8e3a984e3098c80f69704f29a47c4a3fe07fa535c399219d861f80f7e9482e89",
    ),
    "compare-json-table2": (
        CLI + ["compare", "--flows", FLOWS, "--networks", TABLE2, "--format", "json"],
        "5f9d6737d3aa4921d1e67d19a02c90ef1bf9649a456976cfeaa9b7c6bb3f028a",
    ),
    "compare-json-fipy": (
        CLI + ["compare", "--flows", FLOWS, "--networks", FIPY, "--format", "json"],
        "acd92789fe91570846af8d59e5f18aa37f963af7acb5e169dfd439f67cbe90a9",
    ),
    "allocate-json-fipy": (
        CLI + ["allocate", "--algo", "cabf-inv", "--flows", FLOWS, "--networks", FIPY, "--format", "json"],
        "3e6298654816cd42be5d8e85054e62a991843db02d50ccadf59be7bf7c469d3c",
    ),
    "simulate-json": (
        CLI + ["simulate", "--scenario", str(DEMOS / "wifi_loss.json"), "--format", "json"],
        "582e4f896b9c85820a43d7952533a691e1c6e3a717c268919935d1ae2765ea37",
    ),
    "simulate-table": (
        CLI + ["simulate", "--scenario", str(DEMOS / "wifi_loss.json"), "--format", "table"],
        "30919e6f7418e32e131c84c657262c3f1ea1acc944f9e1912ae72a8d85b45561",
    ),
    "profiles": (
        CLI + ["profiles"],
        "3b122b5c9a59d1fd2230161dec1722a57e25930293e7d503cf7712a91360d8c3",
    ),
    "demo-compare_allocation_algorithms": (
        [str(DEMOS / "compare_allocation_algorithms.py")],
        "fb30e1aed3658de5c4c316d606542ae1683255a92f8cd5cb78d2f4aed04f80c1",
    ),
    "demo-delivery_constraints": (
        [str(DEMOS / "delivery_constraints.py")],
        "79a568ef5c81ffaa8fb199a4cf5bde4ee359f6a3b96374a2b129b7ef960370aa",
    ),
    "demo-network_availability_sweep": (
        [str(DEMOS / "network_availability_sweep.py")],
        "1a21026c900982462afa7fa61bff21e634f347ef92213157660c36281a359187",
    ),
    "demo-simulate_wifi_outage": (
        [str(DEMOS / "simulate_wifi_outage.py")],
        "d8cd8727e4c546d384ebf5ed57c6251f37c52e9f32df4cb83726b371ff00b747",
    ),
    "demo-wire_protocol_tour": (
        [str(DEMOS / "wire_protocol_tour.py")],
        "1ee24b9189dd870f47237906b98c94edbc99b3ece582dfee553a21d24baf04de",
    ),
}


TRANSCRIPT_DIGEST = "9d5cc4c478f4dd85a64ad78843dae62a69e2a5417593c4f00a5e06087f4b8e83"
# conftest.MIXED_TRAFFIC: APP frames at two levels, ACKs and both ERR reasons.
MIXED_TRANSCRIPT_DIGEST = "7cd147ac2de1f15b39022977fbb1fb47a4db933db8808f68af76765e04d8547c"
MIXED_REPORT_DIGEST = "137438c4f72ae66aaa56aaba1c2515d4d0490e69e898b2513c76133ed21a2a35"


def _run(argv: list[str]) -> bytes:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.pop("RESILIENT_ALLOC_SEED", None)
    done = subprocess.run(
        [sys.executable, *argv], cwd=REPO_ROOT, env=env, capture_output=True, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_digest(case):
    argv, expected = GOLDEN[case]
    assert hashlib.sha256(_run(argv)).hexdigest() == expected


def test_simulate_transcript_digest(tmp_path):
    path = tmp_path / "transcript.jsonl"
    _run(CLI + ["simulate", "--scenario", str(DEMOS / "wifi_loss.json"), "--transcript", str(path)])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRANSCRIPT_DIGEST


def test_mixed_traffic_transcript_and_report_digests(tmp_path):
    scenario = tmp_path / "mixed.json"
    scenario.write_text(json.dumps(MIXED_TRAFFIC), encoding="utf-8")
    transcript = tmp_path / "transcript.jsonl"
    report = _run(CLI + ["simulate", "--scenario", str(scenario), "--transcript", str(transcript), "--format", "json"])
    frames = transcript.read_bytes()
    for kind in (b"door\\\\alarm,1,", b"door\\\\alarm,2,", b"<ACK:", b":NOT-ALLOCATED>", b":NOT-DELIVERED>"):
        assert kind in frames
    assert hashlib.sha256(frames).hexdigest() == MIXED_TRANSCRIPT_DIGEST
    assert hashlib.sha256(report).hexdigest() == MIXED_REPORT_DIGEST
