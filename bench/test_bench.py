"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return wl.import_library()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(lib, workload):
    first = wl.make_inputs(lib, workload, 7)
    assert wl.make_inputs(lib, workload, 7) == first
    assert wl.make_inputs(lib, workload, 8) != first


def test_recorded_digests_match(lib):
    with open(run.DIGESTS, encoding="utf-8") as handle:
        recorded = json.load(handle)
    for workload in run.WORKLOADS:
        seed = min(int(seed) for seed in recorded[workload])
        expected = recorded[workload][str(seed)]
        # The long runs take seconds each; the benchmark checks them every run.
        keys = [key for key in expected if key != "long"]
        assert run.reference_digests(lib, workload, seed, keys) == {key: expected[key] for key in keys}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 30, 0),
        ("b", 20, 40, 0),  # overlaps a: together they cover 10..40
        ("a", 90, 120, 0),  # runs past its parent: only 90..100 counts
        ("leaf", 12, 15, 1),
        ("leaf", 50, 60, -1),  # a second root
    ]
    times = tracing.self_times(spans)
    assert times["root"] == (1, 100, 100 - 30 - 10)
    assert times["a"] == (2, 20 + 30, (20 - 3) + 30)
    assert times["b"] == (1, 20, 20)
    assert times["leaf"] == (2, 13, 13)


def test_tracer_restores_what_it_wraps():
    class Owner:
        @staticmethod
        def work(x):
            return x + 1

    original = Owner.work
    tracer = tracing.Tracer()
    tracer.wrap(Owner, "work", "outer", lambda args, result: tracer.counts.update(calls=1))
    assert Owner.work(1) == 2
    tracer.restore()
    assert Owner.work is original
    ((name, start, end, parent),) = tracer.spans()
    assert (name, parent, tracer.counts["calls"]) == ("outer", -1, 1)
    assert end >= start


@pytest.fixture()
def tiny(monkeypatch, tmp_path):
    """Shrink every workload so that a full run takes about a second."""
    monkeypatch.setattr(wl, "SLOT_SECONDS", 120)
    monkeypatch.setattr(wl, "OUTAGE_SECONDS", 30)
    monkeypatch.setattr(wl, "BULK_LONG_SLOTS", 2)
    monkeypatch.setattr(wl, "SMALL_LONG_SLOTS", 2)
    monkeypatch.setattr(wl, "RANDOM_SIZES", (8, 32))
    monkeypatch.setattr(wl, "RANDOM_PER_SIZE", 1)
    monkeypatch.setattr(wl, "REALLOC_FLOWS", 16)
    monkeypatch.setattr(wl, "REALLOC_MIN_SAMPLES", 100)
    monkeypatch.setattr(wl, "TIGHT_SET", ((8, 8),))
    monkeypatch.setattr(wl, "TIGHT_SET_SMALL", ((8, 8),))
    monkeypatch.setattr(run, "MIN_REPS", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    digests = tmp_path / "digests.json"
    digests.write_text("{}")
    monkeypatch.setattr(run, "DIGESTS", digests)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        if workload == "alloc_compare":
            assert all(values[f"wire.{fn}.calls"] == 0 for fn in run._WIRE_FUNCS)
        else:
            assert values["simulator.msgs_sent"] > 0 and values["wire.malformed"] == 0
    else:
        assert all(value > 0 for value in values.values())
    assert lines[0].startswith("provenance ")
    assert json.loads(lines[0].split(" ", 1)[1])["seed"] == 3


def test_refuses_to_run_without_the_library(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(wl, "SRC", tmp_path / "src")
    argv = ["--workload", "sim_bulk", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""
