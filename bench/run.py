#!/usr/bin/env python3
"""Benchmark of resilient_alloc: simulator throughput and allocator latency.

Run from the repository root::

    python3 bench/run.py --workload sim_bulk --seed 1 --seconds 25 --trace 0

Workloads (see bench/README.md for why each exists):

* ``sim_bulk``        the Wi-Fi loss demo with 40 KB payloads (codec-bound);
* ``sim_many_small``  32 small flows on four flapping radios (event loop);
* ``alloc_compare``   heuristics, re-allocation decisions and the exact
                      solver, with no simulator and no codec.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps the layer boundaries, prints the per-layer metrics and
writes the spans under ``.bench_out/``. Either way the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (each metric a ``{"value", "unit"}`` pair); the lines before it
give provenance and sample counts. Outputs are checked outside the timed
regions; a mismatch counts as a failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import tracing
import workloads as wl

WORKLOADS = ("sim_bulk", "sim_many_small", "alloc_compare")
SIM_WORKLOADS = ("sim_bulk", "sim_many_small")
SETUP_REPEATS = 7
DIGESTS = wl.ROOT / "bench" / "digests.json"
TRACE_DIR = wl.ROOT / ".bench_out"

#: Share of ``--seconds`` each timed phase gets. The workload's own phase
#: takes most of the run; the others exist so that every workload reports
#: every end-to-end metric. Phases take turns over ``ROUNDS`` rounds, so a
#: burst of load from elsewhere on the machine hits all of them alike.
SHARES = {
    "sim_bulk": {"sim": 0.75, "compare": 0.05, "realloc": 0.1, "exact": 0.1},
    "sim_many_small": {"sim": 0.75, "compare": 0.05, "realloc": 0.1, "exact": 0.1},
    "alloc_compare": {"compare": 0.25, "realloc": 0.35, "exact": 0.25, "sim": 0.15},
}
ROUNDS = 4
MIN_REPS = 3
REALLOC_PER_UNIT = 100
MAX_SPANS = 500_000

END_TO_END = {
    "setup_s": "s",
    "sim_msgs_per_s": "msgs/s",
    "peak_rss_mb": "MB",
    "compare_tables_per_s": "tables/s",
    "realloc_decide_ms_p50": "ms",
    "realloc_decide_ms_p99": "ms",
    "exact_set_s": "s",
}

_WIRE_FUNCS = (
    "feed",
    "encode_frame",
    "decode_app",
    "parse_control",
    "encode_mfea",
    "decode_mfea",
    "encode_app",
    "encode_control",
)

_EXACT_SIZES = tuple(n for n, _ in wl.TIGHT_SET)

PER_LAYER = {
    **{f"wire.{fn}.s": "s" for fn in _WIRE_FUNCS},
    **{f"wire.{fn}.calls": "count" for fn in _WIRE_FUNCS},
    "wire.feed.bytes": "bytes",
    "wire.feed.ns_per_byte": "ns/B",
    "wire.malformed": "count",
    "simulator.run.s": "s",
    "simulator.self_s": "s",
    "simulator.us_per_msg": "us/msg",
    "simulator.msgs_sent": "count",
    "simulator.msgs_delivered": "count",
    "simulator.refused": "count",
    "simulator.unallocated": "count",
    "simulator.handshakes": "count",
    "simulator.delivered_ratio": "ratio",
    "catalog.run_algorithm.calls": "count",
    "catalog.run_algorithm.s": "s",
    "allocators.cabf.s": "s",
    "allocators.cabf_inv.s": "s",
    "allocators.heuristic.s": "s",
    "allocators.served_ratio": "ratio",
    "flows.utilization.calls": "count",
    "flows.utilization.s": "s",
    **{f"solver.exact_solve.s.n{n:02d}": "s" for n in _EXACT_SIZES},
    "solver.timeouts": "count",
    "solver.gap_vs_cabf": "count",
    "metrics.report.s": "s",
    "metrics.render.s": "s",
    "trace.overhead_frac": "ratio",
}


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(phases: dict, scale: bool) -> dict:
    """The timed end-to-end metrics from the phases' (seconds, slowdown) samples.

    With ``scale`` each timing is divided by the machine's slowdown measured
    next to it (see ``workloads.slowdown``); without, the raw figures.
    """

    def norm(sample) -> float:
        seconds, slow = sample
        return seconds / slow if scale else seconds

    realloc = [norm(sample) for sample in phases["realloc"]]
    return {
        "sim_msgs_per_s": phases["sent"] / statistics.median(map(norm, phases["sim"])),
        "compare_tables_per_s": statistics.median(
            count / norm(sample) for count, sample in phases["compare"]
        ),
        "realloc_decide_ms_p50": 1000 * percentile(realloc, 50),
        "realloc_decide_ms_p99": 1000 * percentile(realloc, 99),
        "exact_set_s": sum(statistics.median(map(norm, times)) for times in phases["exact"].values()),
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- provenance ------------------------------------------------------------------


def _commit() -> str | None:
    """HEAD of the checkout's git metadata, if it has any (read, not run)."""
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    sources = sorted((wl.SRC / "resilient_alloc").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --- shared checks -----------------------------------------------------------------


def _recorded(workload: str, seed: int) -> dict:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(seed), {})


def check_digest(tally: wl.Tally, details: dict, key: str, bodies: list[bytes], recorded: dict) -> None:
    """Every repetition must produce the same bytes, and match the recorded digest."""
    tally.attempted += 1
    digests = {sha256(body) for body in bodies}
    if len(digests) != 1:
        tally.fail(f"{key}: {len(digests)} different report digests across repetitions")
        return
    (digest,) = digests
    details[f"digest_{key}"] = digest
    expected = recorded.get(key)
    if expected is None:
        details[f"digest_{key}_status"] = "unrecorded"
    elif expected == digest:
        details[f"digest_{key}_status"] = "match"
    else:
        details[f"digest_{key}_status"] = "MISMATCH"
        tally.fail(f"{key}: digest {digest} != recorded {expected}")


def reference_digests(lib, workload: str, seed: int, keys=("rep", "long", "compare")) -> dict:
    """Digests of the checked outputs for ``seed``, in the form digests.json records."""
    inputs = wl.make_inputs(lib, workload, seed)
    tally = wl.Tally()
    scenarios = {"rep": inputs.scenario, "long": inputs.long_scenario}
    out = {}
    for key in keys:
        if key == "compare" and workload == "alloc_compare":
            out[key] = sha256(b"".join(doc.encode() for doc in wl.compare_round(lib, inputs.compare, tally)[2]))
        elif scenarios.get(key) is not None:
            _, _, body = wl.sim_rep(lib, scenarios[key], tally)
            out[key] = sha256(body)
    if tally.failed:
        raise RuntimeError(f"{workload} seed {seed}: {tally.problems}")
    return out


def report_totals(report) -> dict:
    totals = {"sent": 0, "delivered": 0, "err_not_allocated": 0, "err_not_delivered": 0}
    for flow_id in report.per_flow_level:
        flow = report.flow_totals(flow_id)
        for key in totals:
            totals[key] += getattr(flow, key)
    return totals


def check_conservation(tally: wl.Tally, report, what: str) -> None:
    tally.attempted += 1
    for flow_id in report.per_flow_level:
        t = report.flow_totals(flow_id)
        if t.sent != t.delivered + t.err_not_allocated + t.err_not_delivered:
            tally.fail(f"{what}: flow {flow_id} sent {t.sent} != delivered + errors")
            return


def check_alloc(lib, inputs: wl.Inputs, tally: wl.Tally, details: dict, recorded: dict) -> int:
    """Verify every table, the paper optimum and exact >= heuristics.

    Returns the solver gap: the exact objective minus the better of
    ``cabf`` and ``cabf-inv``, summed over the exact instances.
    """
    objective = lib.metrics.objective
    _, tables, rendered = wl.compare_round(lib, inputs.compare, tally)
    if recorded is not None:
        check_digest(tally, details, "compare", [b"".join(doc.encode() for doc in rendered)], recorded)
    for inst, name, table in tables:
        tally.attempted += 1
        try:
            lib.allocators.verify_allocation_table(table, list(inst.flows), list(inst.networks), inst.cfg)
        except ValueError as exc:
            tally.fail(f"verify {name} on {inst.name}: {exc}")

    gap = 0
    exact_instances = list(inputs.exact)
    if inputs.compare and inputs.compare[0].name == "paper":
        exact_instances.insert(0, inputs.compare[0])
    _, exact_tables = wl.exact_pass(lib, exact_instances, tally, [])
    for inst in exact_instances:
        table = exact_tables.get(inst.name)
        if table is None:
            continue  # already counted as failed by exact_pass
        flows, networks = list(inst.flows), list(inst.networks)
        tally.attempted += 1
        try:
            lib.allocators.verify_allocation_table(table, flows, networks, inst.cfg)
        except ValueError as exc:
            tally.fail(f"verify exact on {inst.name}: {exc}")
        best = objective(table, inst.cfg.l_max)
        scores = {
            name: objective(lib.catalog.run_algorithm(name, flows, networks, inst.cfg), inst.cfg.l_max)
            for name in lib.allocators.HEURISTIC_NAMES
        }
        tally.attempted += 1
        worse = [name for name, score in scores.items() if score > best]
        if worse:
            tally.fail(f"exact {best} below {worse} on {inst.name}")
        if inst.name == "paper":
            tally.attempted += 1
            got = (best, scores["cabf"], scores["cabf-inv"])
            if got != (wl.PAPER_OBJECTIVE,) * 3:
                tally.fail(f"paper objectives exact/cabf/cabf-inv {got}, expected {wl.PAPER_OBJECTIVE}")
        else:
            gap += best - max(scores["cabf"], scores["cabf-inv"])
    return gap


# --- untraced run: end-to-end metrics ------------------------------------------------


def run_untraced(lib, inputs: wl.Inputs, workload: str, seed: int, seconds: float,
                 tally: wl.Tally, details: dict) -> dict:
    recorded = _recorded(workload, seed)

    samples = {"sim": [], "compare": [], "realloc": [], "exact": {inst.name: [] for inst in inputs.exact}}
    sim_runs: list = []  # (report, json bytes) of every repetition
    exact_passes = 0
    timeouts: list[str] = []

    def sim_unit() -> None:
        run = wl.sim_rep(lib, inputs.scenario, tally)
        if run is not None:
            samples["sim"].append(run[0])
            sim_runs.append(run[1:])

    def compare_unit() -> None:
        (count, _, _), sample = wl.timed(lambda: wl.compare_round(lib, inputs.compare, tally))
        samples["compare"].append((count, sample))

    def realloc_unit() -> None:
        samples["realloc"].extend(wl.realloc_samples(lib, inputs.realloc, REALLOC_PER_UNIT, tally))

    def exact_unit() -> None:
        nonlocal exact_passes
        times, _ = wl.exact_pass(lib, inputs.exact, tally, timeouts)
        for name, sample in times.items():
            samples["exact"][name].append(sample)
        exact_passes += 1

    units = {
        "sim": (sim_unit, lambda: len(samples["sim"]), MIN_REPS),
        "compare": (compare_unit, lambda: len(samples["compare"]), MIN_REPS),
        "realloc": (realloc_unit, lambda: len(samples["realloc"]), wl.REALLOC_MIN_SAMPLES),
        "exact": (exact_unit, lambda: exact_passes, MIN_REPS),
    }
    for round_index in range(1, ROUNDS + 1):
        for phase, share in SHARES[workload].items():
            unit, done, minimum = units[phase]
            deadline = time.perf_counter() + seconds * share / ROUNDS
            # Each round must also reach its slice of the phase's minimum.
            while time.perf_counter() < deadline or done() < minimum * round_index / ROUNDS:
                with wl.paused_gc():
                    unit()

    # Checks, outside the timed regions.
    check_digest(tally, details, "rep", [body for _, body in sim_runs], recorded)
    check_conservation(tally, sim_runs[0][0], "rep")
    if inputs.long_scenario is not None:
        run = wl.sim_rep(lib, inputs.long_scenario, tally)
        if run is not None:
            check_digest(tally, details, "long", [run[2]], recorded)
            check_conservation(tally, run[1], "long")
    details["solver_gap_vs_cabf"] = check_alloc(
        lib, inputs, tally, details, recorded if workload == "alloc_compare" else None
    )
    samples["sent"] = report_totals(sim_runs[0][0])["sent"]
    all_slowdowns = [slow for _, slow in samples["sim"] + samples["realloc"]]
    all_slowdowns += [slow for _, (_, slow) in samples["compare"]]
    details.update(
        unscaled=end_to_end(samples, scale=False),
        slowdown_median=statistics.median(all_slowdowns),
        sim_reps=len(samples["sim"]),
        msgs_per_rep=samples["sent"],
        compare_rounds=len(samples["compare"]),
        tables_per_round=len(inputs.compare) * len(lib.allocators.HEURISTIC_NAMES),
        realloc_samples=len(samples["realloc"]),
        realloc_flows=len(inputs.realloc.flows),
        exact_passes=exact_passes,
        exact_instances=[inst.name for inst in inputs.exact],
        exact_timeouts=timeouts,
    )
    return {
        **end_to_end(samples, scale=True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# --- traced run: per-layer metrics -------------------------------------------------


def install(tracer: tracing.Tracer, lib) -> None:
    """Wrap each layer boundary at the name its caller looks it up by."""
    counts = tracer.counts
    wire = lib.wire

    def on_feed(args, events):
        counts["feed_bytes"] += len(args[1])
        counts["malformed"] += sum(isinstance(event, wire.MalformedFrame) for event in events)

    def on_control(args, message):
        if isinstance(message, wire.Ack):
            counts["delivered"] += 1
        elif isinstance(message, wire.Err):
            counts["refused" if message.reason is wire.ErrorReason.NOT_DELIVERED else "unallocated"] += 1
        elif isinstance(message, wire.ReallocAccepted):
            counts["handshakes"] += 1

    def on_app(args, message):
        counts["sent"] += 1

    def on_table(args, table):
        counts["flows_offered"] += len(args[1])
        counts["flows_served"] += len(table.entries)

    tracer.wrap(wire.FrameDecoder, "feed", "wire.feed", on_feed)
    for fn in _WIRE_FUNCS[1:]:
        observe = {"parse_control": on_control, "decode_app": on_app}.get(fn)
        tracer.wrap(wire, fn, f"wire.{fn}", observe)
    tracer.wrap(lib.simulator, "run", "simulator.run")
    tracer.wrap(lib.simulator, "run_algorithm", "catalog.run_algorithm", on_table)
    tracer.wrap(lib.catalog, "run_algorithm", "catalog.run_algorithm", on_table)
    tracer.wrap(lib.catalog, "exact_solve", lambda args: f"solver.exact_solve.s.n{len(args[0].flows):02d}")
    tracer.wrap(lib.allocators, "cabf", "allocators.cabf")
    tracer.wrap(lib.allocators, "cabf_inv", "allocators.cabf_inv")
    tracer.wrap(lib.allocators, "heuristic", "allocators.heuristic")
    tracer.wrap(lib.allocators, "utilization", "flows.utilization")
    tracer.wrap(lib.solver, "utilization", "flows.utilization")
    tracer.wrap(lib.metrics, "report", "metrics.report")
    tracer.wrap(lib.metrics, "render_comparison_json", "metrics.render")


def layer_metrics(times: dict, counts, units: int) -> dict:
    """Per-layer figures per unit of workload work, from span self times."""

    def total_s(name: str) -> float:
        return times.get(name, (0, 0, 0))[1] / 1e9 / units

    def calls(name: str) -> float:
        return times.get(name, (0, 0, 0))[0] / units

    out = {}
    for fn in _WIRE_FUNCS:
        out[f"wire.{fn}.s"] = total_s(f"wire.{fn}")
        out[f"wire.{fn}.calls"] = calls(f"wire.{fn}")
    feed_bytes = counts["feed_bytes"] / units
    out["wire.feed.bytes"] = feed_bytes
    out["wire.feed.ns_per_byte"] = 1e9 * out["wire.feed.s"] / feed_bytes if feed_bytes else 0.0
    out["wire.malformed"] = counts["malformed"] / units
    run_s = total_s("simulator.run")
    sent = counts["sent"] / units
    out["simulator.run.s"] = run_s
    out["simulator.self_s"] = times.get("simulator.run", (0, 0, 0))[2] / 1e9 / units
    out["simulator.us_per_msg"] = 1e6 * run_s / sent if sent else 0.0
    out["simulator.msgs_sent"] = sent
    out["simulator.msgs_delivered"] = counts["delivered"] / units
    out["simulator.refused"] = counts["refused"] / units
    out["simulator.unallocated"] = counts["unallocated"] / units
    out["simulator.handshakes"] = counts["handshakes"] / units
    out["simulator.delivered_ratio"] = counts["delivered"] / counts["sent"] if counts["sent"] else 0.0
    out["catalog.run_algorithm.calls"] = calls("catalog.run_algorithm")
    out["catalog.run_algorithm.s"] = total_s("catalog.run_algorithm")
    out["allocators.cabf.s"] = total_s("allocators.cabf")
    out["allocators.cabf_inv.s"] = total_s("allocators.cabf_inv")
    out["allocators.heuristic.s"] = total_s("allocators.heuristic")
    offered = counts["flows_offered"]
    out["allocators.served_ratio"] = counts["flows_served"] / offered if offered else 0.0
    out["flows.utilization.calls"] = calls("flows.utilization")
    out["flows.utilization.s"] = total_s("flows.utilization")
    for n in _EXACT_SIZES:
        out[f"solver.exact_solve.s.n{n:02d}"] = total_s(f"solver.exact_solve.s.n{n:02d}")
    out["metrics.report.s"] = total_s("metrics.report")
    out["metrics.render.s"] = total_s("metrics.render")
    return out


def run_traced(lib, inputs: wl.Inputs, workload: str, seed: int, seconds: float,
               tally: wl.Tally, details: dict) -> dict:
    """Untraced pass, then the same work traced; per-layer metrics per unit.

    The traced pass stops early once it holds ``MAX_SPANS`` spans.

    A unit is one scenario run for the sim workloads, and one compare round
    plus ``REALLOC_PER_UNIT`` re-allocation calls plus one exact pass for
    ``alloc_compare``.
    """
    recorded = _recorded(workload, seed)
    timeouts: list[str] = []

    if workload in SIM_WORKLOADS:
        def unit(sink):
            run = wl.sim_rep(lib, inputs.scenario, tally)
            if run is not None:
                sink.append(run[1:])
    else:
        def unit(sink):
            wl.compare_round(lib, inputs.compare, tally)
            wl.realloc_samples(lib, inputs.realloc, REALLOC_PER_UNIT, tally)
            wl.exact_pass(lib, inputs.exact, tally, timeouts)

    reports: list = []
    units = 0
    started = time.perf_counter()
    while units < 1 or time.perf_counter() - started < seconds / 2:
        with wl.paused_gc():
            unit(reports)
        units += 1
    untraced_s = time.perf_counter() - started

    tracer = tracing.Tracer()
    install(tracer, lib)
    traced_units = 0
    started = time.perf_counter()
    try:
        # The same work again, unless the spans would outgrow memory first.
        while traced_units < units and (traced_units == 0 or len(tracer) < MAX_SPANS):
            with wl.paused_gc():
                unit(reports)
            traced_units += 1
    finally:
        traced_s = time.perf_counter() - started
        tracer.restore()

    spans = tracer.spans()
    times = tracing.self_times(spans)
    out = layer_metrics(times, tracer.counts, traced_units)
    out["trace.overhead_frac"] = (traced_s / traced_units) / (untraced_s / units) - 1
    out["solver.timeouts"] = len(timeouts)

    if workload in SIM_WORKLOADS:
        check_digest(tally, details, "rep", [body for _, body in reports], recorded)
        totals = report_totals(reports[0][0])
        expected = {
            "simulator.msgs_sent": totals["sent"],
            "simulator.msgs_delivered": totals["delivered"],
            "simulator.refused": totals["err_not_delivered"],
            "simulator.unallocated": totals["err_not_allocated"],
            "simulator.handshakes": len(reports[0][0].handshakes),
            "wire.malformed": 0,
        }
        for key, value in expected.items():
            tally.attempted += 1
            if out[key] != value:
                tally.fail(f"traced {key} = {out[key]}, report says {value}")
        out["solver.gap_vs_cabf"] = 0
    else:
        out["solver.gap_vs_cabf"] = check_alloc(lib, inputs, tally, details, recorded)

    path = TRACE_DIR / f"spans-{workload}-seed{seed}.csv.gz"
    tracer.write(path)
    details.update(units=units, traced_units=traced_units, spans=len(spans), spans_file=str(path),
                   untraced_s=untraced_s, traced_s=traced_s)
    return out


# --- entry point -------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (wl.SRC / "resilient_alloc" / "__init__.py").is_file():
        print(f"bench: library sources not found under {wl.SRC}", file=sys.stderr)
        return 2

    # Setup: import the package, build the inputs, validate them. Repeated,
    # scaled like every other timing, and the median reported.
    def set_up():
        lib = wl.import_library()
        return lib, wl.make_inputs(lib, args.workload, args.seed)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        (lib, inputs), (elapsed, slow) = wl.timed(set_up)
        setup_times.append(elapsed / slow)

    tally = wl.Tally()
    details: dict = {}
    runner = run_traced if args.trace else run_untraced
    values = runner(lib, inputs, args.workload, args.seed, args.seconds, tally, details)
    if args.trace:
        units = PER_LAYER
    else:
        values["setup_s"] = statistics.median(setup_times)
        units = END_TO_END
    details["problems"] = tally.problems

    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
