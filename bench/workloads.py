"""Seeded inputs and timed phases of the benchmark workloads.

Every input is a pure function of the workload seed (plus fixed constants),
so two runs with one seed feed the library identical data. The library is
reached only through its public modules, called the way the CLI calls them:
``simulator.run`` then ``SimReport.json_bytes()`` for simulations, and
``catalog.run_algorithm`` then ``metrics.report`` and
``metrics.render_comparison_json`` for allocation tables.
"""

from __future__ import annotations

import gc
import importlib
import random
import signal
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMOS = ROOT / "demos"

MODULES = ("allocators", "catalog", "flows", "metrics", "networks", "simulator", "solver", "wire")

#: The four-network set of the many-small scenario and of the allocator
#: instances: tightest first, so best fit fills the constrained radios.
FOUR_NETWORKS = ("wifi_table2", "lora_sf7_fipy", "sigfox_fipy", "nbiot_fipy")
PAPER_NETWORKS = ("wifi_table2", "lora_sf9_table2", "sigfox_table2")
PAPER_OBJECTIVE = 22

#: One simulated slot holds one outage per flapping network. A timed
#: repetition simulates one slot; the long run strings many together so
#: that memory growth with simulated time shows in peak RSS.
SLOT_SECONDS = 300
OUTAGE_SECONDS = 50
BULK_LONG_SLOTS = 24  # 2 h simulated
SMALL_LONG_SLOTS = 36  # 3 h simulated
SMALL_FLOWS = 32

RANDOM_SIZES = (8, 32, 128)
RANDOM_PER_SIZE = 3
REALLOC_FLOWS = 128
#: Enough decisions that p99 has at least 20 samples beyond it.
REALLOC_MIN_SAMPLES = 2000

#: Capacity-tight exact-solver set: (flow count, generator seed). Fixed, not
#: drawn from the workload seed, because solve time is heavy-tailed across
#: instances; each entry solves in about a second or less with the current
#: branch-and-bound solver. Sim workloads time only the n <= 10 prefix.
TIGHT_SET = ((8, 8), (9, 1009), (10, 10), (11, 1011))
TIGHT_SET_SMALL = TIGHT_SET[:3]
EXACT_TIME_BOX_S = 30.0


def import_library() -> SimpleNamespace:
    """Import the package afresh; setup time includes this import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "resilient_alloc" or m.startswith("resilient_alloc.")]:
        del sys.modules[name]
    importlib.import_module("resilient_alloc")
    return SimpleNamespace(**{m: importlib.import_module(f"resilient_alloc.{m}") for m in MODULES})


# --- input generators ----------------------------------------------------------


def _outages(lib, rng: random.Random, network_ids, slots: int):
    """One fixed-length outage per network per slot, at a seeded offset.

    The total outage time is the same for every seed, so the traffic mix
    (and with it the cost per message) stays steady across seeds.
    """
    events = []
    for network_id in network_ids:
        for slot in range(slots):
            start = slot * SLOT_SECONDS + rng.randrange(5, SLOT_SECONDS - OUTAGE_SECONDS - 5)
            events.append(lib.simulator.NetworkEvent(Fraction(start), network_id, False))
            events.append(lib.simulator.NetworkEvent(Fraction(start + OUTAGE_SECONDS), network_id, True))
    events.sort(key=lambda event: (event.time, event.network_id))
    return tuple(events)


def bulk_scenario(lib, seed: int, slots: int):
    """The shipped Wi-Fi loss demo (40 KB level-1 payloads) over ``slots``."""
    base = lib.simulator.load_scenario(DEMOS / "wifi_loss.json")
    rng = random.Random(f"sim_bulk/{seed}/{slots}")
    return replace(
        base,
        duration_seconds=Fraction(slots * SLOT_SECONDS),
        seed=rng.getrandbits(63),
        events=_outages(lib, rng, ("wifi",), slots),
    )


def small_flows(lib, rng: random.Random, n: int):
    """``n`` small flows: 4..200 B payloads, 1..30 s periods.

    Sizes and periods are fixed ladders dealt out in a seeded order, so the
    aggregate message rate is the same for every seed while the pairing of
    size and period (and so the allocation) changes. Periods are geometric,
    which puts the total level-1 demand above the LoRa capacity and spreads
    flows over every network.
    """
    periods = [round(30 ** (i / (n - 1))) for i in range(n)]
    sizes = [4 + (196 * i) // (n - 1) for i in range(n)]
    rng.shuffle(periods)
    rng.shuffle(sizes)
    qos = lib.flows.QosRequirement
    return tuple(
        lib.flows.FlowSpec(
            id=str(i + 1),
            app=f"App{i % 4}",
            name=f"flow {i + 1}",
            qos={
                1: qos(sizes[i], Fraction(periods[i])),
                2: qos(max(4, sizes[i] // 4), Fraction(2 * periods[i])),
                3: qos(4, Fraction(4 * periods[i])),
            },
        )
        for i in range(n)
    )


def four_networks(lib):
    return tuple(lib.networks.builtin_profile(kind) for kind in FOUR_NETWORKS)


def small_scenario(lib, seed: int, slots: int):
    """Many small flows on four radios; Wi-Fi, NB-IoT and LoRa flap."""
    rng = random.Random(f"sim_many_small/{seed}/{slots}")
    return lib.simulator.Scenario(
        flows=small_flows(lib, rng, SMALL_FLOWS),
        networks=four_networks(lib),
        l_max=3,
        factor=8,
        algorithm="cabf-inv",
        duration_seconds=Fraction(slots * SLOT_SECONDS),
        seed=rng.getrandbits(63),
        events=_outages(lib, rng, ("wifi", "nbiot", "lora"), slots),
    )


def tight_instance(lib, n: int, gen_seed: int):
    """Capacity-tight instance: three equal networks, each 1/3 of level-3 demand."""
    rng = random.Random(gen_seed)
    qos = lib.flows.QosRequirement
    flows = []
    for i in range(n):
        c1, t1 = rng.randint(20, 200), rng.randint(1, 10)
        flows.append(
            lib.flows.FlowSpec(
                id=str(i + 1),
                app="App",
                name=f"flow {i + 1}",
                qos={
                    1: qos(c1, Fraction(t1)),
                    2: qos(max(1, c1 // rng.randint(2, 4)), Fraction(t1 * rng.randint(1, 3))),
                    3: qos(max(1, c1 // rng.randint(4, 10)), Fraction(t1 * rng.randint(2, 6))),
                },
            )
        )
    total = sum(lib.flows.utilization(flow, 3, 8) for flow in flows)
    capacity = -(-total // (3 * lib.flows.MICRO))
    networks = tuple(lib.networks.NetworkProfile(f"n{j}", f"net {j}", capacity) for j in range(3))
    return Instance(f"tight-n{n:02d}", flows, networks, lib.allocators.AllocatorConfig(l_max=3, factor=8))


@dataclass(frozen=True)
class Instance:
    name: str
    flows: tuple
    networks: tuple
    cfg: object


@dataclass
class Inputs:
    """Everything one workload run feeds the library."""

    scenario: object = None  # timed simulation: one slot
    long_scenario: object = None  # untimed long run: digest and peak RSS
    compare: list = field(default_factory=list)  # instances for the heuristics
    realloc: Instance | None = None
    exact: list = field(default_factory=list)


def _paper_instance(lib) -> Instance:
    flow_set = lib.flows.load_flow_set(DEMOS / "assisted_living.json")
    networks = tuple(lib.networks.builtin_profile(kind) for kind in PAPER_NETWORKS)
    return Instance("paper", flow_set.flows, networks, lib.allocators.AllocatorConfig(flow_set.l_max, 8))


def _realloc_instance(lib, flows, networks, cfg) -> Instance:
    # The node's decision after an outage: Wi-Fi (the first network) is gone.
    return Instance("realloc", tuple(flows), tuple(networks[1:]), cfg)


def make_inputs(lib, workload: str, seed: int) -> Inputs:
    inputs = Inputs()
    if workload in ("sim_bulk", "sim_many_small"):
        make = bulk_scenario if workload == "sim_bulk" else small_scenario
        inputs.scenario = make(lib, seed, 1)
        inputs.long_scenario = make(lib, seed, BULK_LONG_SLOTS if workload == "sim_bulk" else SMALL_LONG_SLOTS)
        for scenario in (inputs.scenario, inputs.long_scenario):
            scenario.validate()
        sc = inputs.scenario
        cfg = lib.allocators.AllocatorConfig(l_max=sc.l_max, factor=sc.factor)
        inputs.compare = [Instance("scenario", sc.flows, sc.networks, cfg)]
        inputs.realloc = _realloc_instance(lib, sc.flows, sc.networks, cfg)
        inputs.exact = [tight_instance(lib, n, s) for n, s in TIGHT_SET_SMALL]
    elif workload == "alloc_compare":
        rng = random.Random(f"alloc_compare/{seed}")
        networks = four_networks(lib)
        cfg = lib.allocators.AllocatorConfig(l_max=3, factor=8)
        inputs.compare = [_paper_instance(lib)]
        for n in RANDOM_SIZES:
            for k in range(RANDOM_PER_SIZE):
                flows = small_flows(lib, rng, n)
                lib.flows.validate_flow_set(flows, cfg.l_max)
                inputs.compare.append(Instance(f"random-n{n}-{k}", flows, networks, cfg))
        realloc_flows = small_flows(lib, rng, REALLOC_FLOWS)
        lib.flows.validate_flow_set(realloc_flows, cfg.l_max)
        inputs.realloc = _realloc_instance(lib, realloc_flows, networks, cfg)
        inputs.exact = [tight_instance(lib, n, s) for n, s in TIGHT_SET]
        # Only for sim_msgs_per_s, which every workload reports.
        inputs.scenario = small_scenario(lib, seed, 1)
        inputs.scenario.validate()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


# --- timed phases -----------------------------------------------------------------


class TimeBox(Exception):
    """An exact solve ran past its time box."""


def _on_alarm(signum, frame):
    raise TimeBox()


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


#: The reference kernel: a fixed loop of dict and integer work, run next to
#: every timed call. The machines this runs on share their cores and slow
#: down by up to 2x for seconds at a time; the kernel's time over its time
#: on a quiet machine measures that slowdown at the moment of the call, and
#: timings are divided by it. REFERENCE_QUIET_S is the kernel's fastest
#: time on a 2-vCPU x86-64 VM under Python 3.11.7.
REFERENCE_LOOPS = 2000
REFERENCE_QUIET_S = 0.00025


def slowdown() -> float:
    started = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(REFERENCE_LOOPS):
        table[i & 63] = table.get(i & 63, 0) + i * 3 % 7
    return (time.perf_counter() - started) / REFERENCE_QUIET_S


def timed(call):
    """Run ``call()`` between two slowdown probes.

    Returns its result and (seconds, slowdown), the slowdown being the mean
    of the probes before and after.
    """
    before = slowdown()
    started = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - started
    return result, (elapsed, (before + slowdown()) / 2)


@contextmanager
def paused_gc():
    """Keep the cyclic collector out of timed calls, as ``timeit`` does."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


def sim_rep(lib, scenario, tally: Tally):
    """One timed simulation: ``simulator.run`` plus ``json_bytes()``.

    Returns ((seconds, slowdown), report, json bytes), or None if it raised.
    """

    def one_run():
        report = lib.simulator.run(scenario)
        return report, report.json_bytes()

    tally.attempted += 1
    try:
        (report, body), sample = timed(one_run)
    except Exception as exc:  # a crash in one repetition is a failed operation
        tally.fail(f"simulator.run: {exc!r}")
        return None
    return sample, report, body


def compare_round(lib, instances, tally: Tally) -> tuple[int, list, list]:
    """One ``compare`` pass: every heuristic on every instance, scored and rendered.

    Returns the number of tables computed, the tables, and the rendered documents.
    """
    tables, rendered = [], []
    for inst in instances:
        rows = []
        for name in lib.allocators.HEURISTIC_NAMES:
            tally.attempted += 1
            try:
                table = lib.catalog.run_algorithm(name, list(inst.flows), list(inst.networks), inst.cfg)
                rows.append((name, lib.metrics.report(table, list(inst.flows), list(inst.networks), inst.cfg.l_max)))
            except Exception as exc:
                tally.fail(f"{name} on {inst.name}: {exc!r}")
                continue
            tables.append((inst, name, table))
        rendered.append(lib.metrics.render_comparison_json(rows, inst.cfg.factor))
    return len(tables), tables, rendered


def realloc_samples(lib, inst: Instance, count: int, tally: Tally) -> list:
    """(seconds, slowdown) of ``count`` single re-allocation decisions.

    One probe sits between consecutive calls and serves both.
    """
    flows, networks = list(inst.flows), list(inst.networks)
    samples = []
    before = slowdown()
    for _ in range(count):
        tally.attempted += 1
        started = time.perf_counter()
        try:
            lib.catalog.run_algorithm("cabf-inv", flows, networks, inst.cfg)
        except Exception as exc:
            tally.fail(f"cabf-inv realloc: {exc!r}")
            continue
        elapsed = time.perf_counter() - started
        after = slowdown()
        samples.append((elapsed, (before + after) / 2))
        before = after
    return samples


def exact_pass(lib, instances, tally: Tally, timeouts: list) -> tuple[dict, dict]:
    """Solve every instance with ``exact`` under a per-instance time box.

    Returns (seconds, slowdown) for each solved instance, and its table.
    """
    times, tables = {}, {}
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for inst in instances:
            tally.attempted += 1
            signal.setitimer(signal.ITIMER_REAL, EXACT_TIME_BOX_S)
            try:
                tables[inst.name], times[inst.name] = timed(
                    lambda: lib.catalog.run_algorithm("exact", list(inst.flows), list(inst.networks), inst.cfg)
                )
            except TimeBox:
                timeouts.append(inst.name)
                tally.fail(f"exact on {inst.name}: time box of {EXACT_TIME_BOX_S} s")
            except Exception as exc:
                tally.fail(f"exact on {inst.name}: {exc!r}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return times, tables
