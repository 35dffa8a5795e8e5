"""Command-line front end.

Thin shell over the library: every behaviour here is reachable through
library calls; the CLI only parses arguments, loads JSON, and renders.
Exit codes: 0 success, 1 validation/input error, 2 infeasible instance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict, astuple, replace
from pathlib import Path

from . import simulator, wire
from .allocators import AllocatorConfig
from .catalog import ALGORITHM_NAMES, run_algorithm
from .flows import load_flow_set
from .metrics import (
    format_columns,
    format_quantity,
    render_comparison_csv,
    render_comparison_json,
    render_comparison_table,
    report,
)
from .networks import BUILTIN_KINDS, builtin_profile, load_networks, networks_from_json
from .rational import Node, number_text
from .rng import FixedDelay
from .solver import IlpInstance, Infeasible, exact_solve

SEED_ENV_VAR = "RESILIENT_ALLOC_SEED"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValueError(message)


def _parse_networks(spec: str):
    # Path("") is the working directory, so only a regular file counts as one.
    path = Path(spec)
    if path.is_file():
        return load_networks(path)
    networks = networks_from_json([{"builtin": kind.strip()} for kind in spec.split(",") if kind.strip()])
    if not networks:
        raise ValueError(f"no networks in spec {spec!r}")
    return networks


def _add_allocation_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--flows", required=True, help="flow set JSON file")
    parser.add_argument(
        "--networks",
        required=True,
        help="comma-separated built-in profile kinds, or a JSON file",
    )
    parser.add_argument("--factor", type=int, default=8, help="capacity unit scale (default 8)")
    parser.add_argument(
        "--format", choices=("table", "csv", "json"), default="table", dest="fmt"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="resilient-alloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_allocate = sub.add_parser("allocate", help="run one allocation algorithm")
    _add_allocation_args(p_allocate)
    p_allocate.add_argument("--algo", default="cabf", choices=ALGORITHM_NAMES)
    p_allocate.set_defaults(func=lambda args: _run_rows(args, [args.algo]))

    p_compare = sub.add_parser("compare", help="run every algorithm and tabulate")
    _add_allocation_args(p_compare)
    p_compare.set_defaults(func=lambda args: _run_rows(args, list(ALGORITHM_NAMES)))

    p_solve = sub.add_parser("solve", help="run the exact solver")
    _add_allocation_args(p_solve)
    p_solve.add_argument(
        "--require-all", action="store_true", help="fail unless every flow is served"
    )
    p_solve.set_defaults(func=lambda args: _run_rows(args, ["exact"]))

    p_simulate = sub.add_parser("simulate", help="run a scenario")
    p_simulate.add_argument("--scenario", required=True, help="scenario JSON file")
    p_simulate.add_argument("--transcript", help="write a JSON-lines frame transcript here")
    p_simulate.add_argument("--format", choices=("table", "json"), default="table", dest="fmt")
    p_simulate.set_defaults(func=cmd_simulate)

    p_profiles = sub.add_parser("profiles", help="list built-in network profiles")
    p_profiles.set_defaults(func=cmd_profiles)

    p_encode = sub.add_parser(
        "frame-encode", help="frame each stdin line and write the bytes to stdout"
    )
    p_encode.set_defaults(func=cmd_frame_encode)

    p_decode = sub.add_parser(
        "frame-decode", help="decode frames from stdin and print one body per line"
    )
    p_decode.set_defaults(func=cmd_frame_decode)

    return parser


def _run_rows(args, names) -> int:
    flow_set = load_flow_set(args.flows)
    flows = list(flow_set.flows)
    networks = _parse_networks(args.networks)
    cfg = AllocatorConfig(l_max=flow_set.l_max, factor=args.factor)
    rows = []
    for name in names:
        if getattr(args, "require_all", False):
            table = exact_solve(IlpInstance(flows, networks, cfg, require_all=True))
        else:
            table = run_algorithm(name, flows, networks, cfg)
        rows.append((name, report(table, flows, networks, flow_set.l_max)))
    if args.fmt == "table":
        sys.stdout.write(render_comparison_table(rows, flows, networks, args.factor))
    elif args.fmt == "csv":
        sys.stdout.write(render_comparison_csv(rows, flows, networks))
    else:
        sys.stdout.write(render_comparison_json(rows, args.factor))
    return 0


def _render_sim_table(rep: simulator.SimReport) -> str:
    lines = [
        f"algorithm={rep.algorithm}  seed={rep.seed}  rng={rep.rng_name}  "
        f"duration={float(rep.duration_seconds):g}s  factor={rep.factor}"
    ]
    header = ["flow", "level", "sent", "delivered", "not-allocated", "not-delivered"]
    rows = [header]
    for flow_id, levels in rep.per_flow_level.items():
        for level, counts in levels.items() or [("-", simulator.FlowLevelCounts())]:
            rows.append([flow_id, str(level), *map(str, astuple(counts))])
    lines += format_columns(rows)
    lines.append("")
    for network_id, counts in rep.per_network.items():
        fields = " ".join(f"{name}={value}" for name, value in asdict(counts).items())
        lines.append(f"network {network_id}: {fields}")
    for shake in rep.handshakes:
        lines.append(
            f"handshake: start={float(shake.start):g}s accepted={float(shake.accepted):g}s "
            f"duration={float(shake.duration):.3f}s"
        )
    fractions = []
    for flow_id in rep.per_flow_level:
        fraction = rep.delivered_fraction(flow_id)
        fractions.append(f"{flow_id}:{'-' if fraction is None else format_quantity(100 * fraction) + '%'}")
    lines.append("delivered: " + "  ".join(fractions))
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    # A scenario that cannot be opened, or a seed override that is not a
    # 64-bit seed, stops the command before any file is made. The transcript
    # file is opened next, so an unwritable path fails before any work, and
    # each frame is written as it is sent. Opening empties it, so it must not
    # be the scenario file under any spelling.
    open(args.scenario, "rb").close()
    if args.transcript and os.path.exists(args.transcript) and os.path.samefile(args.transcript, args.scenario):
        raise ValueError(f"--transcript {args.transcript} is the scenario file; it would be emptied before it is read")
    seed = None
    if (override := os.environ.get(SEED_ENV_VAR)) is not None:
        node = Node(override, SEED_ENV_VAR)
        seed = node.int()
        if not 0 <= seed < 1 << 64:
            raise node.fail(f"must fit in 64 bits, got {number_text(seed)}")
    with open(args.transcript, "w", encoding="utf-8") if args.transcript else nullcontext() as handle:
        scenario = simulator.load_scenario(args.scenario)
        if seed is not None:
            scenario = replace(scenario, seed=seed)
        write = None if handle is None else lambda entry: handle.write(json.dumps(entry, sort_keys=True) + "\n")
        rep = simulator.run(scenario, transcript=write)
    if args.fmt == "json":
        sys.stdout.buffer.write(rep.json_bytes())
        sys.stdout.write("\n")
    else:
        sys.stdout.write(_render_sim_table(rep))
    return 0


def _number(value, scale: int = 1) -> str:
    return "-" if value is None else f"{float(value * scale):g}"


def cmd_profiles(args) -> int:
    header = [
        "kind",
        "name",
        "capacity_bps",
        "max_payload_B",
        "msgs_per_day",
        "min_gap_s",
        "latency_ms",
        "connect_s",
    ]
    rows = [header]
    for kind in BUILTIN_KINDS:
        profile = builtin_profile(kind)
        latency = profile.latency
        if isinstance(latency, FixedDelay):
            latency_text = _number(latency.seconds, 1000)
        else:
            latency_text = f"{_number(latency.min_seconds, 1000)}..{_number(latency.max_seconds, 1000)}"
        rows.append(
            [
                kind,
                profile.name,
                str(profile.capacity_bps),
                _number(profile.max_payload_bytes),
                _number(profile.max_messages_per_day),
                _number(profile.min_inter_message_gap_seconds),
                latency_text,
                _number(profile.connect_time_seconds),
            ]
        )
    for line in format_columns(rows):
        sys.stdout.write(line + "\n")
    return 0


def cmd_frame_encode(args) -> int:
    for line in sys.stdin.buffer.read().split(b"\n"):
        if line:
            sys.stdout.buffer.write(wire.encode_frame(line))
    return 0


def cmd_frame_decode(args) -> int:
    decoder = wire.FrameDecoder()
    for event in decoder.feed(sys.stdin.buffer.read()):
        if isinstance(event, wire.Frame):
            sys.stdout.buffer.write(event.body + b"\n")
        else:
            sys.stderr.write(f"malformed frame: {event.reason}\n")
    if decoder.pending:
        sys.stderr.write(f"malformed frame: {len(decoder.pending)} bytes left at the end of the input\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except Infeasible as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
