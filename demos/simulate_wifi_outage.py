"""Simulate a Wi-Fi outage and watch the re-allocation handshake.

The shipped scenario runs the assisted-living flows over Wi-Fi and NB-IoT
for 600 simulated seconds and takes Wi-Fi down at t = 300. The node then
announces re-allocation, the host pauses every generator, and after the
sampled 1.3-1.5 s context switch the new allocation table arrives and
traffic resumes on NB-IoT. The wire transcript shows the exact frames.

Run:  python demos/simulate_wifi_outage.py
"""

from pathlib import Path

from resilient_alloc import load_scenario, run


def main() -> None:
    scenario = load_scenario(Path(__file__).parent / "wifi_loss.json")
    transcript: list = []
    report = run(scenario, transcript=transcript.append)

    shake = report.handshakes[0]
    print(f"scenario: {scenario.algorithm}, seed {scenario.seed}, "
          f"{float(scenario.duration_seconds):g} simulated seconds")
    print(f"handshakes recorded: {len(report.handshakes)}")
    print(f"  start t={float(shake.start):g}s  accepted t={float(shake.accepted):.3f}s  "
          f"duration {float(shake.duration):.3f}s")
    print()

    print("per-flow delivery:")
    for flow in scenario.flows:
        totals = report.flow_totals(flow.id)
        placed = report.final_allocation[flow.id]
        where = "unserved" if placed is None else f"{placed.network_id} @ level {placed.level}"
        print(
            f"  flow {flow.id} ({flow.name}): sent={totals.sent} delivered={totals.delivered} "
            f"errors={totals.err_not_allocated + totals.err_not_delivered}  final: {where}"
        )
    print()

    print("wire frames around the outage:")
    window = [e for e in transcript if 299.0 <= e["t"] <= float(shake.accepted) + 6.0]
    for entry in window[:12]:
        body = entry["body"]
        if len(body) > 60:
            body = body[:57] + "..."
        print(f"  t={entry['t']:9.3f}  {entry['dir']:10s}  {body}")


if __name__ == "__main__":
    main()
