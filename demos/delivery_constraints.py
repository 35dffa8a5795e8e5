"""Watch a constrained network refuse traffic the allocator admitted.

The allocator only reasons about bandwidth, so on a Sigfox-only device it
happily serves all eight assisted-living flows (five of them degraded to
level 2). Delivery is another matter: Sigfox carries at most 12 bytes per
message and needs 10.5 s between sends, so most of the admitted traffic
bounces with a not-delivered error. Two simulated minutes are enough to see
which flows actually get through.

Run:  python demos/delivery_constraints.py
"""

from fractions import Fraction
from pathlib import Path

from resilient_alloc import Scenario, builtin_profile, load_flow_set, run


def main() -> None:
    flow_set = load_flow_set(Path(__file__).parent / "assisted_living.json")
    sigfox = builtin_profile("sigfox_fipy")
    scenario = Scenario(
        flows=flow_set.flows,
        networks=(sigfox,),
        l_max=flow_set.l_max,
        factor=1,
        algorithm="cabf-inv",
        duration_seconds=Fraction(120),
        seed=7,
    )
    report = run(scenario)

    print(f"network: {sigfox.name}  payload cap {sigfox.max_payload_bytes} B,")
    print(f"         {sigfox.max_messages_per_day} msgs/day, "
          f"{float(sigfox.min_inter_message_gap_seconds):g} s between sends")
    print()
    print("flow                       level  size  sent  delivered  refused")
    for flow in flow_set.flows:
        placed = report.final_allocation[flow.id]
        assert placed is not None  # bandwidth-wise everything fits
        level = placed.level
        size = flow.qos[level].message_size_bytes
        totals = report.flow_totals(flow.id)
        note = ""
        if totals.err_not_delivered and size > (sigfox.max_payload_bytes or 0):
            note = "  (payload too large)"
        elif totals.err_not_delivered:
            note = "  (minimum send gap)"
        print(
            f"{flow.name:26s} {level:5d} {size:5d} {totals.sent:5d} "
            f"{totals.delivered:10d} {totals.err_not_delivered:8d}{note}"
        )

    counts = report.per_network["sigfox"]
    print()
    print(f"sigfox carried {counts.messages} messages, {counts.bytes} bytes; "
          f"daily budget refusals: {counts.budget_violations_avoided}")


if __name__ == "__main__":
    main()
