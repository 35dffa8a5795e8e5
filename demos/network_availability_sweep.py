"""Allocate the assisted-living flows under different network availability.

Uses the capacities measured on the multi-radio dev board: Wi-Fi 750 kbps,
NB-IoT uplink 55 kbps, LoRa SF7/125 kHz 5.47 kbps, Sigfox uplink 100 bps
(demands compared as the raw C/T quotient, factor 1). With any
high-bandwidth network present every flow runs at level 1; on LoRa alone two
bulky sensors degrade to level 2; on Sigfox alone five flows degrade yet all
eight still receive service.

Run:  python demos/network_availability_sweep.py
"""

from pathlib import Path

from resilient_alloc import AllocatorConfig, builtin_profile, cabf_inv, load_flow_set, report
from resilient_alloc.metrics import format_quantity, glyph_map


def main() -> None:
    flow_set = load_flow_set(Path(__file__).parent / "assisted_living.json")
    flows = list(flow_set.flows)
    cfg = AllocatorConfig(l_max=flow_set.l_max, factor=1)

    profiles = {
        "wifi": builtin_profile("wifi_fipy"),
        "nbiot": builtin_profile("nbiot_fipy"),
        "lora": builtin_profile("lora_sf7_fipy"),
        "sigfox": builtin_profile("sigfox_fipy"),
    }
    scenarios = [
        ("Wi-Fi", ("wifi",)),
        ("LoRa", ("lora",)),
        ("NB-IoT", ("nbiot",)),
        ("Sigfox", ("sigfox",)),
        ("Wi-Fi + LoRa", ("wifi", "lora")),
        ("Wi-Fi + Sigfox", ("wifi", "sigfox")),
        ("NB-IoT + LoRa", ("nbiot", "lora")),
        ("NB-IoT + Sigfox", ("nbiot", "sigfox")),
    ]

    flow_width = max(len(f.id) for f in flows) + 1
    print("availability".ljust(16), "  ".join(f.id.rjust(flow_width) for f in flows), " served  avg crit")
    for label, keys in scenarios:
        networks = [profiles[key] for key in keys]
        glyphs = glyph_map(networks)
        rep = report(cabf_inv(flows, networks, cfg), flows, networks, cfg.l_max)
        cells = []
        for flow in flows:
            placed = rep.per_flow[flow.id]
            cells.append(("" if placed is None else f"{placed.level}{glyphs[placed.network_id]}").rjust(flow_width))
        print(
            label.ljust(16),
            "  ".join(cells),
            f" {format_quantity(rep.percent_served):>5}%",
            f" {format_quantity(rep.avg_criticality):>7}",
        )


if __name__ == "__main__":
    main()
