#!/usr/bin/env python3
"""Record the output digests the benchmark checks, for a range of seeds.

    python3 bench/record_digests.py --first 0 --last 31

Rewrites bench/digests.json. Run it only when a change is meant to alter
simulation reports or comparison tables; otherwise the recorded digests are
the reference that the benchmark and its tests hold the library to.
"""

from __future__ import annotations

import argparse
import json

import run
import workloads as wl


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, required=True)
    args = parser.parse_args()
    lib = wl.import_library()
    recorded = {
        workload: {
            str(seed): run.reference_digests(lib, workload, seed)
            for seed in range(args.first, args.last + 1)
        }
        for workload in run.WORKLOADS
    }
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
