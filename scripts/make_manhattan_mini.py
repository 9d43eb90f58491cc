#!/usr/bin/env python3
"""Generate the bundled manhattan-mini scenario.

A 12x5 street grid (0.5 km blocks) split into five latitude bands, one
charging station per band, 20 vehicles, 24 hourly slots starting 03:00,
200 trip requests with a two-peak daily profile (morning ~08:00, heavier
evening ~18:00), and an hourly price curve with a small morning bump and a
tall evening peak.  Deterministic: fixed RNG seed, stable row order.

--fleet and --trips scale the scenario on the same grid (for example
--fleet 100 --trips 1000 for a 5x day), and --rows and --cols change the
grid (for example --rows 30 --cols 20, 600 nodes); without them the
bundled scenario is written byte for byte.  The files come from the
benchmark's generator, ``perfbench/scenario_gen.py``, whose ``GridSpec``
defaults are this scenario.

Usage: python3 scripts/make_manhattan_mini.py [out_dir] [--fleet N] [--trips N]
           [--rows N] [--cols N]
"""

import argparse
import os
import sys

sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "perfbench"))
from scenario_gen import GridSpec, write  # noqa: E402

N_FLEET = GridSpec.fleet
N_TRIPS = GridSpec.trips


def main(out_dir, fleet=N_FLEET, trips=N_TRIPS, rows=GridSpec.rows,
         cols=GridSpec.cols):
    write(GridSpec(rows=rows, cols=cols, fleet=fleet, trips=trips), out_dir)
    print(f"wrote {out_dir}: {trips} trips")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", nargs="?", default="scenarios/manhattan-mini")
    parser.add_argument("--fleet", type=int, default=N_FLEET, help="vehicles")
    parser.add_argument("--trips", type=int, default=N_TRIPS, help="trip requests")
    parser.add_argument("--rows", type=int, default=GridSpec.rows, help="grid rows")
    parser.add_argument("--cols", type=int, default=GridSpec.cols, help="grid columns")
    args = parser.parse_args()
    if args.fleet < 1 or args.trips < 1:
        parser.error("--fleet and --trips must be at least 1")
    try:
        GridSpec(rows=args.rows, cols=args.cols)
    except ValueError as err:
        parser.error(f"--rows {args.rows} --cols {args.cols}: {err}")
    main(args.out_dir, fleet=args.fleet, trips=args.trips, rows=args.rows,
         cols=args.cols)
