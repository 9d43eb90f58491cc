#!/usr/bin/env python3
"""Generate the bundled manhattan-mini scenario.

A 12x5 street grid (0.5 km blocks) split into five latitude bands, one
charging station per band, 20 vehicles, 24 hourly slots starting 03:00,
200 trip requests with a two-peak daily profile (morning ~08:00, heavier
evening ~18:00), and an hourly price curve with a small morning bump and a
tall evening peak.  Deterministic: fixed RNG seed, stable row order.

--fleet and --trips scale the scenario on the same grid (for example
--fleet 100 --trips 1000 for a 5x day); without them the bundled scenario
is written byte for byte.

Usage: python3 scripts/make_manhattan_mini.py [out_dir] [--fleet N] [--trips N]
"""

import argparse
import json
import math
import os
import random

ROWS, COLS = 12, 5
EDGE_KM = 0.5
SEED = 20160105
N_FLEET = 20
N_TRIPS = 200
START_HOUR = 3
T = 24

PRICES = {
    0: 2.3, 1: 2.1, 2: 2.0, 3: 1.9, 4: 2.0, 5: 2.2,
    6: 2.8, 7: 3.5, 8: 4.2, 9: 4.8, 10: 4.5, 11: 4.2,
    12: 4.0, 13: 3.8, 14: 3.9, 15: 4.4, 16: 5.8, 17: 7.5,
    18: 8.8, 19: 7.9, 20: 6.0, 21: 4.6, 22: 3.4, 23: 2.7,
}


def node_id(row, col):
    return row * COLS + col


def region_of(row):
    return min(4, row * 5 // ROWS)


def hourly_weights():
    weights = []
    for k in range(T):
        hour = START_HOUR + k  # may run past midnight
        w = 2.0
        w += 8.0 * math.exp(-((hour - 8.0) ** 2) / (2 * 1.5**2))
        w += 10.0 * math.exp(-((hour - 18.0) ** 2) / (2 * 2.0**2))
        weights.append(w)
    return weights


def trip_counts(n_trips):
    weights = hourly_weights()
    total = sum(weights)
    raw = [w / total * n_trips for w in weights]
    counts = [int(v) for v in raw]
    remainders = sorted(
        range(T), key=lambda k: (raw[k] - counts[k], -k), reverse=True
    )
    for k in remainders[: n_trips - sum(counts)]:
        counts[k] += 1
    return counts


def manhattan_km(a, b):
    ra, ca = divmod(a, COLS)
    rb, cb = divmod(b, COLS)
    return EDGE_KM * (abs(ra - rb) + abs(ca - cb))


def main(out_dir, fleet=N_FLEET, trips=N_TRIPS):
    rng = random.Random(SEED)
    os.makedirs(out_dir, exist_ok=True)

    nodes_rows = ["id,lon,lat"]
    for row in range(ROWS):
        for col in range(COLS):
            nodes_rows.append(f"{node_id(row, col)},{col * EDGE_KM},{row * EDGE_KM}")

    edge_rows = ["from_id,to_id,length_km"]
    for row in range(ROWS):
        for col in range(COLS):
            nid = node_id(row, col)
            if col + 1 < COLS:
                edge_rows.append(f"{nid},{nid + 1},{EDGE_KM}")
                edge_rows.append(f"{nid + 1},{nid},{EDGE_KM}")
            if row + 1 < ROWS:
                edge_rows.append(f"{nid},{nid + COLS},{EDGE_KM}")
                edge_rows.append(f"{nid + COLS},{nid},{EDGE_KM}")

    station_rows = ["node_id"] + [
        str(node_id(row, 2)) for row in (1, 4, 6, 9, 11)
    ]

    region_rows = ["node_id,region_id"]
    for row in range(ROWS):
        for col in range(COLS):
            region_rows.append(f"{node_id(row, col)},{region_of(row)}")

    trip_rows = [
        "id,request_time,earliest_start,origin_lon,origin_lat,"
        "dest_lon,dest_lat,passengers"
    ]
    rid = 1
    for k, count in enumerate(trip_counts(trips)):
        slot_start = (START_HOUR + k) * 3600
        times = sorted(rng.uniform(0, 3600) for _ in range(count))
        for offset in times:
            while True:
                origin = rng.randrange(ROWS * COLS)
                dest = rng.randrange(ROWS * COLS)
                if manhattan_km(origin, dest) >= 2.0:
                    break
            o_row, o_col = divmod(origin, COLS)
            d_row, d_col = divmod(dest, COLS)
            passengers = rng.choices([1, 2, 3], weights=[70, 20, 10])[0]
            t = slot_start + offset
            trip_rows.append(
                f"{rid},{t:.1f},{t:.1f},{o_col * EDGE_KM},{o_row * EDGE_KM},"
                f"{d_col * EDGE_KM},{d_row * EDGE_KM},{passengers}"
            )
            rid += 1

    price_rows = ["hour,price_cents_per_kwh"] + [
        f"{hour},{PRICES[hour]}" for hour in range(24)
    ]

    config = {
        "nodes": "nodes.csv",
        "network": "network.csv",
        "stations": "stations.csv",
        "regions": "regions.csv",
        "trips": "trips.csv",
        "prices": "prices.csv",
        "fleet_size": fleet,
        "slots": T,
        "start_hour": START_HOUR,
        "seed": 1,
        "trip_filter_km": 2.0,
        "mode": "both",
    }

    files = {
        "nodes.csv": nodes_rows,
        "network.csv": edge_rows,
        "stations.csv": station_rows,
        "regions.csv": region_rows,
        "trips.csv": trip_rows,
        "prices.csv": price_rows,
    }
    for name, rows in files.items():
        with open(os.path.join(out_dir, name), "w") as handle:
            handle.write("\n".join(rows) + "\n")
    with open(os.path.join(out_dir, "config.json"), "w") as handle:
        json.dump(config, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out_dir}: {rid - 1} trips")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", nargs="?", default="scenarios/manhattan-mini")
    parser.add_argument("--fleet", type=int, default=N_FLEET, help="vehicles")
    parser.add_argument("--trips", type=int, default=N_TRIPS, help="trip requests")
    args = parser.parse_args()
    if args.fleet < 1 or args.trips < 1:
        parser.error("--fleet and --trips must be at least 1")
    main(args.out_dir, fleet=args.fleet, trips=args.trips)
