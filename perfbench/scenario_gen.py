"""Seeded grid-scenario generator for the benchmark.

Writes the standard scenario files (nodes, network, stations, regions,
trips, prices, config.json) for a rows x cols street grid split into
latitude-band regions.  With ``GridSpec()`` defaults it reproduces
``scenarios/manhattan-mini`` byte for byte; other specs scale the grid,
the regions, the stations, the fleet and the trips.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

PRICES = {
    0: 2.3, 1: 2.1, 2: 2.0, 3: 1.9, 4: 2.0, 5: 2.2,
    6: 2.8, 7: 3.5, 8: 4.2, 9: 4.8, 10: 4.5, 11: 4.2,
    12: 4.0, 13: 3.8, 14: 3.9, 15: 4.4, 16: 5.8, 17: 7.5,
    18: 8.8, 19: 7.9, 20: 6.0, 21: 4.6, 22: 3.4, 23: 2.7,
}

DEFAULT_ENERGY_RANGE = (32.0, 41.0)  # the simulator's own default
EDGE_KM = 0.5       # length of one grid street
MIN_TRIP_KM = 2.0   # shortest trip kept, as the config's trip filter
START_HOUR = 3      # first slot of the day
SLOTS = 24          # one-hour slots
FLEET_SEED = 1      # the config's seed for fleet positions and energies


@dataclass(frozen=True)
class GridSpec:
    """Scenario shape; the defaults are the bundled manhattan-mini."""

    rows: int = 12
    cols: int = 5
    regions: int = 5
    stations: int = 5
    fleet: int = 20
    trips: int = 200
    seed: int = 20160105  # draws the trips
    energy_range: tuple[float, float] = DEFAULT_ENERGY_RANGE

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid needs at least one row and one column")
        if not 1 <= self.regions <= self.rows:
            raise ValueError("regions are latitude bands: need 1 <= regions <= rows")
        if self.stations < 1:
            raise ValueError("need at least one station")
        reach = EDGE_KM * (self.rows - 1 + self.cols - 1)
        if reach < MIN_TRIP_KM:
            raise ValueError("grid too small for the minimum trip length")


def _region_of(spec: GridSpec, row: int) -> int:
    return min(spec.regions - 1, row * spec.regions // spec.rows)


def _station_nodes(spec: GridSpec) -> list[int]:
    """Stations spread over the bands: the middle row of the band, columns
    spaced evenly when a band holds several."""
    band_rows: dict[int, list[int]] = {}
    for row in range(spec.rows):
        band_rows.setdefault(_region_of(spec, row), []).append(row)
    per_band: dict[int, int] = {}
    for k in range(spec.stations):
        band = k * spec.regions // spec.stations
        per_band[band] = per_band.get(band, 0) + 1
    nodes = []
    for band, count in sorted(per_band.items()):
        rows = band_rows[band]
        row = rows[len(rows) // 2]
        for j in range(count):
            col = (2 * j + 1) * spec.cols // (2 * count)
            nodes.append(row * spec.cols + col)
    return sorted(set(nodes))


def _trip_counts(spec: GridSpec) -> list[int]:
    """Two-peak daily profile (morning ~08:00, heavier evening ~18:00)."""
    weights = []
    for k in range(SLOTS):
        hour = START_HOUR + k  # may run past midnight
        w = 2.0
        w += 8.0 * math.exp(-((hour - 8.0) ** 2) / (2 * 1.5**2))
        w += 10.0 * math.exp(-((hour - 18.0) ** 2) / (2 * 2.0**2))
        weights.append(w)
    total = sum(weights)
    raw = [w / total * spec.trips for w in weights]
    counts = [int(v) for v in raw]
    remainders = sorted(
        range(SLOTS), key=lambda k: (raw[k] - counts[k], -k), reverse=True
    )
    for k in remainders[: spec.trips - sum(counts)]:
        counts[k] += 1
    return counts


def render(spec: GridSpec) -> dict[str, str]:
    """File name -> file content for the whole scenario."""
    rng = random.Random(spec.seed)
    rows, cols, km = spec.rows, spec.cols, EDGE_KM

    nodes_rows = ["id,lon,lat"]
    for row in range(rows):
        for col in range(cols):
            nodes_rows.append(f"{row * cols + col},{col * km},{row * km}")

    edge_rows = ["from_id,to_id,length_km"]
    for row in range(rows):
        for col in range(cols):
            nid = row * cols + col
            if col + 1 < cols:
                edge_rows.append(f"{nid},{nid + 1},{km}")
                edge_rows.append(f"{nid + 1},{nid},{km}")
            if row + 1 < rows:
                edge_rows.append(f"{nid},{nid + cols},{km}")
                edge_rows.append(f"{nid + cols},{nid},{km}")

    station_rows = ["node_id"] + [str(n) for n in _station_nodes(spec)]

    region_rows = ["node_id,region_id"]
    for row in range(rows):
        for col in range(cols):
            region_rows.append(f"{row * cols + col},{_region_of(spec, row)}")

    trip_rows = [
        "id,request_time,earliest_start,origin_lon,origin_lat,"
        "dest_lon,dest_lat,passengers"
    ]
    rid = 1
    for k, count in enumerate(_trip_counts(spec)):
        slot_start = (START_HOUR + k) * 3600
        times = sorted(rng.uniform(0, 3600) for _ in range(count))
        for offset in times:
            while True:
                origin = rng.randrange(rows * cols)
                dest = rng.randrange(rows * cols)
                o_row, o_col = divmod(origin, cols)
                d_row, d_col = divmod(dest, cols)
                if km * (abs(o_row - d_row) + abs(o_col - d_col)) >= MIN_TRIP_KM:
                    break
            passengers = rng.choices([1, 2, 3], weights=[70, 20, 10])[0]
            t = slot_start + offset
            trip_rows.append(
                f"{rid},{t:.1f},{t:.1f},{o_col * km},{o_row * km},"
                f"{d_col * km},{d_row * km},{passengers}"
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
        "fleet_size": spec.fleet,
        "slots": SLOTS,
        "start_hour": START_HOUR,
        "seed": FLEET_SEED,
        "trip_filter_km": MIN_TRIP_KM,
        "mode": "both",
    }
    if tuple(spec.energy_range) != DEFAULT_ENERGY_RANGE:
        config["init_energy_range"] = list(spec.energy_range)

    files = {
        name: "\n".join(lines) + "\n"
        for name, lines in (
            ("nodes.csv", nodes_rows),
            ("network.csv", edge_rows),
            ("stations.csv", station_rows),
            ("regions.csv", region_rows),
            ("trips.csv", trip_rows),
            ("prices.csv", price_rows),
        )
    }
    files["config.json"] = json.dumps(config, indent=2, sort_keys=True) + "\n"
    return files


def write(spec: GridSpec, out_dir: str) -> str:
    """Write the scenario into ``out_dir``; returns the config path."""
    os.makedirs(out_dir, exist_ok=True)
    for name, content in render(spec).items():
        with open(os.path.join(out_dir, name), "w") as handle:
            handle.write(content)
    return os.path.join(out_dir, "config.json")

