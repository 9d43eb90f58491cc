#!/usr/bin/env python3
"""Scale series: wall time of ``pvjtcs run --mode both`` per scale and scheme.

For each scale S it generates a scenario with the benchmark's generator
(``perfbench/scenario_gen.py``, as ``make_manhattan_mini.py --fleet 20S
--trips 200S`` does: the bundled 60-node grid, S times the fleet and the
trips) in a temporary directory, and runs ``pvjtcs run --mode both
--seed 1`` on it in this process, N times.  Each run is timed as a whole
and per scheme (``run_jtcs`` and ``run_tgc``); every time kept is the
fastest of the N repeats.  The outputs' SHA-256 is kept too, so two
measured versions can be checked to compute the same day.

The results go to a JSON file under ``runs[<label>]``, next to the host
(CPU count, Python version, machine).  A file that already exists keeps
its other labels, so one file can hold a parent and a change measured on
the same host; a file from another host is refused.  The pvjtcs package
measured is whichever one Python imports:

    PYTHONPATH=src python3 scripts/bench.py --label change --out BENCH.json
    PYTHONPATH=/path/to/parent/src python3 scripts/bench.py \\
        --label parent --out BENCH.json
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import time

sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "perfbench"))
from scenario_gen import GridSpec, write  # noqa: E402

BASE_FLEET, BASE_TRIPS = GridSpec.fleet, GridSpec.trips
OUTPUTS = ("summary.json", "slots_jtcs.csv", "slots_tgc.csv", "charging_plan.csv")


def host() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def generate(scale: int, out_dir: str) -> str:
    """Write the scale's scenario to ``out_dir``; returns its config path."""
    return write(GridSpec(fleet=BASE_FLEET * scale, trips=BASE_TRIPS * scale), out_dir)


def run_once(config: str, out_dir: str) -> dict:
    """One ``pvjtcs run --mode both --seed 1``: wall and per-scheme seconds."""
    from pvjtcs import cli

    times: dict[str, float] = {}

    def timed(key, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[key] = time.perf_counter() - t0

        return wrapper

    saved = cli.run_jtcs, cli.run_tgc
    cli.run_jtcs = timed("jtcs_s", saved[0])
    cli.run_tgc = timed("tgc_s", saved[1])
    gc.collect()
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", "--config", config, "--mode", "both",
                           "--seed", "1", "--out", out_dir])
        wall = time.perf_counter() - t0
    finally:
        cli.run_jtcs, cli.run_tgc = saved
    if rc != 0:
        raise SystemExit(f"pvjtcs run exited {rc} on {config}")
    return {"wall_s": wall, **times}


def outputs_digest(out_dir: str) -> str:
    digest = hashlib.sha256()
    for name in OUTPUTS:
        with open(os.path.join(out_dir, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def measure(scales: list[int], repeats: int) -> dict:
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scale in scales:
            config = generate(scale, os.path.join(tmp, f"scen{scale}"))
            out_dir = os.path.join(tmp, f"out{scale}")
            runs = [run_once(config, out_dir) for _ in range(repeats)]
            best = {key: round(min(r[key] for r in runs), 4) for key in runs[0]}
            results[f"{scale}x"] = {
                "fleet": BASE_FLEET * scale,
                "trips": BASE_TRIPS * scale,
                **best,
                "outputs_sha256": outputs_digest(out_dir),
            }
            print(f"{scale}x: " + ", ".join(
                f"{k} {v}" for k, v in best.items()), file=sys.stderr)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scales", type=int, nargs="+", default=[1, 5, 10, 20])
    parser.add_argument("--repeats", type=int, default=3, help="best of N")
    parser.add_argument("--label", default="current")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.scales) < 1:
        parser.error("--repeats and every scale must be >= 1")

    doc = {"command": "pvjtcs run --mode both --seed 1", "host": host(), "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            old = json.load(handle)
        if old.get("host") != doc["host"]:
            raise SystemExit(f"{args.out} was measured on another host: {old.get('host')}")
        doc["runs"] = old.get("runs", {})
    doc["runs"][args.label] = {
        "repeats": args.repeats,
        "scales": measure(args.scales, args.repeats),
    }
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
