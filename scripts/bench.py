#!/usr/bin/env python3
"""Scale series: wall time of ``pvjtcs run --mode both`` per scale and scheme.

For each scale S it generates a scenario with the benchmark's generator
(``perfbench/scenario_gen.py``, as ``make_manhattan_mini.py --fleet 20S
--trips 200S`` does: the bundled 60-node grid, S times the fleet and the
trips) in a temporary directory, and runs ``pvjtcs run --mode both
--seed 1`` on it N times per measured tree.  ``--rows`` and ``--cols`` set
another street grid for every scale (the bundled one is 12 x 5).  Each run
is a child process whose ``PYTHONPATH`` starts with the tree's ``src``, and
it is timed as a whole, in scenario set-up (``build_scenario``: loading the
files, snapping the trips) and per scheme (``run_jtcs`` and ``run_tgc``);
every time kept is the fastest of the N repeats.  The outputs' SHA-256 is
kept too, so two measured versions can be checked to compute the same day.

Several trees given with ``--tree`` are measured in one invocation on the
same generated scenarios, their repeats interleaved and alternating which
tree runs first, so that a slow spell of the host falls on both:

    python3 scripts/bench.py --tree parent=/path/to/parent \\
        --tree change=. --out BENCH.json

Without ``--tree`` the checkout holding this script is measured under the
label ``current``.  The results go to a JSON file under ``runs[<label>]``, next
to the host (CPU count, Python version, machine).  A file that already
exists keeps its other labels; a file from another host is refused.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(REPO, "perfbench"))
from scenario_gen import GridSpec, write  # noqa: E402

BASE_FLEET, BASE_TRIPS = GridSpec.fleet, GridSpec.trips
OUTPUTS = ("summary.json", "slots_jtcs.csv", "slots_tgc.csv", "charging_plan.csv")


def host() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def generate(grid: GridSpec, scale: int, out_dir: str) -> str:
    """Write the scale's scenario on ``grid`` to ``out_dir``; returns its
    config path."""
    scaled = dataclasses.replace(
        grid, fleet=BASE_FLEET * scale, trips=BASE_TRIPS * scale)
    return write(scaled, out_dir)


def run_once(config: str, out_dir: str) -> dict:
    """One ``pvjtcs run --mode both --seed 1`` of the pvjtcs that Python
    imports: wall, set-up and per-scheme seconds."""
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

    saved = cli.build_scenario, cli.run_jtcs, cli.run_tgc
    cli.build_scenario = timed("setup_s", saved[0])
    cli.run_jtcs = timed("jtcs_s", saved[1])
    cli.run_tgc = timed("tgc_s", saved[2])
    gc.collect()
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", "--config", config, "--mode", "both",
                           "--seed", "1", "--out", out_dir])
        wall = time.perf_counter() - t0
    finally:
        cli.build_scenario, cli.run_jtcs, cli.run_tgc = saved
    if rc != 0:
        raise SystemExit(f"pvjtcs run exited {rc} on {config}")
    return {"wall_s": wall, **times}


def run_child(tree: str, config: str, out_dir: str) -> dict:
    """``run_once`` in a child process that imports pvjtcs from ``tree``."""
    src = os.path.realpath(os.path.join(tree, "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--run-once", config, out_dir],
        env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run of {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    package = os.path.realpath(result.pop("package"))
    if os.path.commonpath([package, src]) != src:
        raise SystemExit(f"run of {tree} imported pvjtcs from {package}")
    return result


def outputs_digest(out_dir: str) -> str:
    digest = hashlib.sha256()
    for name in OUTPUTS:
        with open(os.path.join(out_dir, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def measure(
    trees: dict[str, str], grid: GridSpec, scales: list[int], repeats: int
) -> dict:
    """Per label, per scale on ``grid``: the fastest times and the outputs'
    digest.  Repeat r runs the trees in the given order when r is even and
    in reverse when it is odd."""
    results: dict[str, dict] = {label: {} for label in trees}
    labels = list(trees)
    with tempfile.TemporaryDirectory() as tmp:
        for scale in scales:
            config = generate(grid, scale, os.path.join(tmp, f"scen{scale}"))
            runs: dict[str, list[dict]] = {label: [] for label in labels}
            for r in range(repeats):
                for label in labels if r % 2 == 0 else labels[::-1]:
                    out_dir = os.path.join(tmp, f"out{scale}-{label}")
                    runs[label].append(run_child(trees[label], config, out_dir))
            for label in labels:
                best = {key: round(min(run[key] for run in runs[label]), 4)
                        for key in runs[label][0]}
                results[label][f"{scale}x"] = {
                    "rows": grid.rows,
                    "cols": grid.cols,
                    "fleet": BASE_FLEET * scale,
                    "trips": BASE_TRIPS * scale,
                    **best,
                    "outputs_sha256": outputs_digest(
                        os.path.join(tmp, f"out{scale}-{label}")),
                }
                print(f"{scale}x {label}: " + ", ".join(
                    f"{k} {v}" for k, v in best.items()), file=sys.stderr)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scales", type=int, nargs="+", default=[1, 5, 10, 20])
    parser.add_argument("--repeats", type=int, default=3, help="best of N")
    parser.add_argument("--rows", type=int, default=GridSpec.rows,
                        help="street grid rows")
    parser.add_argument("--cols", type=int, default=GridSpec.cols,
                        help="street grid columns")
    parser.add_argument("--tree", action="append", metavar="LABEL=DIR",
                        help="measure the pvjtcs in DIR/src under LABEL; "
                             "repeat to interleave trees")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--run-once", nargs=2, metavar=("CONFIG", "OUT_DIR"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_once:
        from pvjtcs import cli

        print(json.dumps({**run_once(*args.run_once), "package": cli.__file__}))
        return 0
    if args.out is None:
        parser.error("--out is required")
    if args.repeats < 1 or min(args.scales) < 1:
        parser.error("--repeats and every scale must be >= 1")
    try:
        grid = GridSpec(rows=args.rows, cols=args.cols)
    except ValueError as err:
        parser.error(f"--rows {args.rows} --cols {args.cols}: {err}")
    trees: dict[str, str] = {}
    for spec in args.tree or [f"current={REPO}"]:
        label, sep, tree = spec.partition("=")
        if not (label and sep and tree) or label in trees:
            parser.error(f"--tree {spec!r}: want a new LABEL=DIR")
        trees[label] = tree

    doc = {"command": "pvjtcs run --mode both --seed 1", "host": host(), "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            old = json.load(handle)
        if old.get("host") != doc["host"]:
            raise SystemExit(f"{args.out} was measured on another host: {old.get('host')}")
        doc["runs"] = old.get("runs", {})
    for label, scales in measure(trees, grid, args.scales, args.repeats).items():
        doc["runs"][label] = {
            "repeats": args.repeats,
            "interleaved_with": sorted(set(trees) - {label}),
            "scales": scales,
        }
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
