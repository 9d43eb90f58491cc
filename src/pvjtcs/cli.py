"""Command-line front end.

``pvjtcs run --config scenario.json`` simulates the joint scheme, the greedy
baseline or both, and writes summary.json, per-slot CSVs and the day-ahead
charging plan.  ``pvjtcs solve-vi`` and ``pvjtcs plan-charging`` expose the
equilibrium solver and the day-ahead program on handwritten JSON instances.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import logging
import math
import os
import sys

import numpy as np

from pvjtcs import io_files
from pvjtcs.charging_scheduler import DayAheadInputs, schedule_charging, write_plan_csv
from pvjtcs.model import FeasibleSet, GameParams, PvGroup, clamp_demand
from pvjtcs.simulator import JTCS, TGC, Scenario, run_jtcs, run_tgc
from pvjtcs.vi_solver import SspmConvergenceError, kkt_verify, sspm_solve

LOG = logging.getLogger("pvjtcs")

CONFIG_DEFAULTS = {
    "nodes": "nodes.csv",
    "network": "network.csv",
    "stations": "stations.csv",
    "regions": "regions.csv",
    "trips": "trips.csv",
    "prices": "prices.csv",
    "fleet_size": 500,
    "slots": 24,
    "start_hour": 3,
    "seed": 1,
    "trip_filter_km": 2.0,
    "mode": "both",
    "batch_minutes": 5.0,
    "init_energy_range": [32.0, 41.0],
    "params": {},
}
# the keys of a ``solve-vi`` instance and of ``plan-charging`` inputs
INSTANCE_KEYS = ("m", "d", "e_plus", "price", "d_total", "r", "params")
INPUTS_KEYS = (
    "consumed", "demand_counts", "prices", "e_init", "terminal_reserve_kwh", "params"
)


def read_object(path: str, kind: str, known) -> dict:
    """The JSON document at ``path``, which must be an object whose keys
    are all ``known``; ``kind`` names the document in errors.  No object in
    it may repeat a key."""

    def unique(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ValueError(f"{path}: repeated key {key!r}")
            doc[key] = value
        return doc

    with open(path) as handle:
        doc = json.load(handle, object_pairs_hook=unique)
    if not isinstance(doc, dict):
        raise ValueError(f"{path} must hold a JSON object, not {type(doc).__name__}")
    unknown = set(doc) - set(known)
    if unknown:
        raise ValueError(f"unknown {kind} keys: {sorted(unknown)}")
    return doc


def load_config(path: str) -> dict:
    raw = read_object(path, "config", CONFIG_DEFAULTS)
    config = dict(CONFIG_DEFAULTS)
    config.update(raw)
    base = os.path.dirname(os.path.abspath(path))
    for key in ("nodes", "network", "stations", "regions", "trips", "prices"):
        if not isinstance(config[key], str):
            raise ValueError(f"config key {key!r} must be a path, not {config[key]!r}")
        if not os.path.isabs(config[key]):
            config[key] = os.path.join(base, config[key])
    return config


def _is_number(value) -> bool:
    """Whether ``value`` is a JSON number: not a string, a boolean or null."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def params_from(doc: dict, **fixed) -> GameParams:
    """``GameParams`` from ``doc``'s ``params`` object, whose keys must be
    ``GameParams`` fields and whose values must be numbers that fit in a
    float; ``fixed`` overrides it."""
    overrides = doc.get("params", {})
    if not isinstance(overrides, dict):
        raise ValueError(
            f"params must be a JSON object, not {type(overrides).__name__}"
        )
    known = {f.name for f in dataclasses.fields(GameParams)}
    unknown = set(overrides) - known
    if unknown:
        raise ValueError(f"unknown parameter overrides: {sorted(unknown)}")
    for key, value in overrides.items():
        if not _is_number(value):
            raise ValueError(f"parameter {key} must be a number, not {value!r}")
        _setting(overrides, "params", key, _number)
    return GameParams(**{**overrides, **fixed})


def _number(value) -> float:
    """``float(value)`` of a JSON number; a string, a boolean or an integer
    too large for a float is an error."""
    if not _is_number(value):
        raise ValueError("not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("too large for a float") from None


def _pair(value) -> tuple[float, float]:
    lo, hi = value
    return _number(lo), _number(hi)


def _whole(value, lo: float = -math.inf, hi: float = math.inf) -> int:
    """``int(value)`` of a JSON number, which must lie in ``lo``-``hi``; a
    fraction is an error, not truncated, and so is an integer too large
    for a float."""
    fraction = isinstance(value, float) and not value.is_integer()
    if not _is_number(value) or fraction:
        raise ValueError("not a whole number")
    _number(value)
    if not lo <= int(value) <= hi:
        bound = f"lie in {lo}-{hi}" if hi < math.inf else f"be at least {lo}"
        raise ValueError(f"must {bound}")
    return int(value)


def _each(convert):
    """``convert`` applied to every entry of a list."""
    return lambda values: [convert(v) for v in values]


def _finite(value) -> float:
    """``_number(value)``; infinity and NaN are errors."""
    number = _number(value)
    if not -math.inf < number < math.inf:
        raise ValueError("not a finite number")
    return number


def _setting(doc: dict, kind: str, key: str, convert, default=None):
    """``convert(doc[key])``, or ``default``, if one is given, when the key
    is absent.  A missing key or a value ``convert`` rejects is an error
    that names the key as a ``kind`` key ("config", "instance", "inputs"
    or "params")."""
    if key not in doc:
        if default is not None:
            return default
        raise ValueError(f"{kind} key {key!r} is missing")
    try:
        return convert(doc[key])
    except (TypeError, ValueError) as err:
        raise ValueError(
            f"{kind} key {key!r} has bad value {doc[key]!r}: {err}"
        ) from None


def build_scenario(config: dict) -> Scenario:
    # every setting is converted before any file is read
    params = params_from(config, J=_setting(config, "config", "fleet_size", _whole))
    if "J" in config["params"]:
        raise ValueError(
            "config key 'params' may not set J: the fleet size is config key "
            "'fleet_size'"
        )
    filter_km = _setting(config, "config", "trip_filter_km", _finite)
    T = _setting(config, "config", "slots", lambda v: _whole(v, 1))
    start_hour = _setting(config, "config", "start_hour", lambda v: _whole(v, 0, 23))
    seed = _setting(config, "config", "seed", _whole)
    batch_minutes = _setting(config, "config", "batch_minutes", _finite)
    init_energy_range = _setting(config, "config", "init_energy_range", _pair)
    graph = io_files.load_network(config["nodes"], config["network"])
    return Scenario(
        graph=graph,
        stations=io_files.load_stations(config["stations"], graph),
        region_map=io_files.load_regions(config["regions"], graph),
        requests=io_files.load_trips(config["trips"], filter_km, graph),
        prices=io_files.load_prices(config["prices"], T, start_hour),
        params=params,
        seed=seed,
        start_epoch=start_hour * 3600.0,
        batch_minutes=batch_minutes,
        init_energy_range=init_energy_range,
    )


def cmd_run(args) -> int:
    config = load_config(args.config)
    if args.mode:
        config["mode"] = args.mode
    if args.seed is not None:
        config["seed"] = args.seed
    if args.dump_config:
        print(json.dumps(config, indent=2, sort_keys=True))
        return 0
    mode = config["mode"]
    if mode not in (JTCS, TGC, "both"):
        raise ValueError(f"unknown mode {mode!r}")

    scenario = build_scenario(config)
    out_dir = args.out
    summaries = {}

    if mode in (JTCS, "both"):
        summary = run_jtcs(scenario)
        summaries[JTCS] = summary
        buf = io.StringIO()
        write_plan_csv(summary.plan, summary.plan_inputs, buf)
        io_files.atomic_write(os.path.join(out_dir, "charging_plan.csv"), buf.getvalue())
    if mode in (TGC, "both"):
        summaries[TGC] = run_tgc(scenario)

    for name, summary in summaries.items():
        io_files.atomic_write(
            os.path.join(out_dir, f"slots_{name}.csv"), io_files.slots_csv(summary)
        )
    io_files.atomic_write(
        os.path.join(out_dir, "summary.json"), io_files.summary_json(summaries)
    )

    for name, summary in summaries.items():
        price = (
            f"{summary.average_price:.3f} cents/kwh"
            if summary.average_price is not None
            else "n/a"
        )
        print(
            f"{name}: charged {summary.total_charged_kwh:.1f} kwh, "
            f"paid {summary.total_payment_cents:.1f} cents, "
            f"average price {price}, served {summary.served}, "
            f"waiting {summary.waiting}"
        )
    if len(summaries) == 2:
        j, g = summaries[JTCS], summaries[TGC]
        if j.average_price and g.average_price:
            rel = 100.0 * (1.0 - j.average_price / g.average_price)
            print(f"joint scheme average energy price is {rel:.2f}% below greedy")
    print(f"outputs written to {out_dir}")
    return 0


def cmd_solve_vi(args) -> int:
    doc = read_object(args.instance, "instance", INSTANCE_KEYS)
    params = params_from(doc)
    m = _setting(doc, "instance", "m", _each(_whole))
    if not m:
        raise ValueError("instance key 'm' must list at least one group")
    d = _setting(doc, "instance", "d", _each(_whole))
    if len(d) != len(m):
        raise ValueError(
            f"d must hold one entry per group: {len(d)} entries for {len(m)} groups"
        )
    groups = [PvGroup(region=i, m=m[i], d=d[i]) for i in range(len(m))]
    price = _setting(doc, "instance", "price", _finite)
    fset = FeasibleSet(
        m=m,
        d_total=_setting(doc, "instance", "d_total", _number, float(sum(d))),
        e_plus=_setting(doc, "instance", "e_plus", _finite),
        r=_setting(doc, "instance", "r", _number, params.r),
    )
    planned = fset.e_plus
    fset = clamp_demand(fset)
    if fset.e_plus != planned:
        LOG.warning("charging demand clamped from %.6g to %.6g", planned, fset.e_plus)
    x, trace = sspm_solve(groups, fset, price, params)
    kkt = kkt_verify(x, groups, fset, price, params)
    print(f"x_star = {np.array2string(x, precision=6)}")
    print(f"iterations = {len(trace)}")
    print(f"final residual = {trace.residual_norms[-1]:.3e}")
    print(f"kkt worst residual = {kkt.worst():.3e}")
    return 0


def cmd_plan_charging(args) -> int:
    doc = read_object(args.inputs, "inputs", INPUTS_KEYS)
    params = params_from(doc)
    reserve = doc.get("terminal_reserve_kwh")  # absent or null: no target
    if reserve is not None:
        reserve = _setting(doc, "inputs", "terminal_reserve_kwh", _number)
    inputs = DayAheadInputs(
        consumed=_setting(doc, "inputs", "consumed", _each(_number)),
        demand_counts=_setting(doc, "inputs", "demand_counts", _each(_whole)),
        prices=_setting(doc, "inputs", "prices", _each(_number)),
        e_init=_setting(doc, "inputs", "e_init", _number),
        params=params,
        terminal_reserve_kwh=reserve,
    )
    plan = schedule_charging(inputs)
    buf = io.StringIO()
    write_plan_csv(plan, inputs, buf)
    print(buf.getvalue(), end="")
    print(f"total cost = {plan.cost:.3f} cents")
    if args.out:
        io_files.atomic_write(args.out, buf.getvalue())
        print(f"plan written to {args.out}")
    return 0


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command line, built once; ``main`` calls ``cmd_<command>``."""
    parser = argparse.ArgumentParser(
        prog="pvjtcs",
        description="Joint transportation and charging scheduling simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario")
    p_run.add_argument("--config", required=True, help="scenario config JSON")
    p_run.add_argument("--mode", choices=[JTCS, TGC, "both"], default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default="pvjtcs_out", help="output directory")
    p_run.add_argument(
        "--dump-config", action="store_true", help="print effective config and exit"
    )

    p_vi = sub.add_parser("solve-vi", help="solve one slot game instance")
    p_vi.add_argument("--instance", required=True, help="instance JSON")

    p_plan = sub.add_parser("plan-charging", help="solve a day-ahead instance")
    p_plan.add_argument("--inputs", required=True, help="inputs JSON")
    p_plan.add_argument("--out", default=None, help="write the plan CSV here")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = make_parser().parse_args(argv)
    # looked up at call time, so a replaced handler is the one called
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (OSError, ValueError, KeyError, SspmConvergenceError) as err:
        LOG.error("%s", err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
