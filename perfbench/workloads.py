"""Benchmark workloads: what one run feeds the program, made from its seed.

A run repeats one pool of operations: one day of the bundled scenario
per scheme, plus ``solve-vi`` game instances and ``plan-charging``
day-ahead inputs.  The same seed always yields the same pool.  Repeating
the pool lets the benchmark keep the fastest time of each piece of an
operation, which filters out the slow phases of a shared host.

``mini`` replays the slot games and day-ahead programs that days of its
scenario solve, captured from one run of each of several days.
``solvers`` generates its instances from a fixed design
(``generated_instances``).  On both, the seed only orders the pool.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import sys
from dataclasses import dataclass

import scenario_gen

BUNDLED = os.path.join("scenarios", "manhattan-mini", "config.json")

R_KWH = 5.625           # default per-slot charge of one vehicle
C_KWH = 45.0            # default battery capacity
SLOT_KWH = 9.0          # default worst-case driving energy in one slot
LEVELS = 10             # levels per size factor of the instance design
GROUPS = (2, 20)        # generated games: group count,
MEMBERS = (1, 100)      # and vehicles per group
FLEETS = (10, 500)      # generated LPs: vehicles
DESIGN_SEED = "solvers-games"  # contents of the generated games and LPs
# Game 49 of the design with its groups in another order.  The solver
# raises LineSearchError on it, while the design's own order converges:
# the order of the floating-point sums decides.  ``solvers`` always
# includes it, so that an instance that raises is counted on every run
# (the reproducer the plan quotes no longer raises).
LINE_SEARCH_FAILURE = {
    "m": [2, 1, 3, 1, 2, 1, 5, 2, 2, 3, 2, 2, 1, 2, 1, 3, 2, 2, 3, 2],
    "d": [2, 1, 2, 0, 0, 1, 3, 0, 0, 2, 1, 0, 0, 0, 0, 3, 1, 2, 2, 0],
    "e_plus": 8.8563,
    "price": 1.6588,
}
# Fleet seeds whose slot games and day-ahead programs mini replays.  They
# are fixed: the dozen games of four days of a seed's own fleets put the
# p90 of game_ms anywhere from 3.2 to 5.0 ms between seeds.
CAPTURE_SEEDS = tuple(range(1, 9))
# The fleet seed of the measured days, whatever the run's seed: fleet seed
# 1 is the behaviour baseline.  One day per scheme, because a day needs
# about 40 repeats before the sum of its fastest pieces settles, and a run
# holds 40 repeats of one pair.  Drawn per seed, the median jtcs day of
# three fleets also moved by 9% (interquartile range) from the fleets
# alone.
DAY_FLEET_SEED = 1
# The day ``solvers`` runs: the bundled grid with a quarter of its fleet
# and trips, 0.17 s a pair against 0.85 s.  With the bundled day, the
# games left time for only about 12 repeats of the pair, and over ten
# seeds jtcs_day_s spread 0.22 and slot_ms.p50 0.26.
SMALL_DAY = scenario_gen.GridSpec(fleet=5, trips=50)


@dataclass(frozen=True)
class Workload:
    """``games``/``lps`` of 0 replay the slot games and day-ahead
    programs of the CAPTURE_SEEDS days; otherwise that many instances are
    generated.  ``setup_from`` names the operations whose set-up time is
    ``setup_s``.  ``day`` is the scenario of the days, generated, or the
    bundled one when None; each day runs ``day_reps`` times a round."""

    name: str
    why: str
    setup_from: tuple[str, ...]
    games: int = 0
    lps: int = 0
    day: scenario_gen.GridSpec | None = None
    day_reps: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mini",
            why="bundled 12x5 scenario, 20 vehicles, short plans: "
                "snapshot/restore deepcopy is the largest layer; insertion "
                "and Dijkstra are light",
            setup_from=("day",),
        ),
        Workload(
            name="solvers",
            why="solve-vi games of 2-20 groups of 1-100 vehicles (an "
                "ill-conditioned tail) and T=24 LPs: the solvers are under 1% "
                "of a day, so only here can their changes show",
            setup_from=("game", "lp"),
            games=50,
            lps=30,
            day=SMALL_DAY,
            day_reps=4,
        ),
    )
}


@dataclass
class DayOp:
    config: str
    mode: str
    fleet_seed: int
    out_dir: str

    kind = "day"

    def argv(self) -> list[str]:
        return ["run", "--config", self.config, "--mode", self.mode,
                "--seed", str(self.fleet_seed), "--out", self.out_dir]


@dataclass
class GameOp:
    path: str
    doc: dict

    kind = "game"

    def argv(self) -> list[str]:
        return ["solve-vi", "--instance", self.path]


@dataclass
class LpOp:
    path: str
    doc: dict

    kind = "lp"

    def argv(self) -> list[str]:
        return ["plan-charging", "--inputs", self.path]


def _log_level(lo: int, hi: int, level: int) -> int:
    """The level-th of LEVELS log-spaced values from lo to hi."""
    return int(round(lo * (hi / lo) ** (level / (LEVELS - 1))))


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return int(round(lo * (hi / lo) ** rng.random()))


def game_instance(rng: random.Random, n: int, lo: int, top: int) -> dict:
    """A feasible slot game with n groups from ``lo`` up to ``top`` members:
    demand never exceeds members, and the charging demand fits what the
    non-demanded members can absorb.  The ratio of largest to smallest
    group sets the conditioning, so wide ranges give an ill-conditioned
    tail."""
    m = [top, lo][:n] + [_log_uniform(rng, lo, top) for _ in range(n - 2)]
    d = [rng.randint(0, mi) for mi in m]
    cap = R_KWH * (sum(m) - sum(d))
    return {
        "m": m,
        "d": d,
        "e_plus": round(rng.uniform(0.0, cap), 4),
        "price": round(rng.uniform(1.0, 10.0), 4),
    }


def lp_instance(rng: random.Random, J: int) -> dict:
    """A feasible T=24 day-ahead program for J vehicles: at most half the
    fleet transports, and each transporting vehicle burns well under what
    the rest can recharge."""
    counts = [rng.randint(0, J // 2) for _ in range(24)]
    consumed = [round(c * rng.uniform(0.2, 0.8) * SLOT_KWH, 4) for c in counts]
    prices = [round(p, 4) for p in (rng.uniform(1.5, 9.0) for _ in range(24))]
    return {
        "consumed": consumed,
        "demand_counts": counts,
        "prices": prices,
        "e_init": round(rng.uniform(0.6, 0.9) * J * C_KWH, 4),
        "params": {"J": J},
    }


def generated_instances(workload: Workload) -> tuple[list, list]:
    """Game and LP documents: ``workload.games`` designed games plus
    LINE_SEARCH_FAILURE, and ``workload.lps`` LPs.  Game sizes follow a
    factorial design: each block of LEVELS games pairs every group-count
    level with a different largest-group level, in a Latin square, so
    every block holds the whole range of both.  Every game also holds a
    group of the smallest size.

    The games come from DESIGN_SEED, the same for every run seed.  Solve
    times have a heavy tail: drawn per seed, the p90 of 100-200 games
    moved by 1.6x to 3.6x between seeds, far beyond any bound a change
    could be held to.  Relabelling a game's groups per seed could flip a
    borderline game between converging and failing, so the failure count
    depended on the seed.  The LPs come from the same design: drawn per
    seed, the p90 of 50 of them moved by up to 20% between seeds.  The
    run's seed orders the pool.
    """
    design = random.Random(DESIGN_SEED)
    games = [
        game_instance(design, _log_level(*GROUPS, i % LEVELS), MEMBERS[0],
                      _log_level(*MEMBERS, (i + i // LEVELS) % LEVELS))
        for i in range(workload.games)
    ] + [dict(LINE_SEARCH_FAILURE)]
    lps = [lp_instance(design, _log_level(*FLEETS, i % LEVELS)) for i in range(workload.lps)]
    return games, lps


def own_instances(config: str, fleet_seeds, out_dir: str) -> tuple[list, list]:
    """The slot games and day-ahead programs that one ``run --mode jtcs``
    of each fleet seed solves, as ``solve-vi``/``plan-charging`` documents.
    The day calls the same solvers with these exact inputs."""
    from pvjtcs import cli, simulator
    from tracer import Patches

    games: list[dict] = []
    lps: dict[str, dict] = {}  # cmd_run plans the day ahead twice

    def on_game(fn):
        def sspm_solve(groups, fset, price, params, *args, **kwargs):
            games.append({
                "m": [g.m for g in groups],
                "d": [g.d for g in groups],
                "d_total": fset.d_total,
                "e_plus": fset.e_plus,
                "r": fset.r,
                "price": price,
                "params": dataclasses.asdict(params),
            })
            return fn(groups, fset, price, params, *args, **kwargs)

        return sspm_solve

    def on_lp(fn):
        def schedule_charging(inputs):
            doc = {
                "consumed": list(inputs.consumed),
                "demand_counts": list(inputs.demand_counts),
                "prices": list(inputs.prices),
                "e_init": inputs.e_init,
                "params": dataclasses.asdict(inputs.params),
                "terminal_reserve_kwh": inputs.terminal_reserve_kwh,
            }
            lps.setdefault(json.dumps(doc, sort_keys=True), doc)
            return fn(inputs)

        return schedule_charging

    patches = Patches()
    patches.patch(simulator, "sspm_solve", on_game)
    patches.patch(simulator, "schedule_charging", on_lp)
    try:
        for fs in fleet_seeds:
            argv = ["run", "--config", config, "--mode", "jtcs", "--seed", str(fs),
                    "--out", out_dir]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(argv)
            except Exception as err:
                # the day fails again, and is counted, when measured
                print(f"capturing the instances of fleet seed {fs}: "
                      f"{type(err).__name__}: {err}", file=sys.stderr)
    finally:
        patches.undo()
    return games, list(lps.values())


def pool(workload: Workload, seed: int, root: str, work: str) -> list:
    """One round of operations, inputs written under ``work``: every
    instance once, in an order drawn from ``seed``, with one ``run`` per
    scheme spread evenly between them.  Every workload runs the days,
    because every workload reports every end-to-end metric."""
    bundled = os.path.join(root, BUNDLED)
    config = bundled
    if workload.day is not None:
        config = scenario_gen.write(workload.day, os.path.join(work, "day"))
    days = [DayOp(config, mode, DAY_FLEET_SEED, os.path.join(work, f"out_{mode}"))
            for mode in ("jtcs", "tgc")]
    if workload.games or workload.lps:
        game_docs, lp_docs = generated_instances(workload)
    else:
        game_docs, lp_docs = own_instances(bundled, CAPTURE_SEEDS, os.path.join(work, "capture"))
    instances = [GameOp(_dump(work, f"game{i}.json", doc), doc)
                 for i, doc in enumerate(game_docs)]
    instances += [LpOp(_dump(work, f"lp{i}.json", doc), doc)
                  for i, doc in enumerate(lp_docs)]
    random.Random(f"{workload.name}:{seed}").shuffle(instances)
    cuts = [len(instances) * i // (len(days) + 1) for i in range(len(days) + 2)]
    ops = []
    for i, day in enumerate(days):
        ops += instances[cuts[i]:cuts[i + 1]] + [day]
    return ops + instances[cuts[-2]:]


def _dump(directory: str, name: str, doc: dict) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return path
