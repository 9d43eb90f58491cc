#!/usr/bin/env python3
"""Day-loop and solver benchmark for pvjtcs.

    python3 perfbench/run.py --workload mini --seed 1 --seconds 20 --trace 0

Run from the repository root.  A single process drives the program only
through its command line, in-process (``cli.main([...])`` with stdout
captured), closed loop and sequentially: ``run --mode jtcs``, ``run --mode
tgc``, ``solve-vi`` and ``plan-charging``.  Every operation's output is
checked; an operation that raises, exits non-zero or fails a check in any
of its repeats counts once as failed, and its time still counts in its
latency sample.

The workload (``perfbench/workloads.py``) is a pool of operations made from
``--seed``.  ``--trace 0`` runs it in rounds for ``--seconds`` (the first
round always completes).  Probe marks split each operation into pieces of
a few milliseconds; an operation's time is the sum of the fastest time of
each piece over its repeats, and the end-to-end metrics are taken across
operations.  ``--trace 1`` runs the pool once
untraced, then traced (wrappers from ``perfbench/tracer.py``) until
``--seconds`` is spent, and reports per-layer metrics per traced pass.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The lines before it repeat the metrics with their sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import logging
import os
import random
import resource
import shutil
import statistics
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
perf = time.perf_counter


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


class Outcome:
    """One execution of an operation."""

    __slots__ = ("op", "elapsed", "setup_s", "slot_s", "rc", "error", "problems", "stdout")

    def __init__(self, op):
        self.op = op
        self.elapsed = 0.0
        self.setup_s: float | None = None
        self.slot_s: list[float] = []
        self.rc: int | None = None
        self.error: str | None = None
        self.problems: list[str] = []
        self.stdout = ""

    @property
    def failed(self) -> bool:
        return self.rc != 0 or self.error is not None or bool(self.problems)


class Fastest:
    """The fastest time of each piece of one operation over its repeats.

    The probe's marks, bracketed by ``begin`` and ``end``, split an
    execution into pieces: piece i runs from mark i to mark i+1.  Repeats
    are folded by their sequence of mark labels; the program is
    deterministic, so all repeats should share one."""

    def __init__(self):
        self.by_labels: dict[tuple[str, ...], list] = {}  # labels -> [repeats, minima]

    def add(self, labels: tuple[str, ...], pieces: list[float]) -> None:
        seen = self.by_labels.get(labels)
        if seen is None:
            self.by_labels[labels] = [1, pieces]
        else:
            seen[0] += 1
            seen[1] = list(map(min, seen[1], pieces))

    def times(self) -> tuple[tuple[str, ...], list[float]]:
        """The minima of the label sequence most repeats passed."""
        labels, (_, minima) = max(self.by_labels.items(), key=lambda kv: kv[1][0])
        return labels, minima


class Runner:
    """Executes operations through ``cli.main`` and checks their outputs."""

    def __init__(self, probe):
        from pvjtcs import cli

        self.main = cli.main
        self.probe = probe
        self.log = io.StringIO()
        handler = logging.StreamHandler(self.log)
        handler.setLevel(logging.WARNING)
        # cli.main calls logging.basicConfig, a no-op once root has a handler
        logging.getLogger().addHandler(handler)
        self.outcomes: list[Outcome] = []
        self.fastest: dict[int, Fastest] = {}  # id(op) -> its pieces
        self.reported = 0

    def execute(self, op) -> Outcome:
        out = Outcome(op)
        if op.kind == "day":
            shutil.rmtree(op.out_dir, ignore_errors=True)
        probe = self.probe
        probe.begin_op()
        # every operation starts with no garbage and with everything alive
        # frozen (out of the collector's scans), so neither earlier
        # operations nor the benchmark's own records change the cost or the
        # place of the collections inside it, as in a fresh process
        gc.collect()
        gc.freeze()
        self.log.seek(0)
        self.log.truncate()
        buf = io.StringIO()
        t0 = perf()
        try:
            with contextlib.redirect_stdout(buf):
                out.rc = self.main(op.argv())
        except Exception as err:  # an uncaught exception is a failed operation
            out.error = f"{type(err).__name__}: {err}"
        t1 = perf()
        out.elapsed = t1 - t0
        out.stdout = buf.getvalue()
        marks = [("begin", t0)] + probe.marks + [("end", t1)]
        labels = tuple(label for label, _ in marks)
        pieces = [b[1] - a[1] for a, b in zip(marks, marks[1:])]
        out.setup_s = setup_of(labels, pieces)
        out.slot_s = slots_of(labels, pieces)
        self.fastest.setdefault(id(op), Fastest()).add(labels, pieces)
        if out.rc == 0 and out.error is None:
            if op.kind == "day":
                out.problems = checks.check_run(op.out_dir, op.mode, probe.n_trips)
            elif op.kind == "game":
                out.problems = checks.check_game(out.stdout)
            else:
                out.problems = checks.check_lp(out.stdout, op.doc)
        if out.failed and self.reported < 5:
            self.reported += 1
            why = out.error or "; ".join(out.problems) or f"exit code {out.rc}"
            log_tail = self.log.getvalue().strip().splitlines()[-1:]
            print(f"failed {' '.join(op.argv()[:3])}: {why} {log_tail}", file=sys.stderr)
        self.outcomes.append(out)
        return out


# -- end-to-end metrics -------------------------------------------------------

E2E_UNITS = {
    "setup_s": "s",
    "jtcs_day_s": "s",
    "tgc_day_s": "s",
    "slot_ms.p50": "ms",
    "slot_ms.p75": "ms",
    "game_ms.p50": "ms",
    "game_ms.p90": "ms",
    "lp_ms.p50": "ms",
    "lp_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

# After a first round of every operation, later rounds repeat an instance
# that took under REPEAT_S up to MAX_REPS times, so that short instances
# collect many samples without lengthening the round much.  An instance
# that took over ONCE_S runs only in the first round: on ``solvers`` this
# is the slowest game (2.4 s), far above the p90 game (about 0.2 s), so
# only its rank counts, and repeating it took a third of every round.
# Days repeat as the workload says.
REPEAT_S = 0.05
MAX_REPS = 4
ONCE_S = 1.0


def setup_of(labels, pieces) -> float | None:
    """Set-up time: ``build_scenario`` for a day, everything before the
    solver call for an instance."""
    if "build" in labels and "built" in labels:
        return sum(pieces[labels.index("build"):labels.index("built")])
    if "solver" in labels:
        return sum(pieces[:labels.index("solver")])
    return None


def slots_of(labels, pieces) -> list[float]:
    """Each executed day-loop slot, from its start mark to its end mark."""
    out, start = [], None
    for i, label in enumerate(labels):
        if label == "slot":
            start = i
        elif label == "slot_end" and start is not None:
            out.append(sum(pieces[start:i]))
            start = None
    return out


def distinct(outcomes: list[Outcome]) -> list[list[Outcome]]:
    """Outcomes grouped by operation, in the order first executed."""
    groups: dict[int, list[Outcome]] = {}
    for o in outcomes:
        groups.setdefault(id(o.op), []).append(o)
    return list(groups.values())


def end_to_end(runner: Runner, setup_from: tuple[str, ...]
               ) -> dict[str, tuple[float, int]]:
    """name -> (value, distinct operations behind it).

    Each distinct operation's time is the sum of the fastest times of its
    pieces over its repeats (``Fastest``); medians and percentiles are
    then taken across operations.  ``setup_s`` comes from the operations
    of the kinds in ``setup_from``.
    """
    setup, slots = [], []
    days = {"jtcs": [], "tgc": []}
    latency = {"game": [], "lp": []}
    for group in distinct(runner.outcomes):
        op = group[0].op
        labels, pieces = runner.fastest[id(op)].times()
        total = sum(pieces)
        setup_s = setup_of(labels, pieces)
        if setup_s is not None and op.kind in setup_from:
            setup.append(setup_s)
        if op.kind != "day":
            latency[op.kind].append(total * 1e3)
            continue
        days[op.mode].append(total - (setup_s or 0.0))
        slots.extend(s * 1e3 for s in slots_of(labels, pieces))
    out: dict[str, tuple[float, int]] = {}
    if setup:
        out["setup_s"] = (statistics.median(setup), len(setup))
    for mode, data in days.items():
        if data:
            out[f"{mode}_day_s"] = (statistics.median(data), len(data))
    for name, data, qs in (("slot_ms", slots, (0.5, 0.75)),
                           ("game_ms", latency["game"], (0.5, 0.9)),
                           ("lp_ms", latency["lp"], (0.5, 0.9))):
        if data:
            for q in qs:
                out[f"{name}.p{round(q * 100)}"] = (quantile(data, q), len(data))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = (rss_kb / 1024.0, 1)
    return out


def measure(runner: Runner, ops: list, seconds: float, rng: random.Random,
            day_reps: int) -> int:
    """Closed loop over rounds until the time is spent; the first round runs
    every operation once and always completes.  Returns the rounds started."""
    start = perf()
    first = [runner.execute(op).elapsed for op in ops]

    def reps(op, t: float) -> int:
        if op.kind == "day":
            return day_reps
        if t > ONCE_S:
            return 0
        return max(1, min(MAX_REPS, int(REPEAT_S / t)))

    schedule = [op for op, t in zip(ops, first) for _ in range(reps(op, t))]
    rng.shuffle(schedule)
    rounds = 1
    while perf() - start < seconds:
        rounds += 1
        for op in schedule:
            if perf() - start >= seconds:
                break
            runner.execute(op)
    return rounds


def failures(outcomes: list[Outcome]) -> tuple[int, int]:
    """(operations attempted, operations failed), counting each distinct
    operation once: it failed if any of its repeats failed."""
    groups = distinct(outcomes)
    return len(groups), sum(any(o.failed for o in g) for g in groups)


# -- traced run ------------------------------------------------------------------

def per_layer(trace, passes: int, wall_s: float, untraced_s: float,
              outcomes: list[Outcome]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced pass; a metric whose wrapped function is
    missing is left out."""
    st = trace.stats
    known = trace.layer_of
    c = trace.counters
    out: dict[str, tuple[float, str]] = {}

    def put(name, unit, value):
        out[name] = (value, unit)

    def calls(fn):
        return st[fn].calls / passes if fn in known else None

    def total(*fns):
        if not all(fn in known for fn in fns):
            return None
        return sum(st[fn].total_s for fn in fns) / passes

    def selfs(fn):
        return st[fn].self_s / passes if fn in known else None

    def ratio(num, den):
        return None if num is None or den is None else (num / den if den else 0.0)

    put("trace.wall_s", "s", wall_s / passes)
    put("trace.untraced_s", "s", untraced_s)
    put("trace.overhead_frac", "ratio", (wall_s / passes - untraced_s) / untraced_s)
    put("trace.passes", "count", passes)
    put("trace.spans", "count", len(trace.spans) / passes)
    layers = trace.self_by_layer()
    for layer in ("cli", "io_files", "simulator", "transport_scheduler", "network",
                  "charging_scheduler", "simplex", "vi_solver"):
        if layer in layers:
            put(f"self_s.{layer}", "s", layers[layer] / passes)
    put("self_s.unattributed", "s", (wall_s - trace.top_level_s) / passes)

    sp, ss = "network.shortest_path", "network.single_source"
    put("network.sp_calls", "count", calls(sp))
    put("network.sp_s", "s", total(sp))
    dijkstra = c["network.dijkstra_runs"] / passes if ss in known else None
    if "network.RoadGraph._sp_cache" in trace.patches.missing:
        dijkstra = None
    put("network.dijkstra_runs", "count", dijkstra)
    hits = ratio(dijkstra, calls(ss))
    put("network.sp_cache_hit_ratio", "ratio", None if hits is None else 1.0 - hits)
    put("network.nearest_station_calls", "count", calls("network.nearest_station"))

    ins = "transport_scheduler.insertion_cost"
    n_ins = calls(ins)
    put("transport.insertion_calls", "count", n_ins)
    put("transport.insertion_self_s", "s", selfs(ins))
    put("transport.insertion_feasible_ratio", "ratio",
        ratio(c["transport.feasible"] / passes, n_ins))
    put("transport.plan_stops_mean", "count",
        ratio(c["transport.plan_stops"] / passes, n_ins))
    put("transport.assign_s", "s", total("transport_scheduler.pci_assign"))
    put("transport.assigned_ratio", "ratio",
        ratio(c["transport.assigned"], c["transport.offered"])
        if "transport_scheduler.pci_assign" in known else None)
    put("transport.run_slot_self_s", "s", selfs("transport_scheduler.run_slot"))
    put("transport.dryruns", "count", calls("transport_scheduler.dry_run_demand"))
    put("transport.dryrun_s", "s", total("transport_scheduler.dry_run_demand"))
    put("transport.snapshot_s", "s", total("transport_scheduler.snapshot"))
    put("transport.restore_s", "s", total("transport_scheduler.restore"))

    put("sim.plan_calls", "count", calls("simulator.plan_day_ahead"))
    put("sim.dayahead_s", "s", total("simulator.plan_day_ahead"))

    lp = "simplex.solve_lp"
    put("lp.calls", "count", calls(lp))
    put("lp.s", "s", total(lp))
    put("lp.pivots", "count", c["lp.pivots"] / passes if lp in known else None)

    game = "vi_solver.sspm_solve"
    put("game.calls", "count", calls(game))
    put("game.s", "s", total(game))
    for key in ("iterations", "backtracks", "projections", "failures"):
        put(f"game.{key}", "count", c[f"game.{key}"] / passes if game in known else None)
    put("kkt.s", "s", total("vi_solver.kkt_verify"))
    put("kkt.worst_max", "ratio",
        c["kkt.worst_max"] if "vi_solver.kkt_verify" in known else None)

    loads = [f"io_files.load_{k}" for k in ("network", "stations", "regions", "trips", "prices")]
    put("io.load_s", "s", total(*loads))
    put("io.write_s", "s", total("io_files.atomic_write"))

    if outcomes:
        attempted, failed = failures(outcomes)
        put("ops.fail_frac", "ratio", failed / attempted)
    return {k: v for k, v in out.items() if v[0] is not None}


def simulated(outcomes: list[Outcome]) -> dict[str, tuple[float, str]]:
    """Simulated statistics of the first day of each scheme and a digest of
    every output of the pass; unchanged code repeats these exactly."""
    out: dict[str, tuple[float, str]] = {}
    digest = hashlib.sha256()
    for o in outcomes:
        digest.update(" ".join(o.op.argv()[:2]).encode())
        stdout = o.stdout.replace(o.op.out_dir, "OUT") if o.op.kind == "day" else o.stdout
        digest.update(stdout.encode())
        digest.update(repr((o.rc, o.error)).encode())
        if o.op.kind != "day" or not os.path.isdir(o.op.out_dir):
            continue
        for name in sorted(os.listdir(o.op.out_dir)):
            with open(os.path.join(o.op.out_dir, name), "rb") as handle:
                digest.update(name.encode() + handle.read())
        path = os.path.join(o.op.out_dir, "summary.json")
        if o.rc != 0 or not os.path.isfile(path) or f"sim.{o.op.mode}_served" in out:
            continue
        with open(path) as handle:
            summary = json.load(handle)[o.op.mode]
        mode = o.op.mode
        out[f"sim.{mode}_served"] = (summary["served"], "count")
        if summary["average_price_cents_per_kwh"] is not None:
            out[f"sim.{mode}_avg_price"] = (summary["average_price_cents_per_kwh"], "cents/kwh")
        if mode == "jtcs":
            out["sim.jtcs_final_kwh"] = (summary["final_fleet_energy_kwh"], "kwh")
            out["sim.game_slots"] = (sum(1 for n in summary["vi_iterations"] if n), "count")
    # 52 bits: exact as a JSON number
    out["sim.output_digest"] = (int(digest.hexdigest()[:13], 16), "hash")
    return out


def write_spans(path: str, spans) -> None:
    """One JSON line per span: id, name, start and end (s), parent id."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        for sid, name, t0, t1, parent in spans:
            handle.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")


def traced_run(runner: Runner, ops: list, seconds: float, spans_path: str):
    import tracer

    reference = [runner.execute(op) for op in ops]
    untraced_s = sum(o.elapsed for o in reference)
    first_outputs = simulated(reference)

    trace = tracer.Tracer()
    trace.install()
    start = perf()
    passes = 0
    wall_s = 0.0
    try:
        while passes == 0 or perf() - start < seconds:
            for op in ops:
                wall_s += runner.execute(op).elapsed
            passes += 1
            if passes == 1:
                first_pass_spans = len(trace.spans)
    finally:
        trace.uninstall()
    write_spans(spans_path, trace.spans[:first_pass_spans])
    if trace.patches.missing:
        print(f"not traced (missing): {sorted(trace.patches.missing)}", file=sys.stderr)
    metrics = per_layer(trace, passes, wall_s, untraced_s, runner.outcomes)
    metrics.update(first_outputs)
    return metrics


# -- entry point ---------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description="pvjtcs day-loop and solver benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if not os.path.isdir(os.path.join(ROOT, "src", "pvjtcs")):
        print(f"pvjtcs sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        import tracer  # imports the program's modules
    except ImportError as err:
        print(f"cannot import pvjtcs: {err}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = os.path.join(HERE, "_work", f"{workload.name}-{os.getpid()}")
    probe = tracer.Probe()
    probe.install()
    runner = Runner(probe)
    try:
        ops = workloads.pool(workload, args.seed, ROOT, work)
        if args.trace:
            spans = os.path.join(HERE, "_work", f"spans-{workload.name}-{args.seed}.jsonl")
            metrics = traced_run(runner, ops, args.seconds, spans)
            samples, rounds = {}, 0
        else:
            rounds = measure(runner, ops, args.seconds,
                             random.Random(f"{workload.name}:{args.seed}:schedule"),
                             workload.day_reps)
            e2e = end_to_end(runner, workload.setup_from)
            metrics = {k: (v, E2E_UNITS[k]) for k, (v, _) in e2e.items()}
            samples = {k: n for k, (_, n) in e2e.items()}
    finally:
        probe.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    outcomes = runner.outcomes
    attempted, failed = failures(outcomes)
    # solve-vi prints its KKT residual rather than guaranteeing it, so a
    # large one fails the operation without marking the outputs incorrect
    correct = not any(o.problems for o in outcomes if o.op.kind != "game")
    for name, (value, unit) in metrics.items():
        n = f"  n={samples[name]}" if name in samples else ""
        print(f"{name:36s} {value:>16.6g} {unit}{n}")
    if rounds:
        print(f"{'rounds':36s} {rounds:>16d} (n: distinct operations, each timed "
              "by the fastest repeat of each of its pieces)")
    print(f"{'ops':36s} {attempted:>16d} attempted, {failed} failed "
          f"({len(outcomes)} executions)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
