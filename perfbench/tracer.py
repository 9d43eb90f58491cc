"""Wrappers installed from outside ``src/``: untraced probes and the tracer.

Both patch module attributes of the program at run time and restore them
afterwards.  A name imported into another module is patched where it is
called (``transport_scheduler.shortest_path``, ``simulator.sspm_solve``),
because patching the defining module would not reach that caller.

``Probe`` keeps only what the end-to-end metrics need: timestamps at
fixed points of each operation (set-up, slots, solver calls and
iterations, writes), and the trip count the output checks compare
against.  ``Tracer`` additionally records a span (name, start, end,
parent) at each coarse layer boundary and aggregated counters for the hot
leaves, and computes each layer's self time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from pvjtcs import (
    charging_scheduler,
    cli,
    io_files,
    network,
    simplex,
    simulator,
    transport_scheduler,
    vi_solver,
)

perf = time.perf_counter


class Patches:
    """Module-attribute patches that can be undone; a target that no longer
    exists (renamed by a later change) is recorded instead of raising."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def patch(self, owner, attr: str, make) -> bool:
        original = getattr(owner, attr, None)
        if original is None or not callable(original):
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Probe:
    """Untraced hooks that timestamp fixed points of every operation.

    The marks split an operation into pieces of at most a few
    milliseconds: set-up (``build_scenario``), each executed day-loop slot,
    each dry-run slot of the day-ahead plan, each solver call, each
    iteration of the game solver, each simplex pivot and each output
    write.  A deterministic operation passes the same marks in the same
    order on every repeat, which lets the benchmark take the fastest time
    of each piece (``run.Fastest``).  The probe also keeps the trip count the
    output checks compare against.
    """

    def __init__(self):
        self.patches = Patches()
        self.marks: list[tuple[str, float]] = []
        self.n_trips: int | None = None
        self._slot_open = False

    def install(self) -> None:
        patch = self.patches.patch
        patch(cli, "build_scenario", self._timed_build)
        # solve-vi and plan-charging reach their solver
        for name in ("sspm_solve", "schedule_charging"):
            patch(cli, name, self._marker("solver"))
        # a jtcs slot starts with its group census, a tgc slot with its
        # eligibility filter; both end once the slot's metrics are recorded.
        # The day-ahead dry run calls none of these.
        for name in ("group_census", "eligibility_filter"):
            patch(simulator, name, self._slot_start)
        patch(simulator, "_slot_metrics", self._slot_end)
        patch(simulator, "sspm_solve", self._marker("game"))
        patch(simulator, "schedule_charging", self._marker("lp"))
        engine = transport_scheduler.FleetEngine
        patch(engine, "run_slot", self._marker("run_slot"))
        patch(engine, "dry_run_demand", self._marker("dry_run"))
        patch(io_files, "atomic_write", self._marker("write"))
        # once per iteration of the game solver (slow games run thousands)
        # and per simplex pivot
        patch(vi_solver, "_intersection_core", self._marker("iteration"))
        patch(simplex, "_pivot", self._marker("pivot"))

    def uninstall(self) -> None:
        self.patches.undo()

    def begin_op(self) -> None:
        self.marks = []
        self.n_trips = None
        self._slot_open = False

    def _marker(self, label: str):
        def make(fn):
            @functools.wraps(fn)
            def marked(*args, **kwargs):
                self.marks.append((label, perf()))
                return fn(*args, **kwargs)

            return marked

        return make

    def _timed_build(self, fn):
        @functools.wraps(fn)
        def build_scenario(*args, **kwargs):
            self.marks.append(("build", perf()))
            scenario = fn(*args, **kwargs)
            self.marks.append(("built", perf()))
            self.n_trips = len(scenario.requests)
            return scenario

        return build_scenario

    def _slot_start(self, fn):
        @functools.wraps(fn)
        def slot_start(*args, **kwargs):
            if not self._slot_open:
                self._slot_open = True
                self.marks.append(("slot", perf()))
            return fn(*args, **kwargs)

        return slot_start

    def _slot_end(self, fn):
        @functools.wraps(fn)
        def slot_end(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._slot_open:
                self._slot_open = False
                self.marks.append(("slot_end", perf()))
            return out

        return slot_end


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Spans at coarse boundaries, counters at hot leaves, self time per layer.

    Every wrapped call pushes a frame that accumulates the inclusive time of
    the wrapped calls beneath it; its self time is its duration minus that.
    Summing self time by defining module gives the per-layer split, and the
    time of the traced operations outside any wrapped call is reported as
    unattributed, so the parts add up to the traced wall time.
    """

    def __init__(self):
        self.patches = Patches()
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.layer_of: dict[str, str] = {}
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.top_level_s = 0.0  # inclusive time of calls with no wrapped caller
        self._stack: list[list] = []  # [child_seconds, span_id]
        self._next_id = 0

    # -- installation ---------------------------------------------------

    def wrap(self, owner, attr: str, name: str, span: bool = True,
             before=None, after=None, failed=None) -> None:
        if self.patches.patch(
            owner, attr, lambda fn: self._wrapper(fn, name, span, before, after, failed)
        ):
            self.layer_of[name] = name.split(".", 1)[0]

    def _wrapper(self, fn, name, span, before, after, failed):
        stack = self._stack
        stat = self.stats[name]
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1] if stack else None
            frame = [0.0, None]
            if span:
                frame[1] = self._next_id
                self._next_id += 1
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if failed is not None:
                    failed()
                raise
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - frame[0]
                if parent is not None:
                    parent[0] += dt
                else:
                    self.top_level_s += dt
                if span:
                    spans.append(
                        (frame[1], name, t0, t1, parent[1] if parent else None)
                    )
            if after is not None:
                after(out, args, kwargs)
            return out

        return traced

    def install(self) -> None:
        c = self.counters
        ts = transport_scheduler

        def count(key, amount=1.0):
            c[key] += amount

        # cli: the command handlers are looked up when the parser is built
        for attr in ("cmd_run", "cmd_solve_vi", "cmd_plan_charging", "build_scenario"):
            self.wrap(cli, attr, f"cli.{attr}")

        # io_files
        for attr in ("load_network", "load_stations", "load_regions",
                     "load_trips", "load_prices"):
            self.wrap(io_files, attr, f"io_files.{attr}")
        self.wrap(io_files, "nearest_node", "io_files.nearest_node", span=False)
        self.wrap(io_files, "atomic_write", "io_files.atomic_write")

        # simulator
        for attr in ("run_jtcs", "run_tgc", "plan_day_ahead"):
            self.wrap(cli, attr, f"simulator.{attr}")
        self.wrap(simulator, "plan_day_ahead", "simulator.plan_day_ahead")
        self.wrap(simulator, "infinite_energy_dry_run",
                  "simulator.infinite_energy_dry_run")

        # charging_scheduler / simplex
        for owner in (simulator, cli):
            self.wrap(owner, "schedule_charging", "charging_scheduler.schedule_charging")
        self.wrap(charging_scheduler, "solve_lp", "simplex.solve_lp",
                  after=lambda sol, a, k: count("lp.pivots", sol.iterations))

        # vi_solver
        def game_done(result, args, kwargs):
            _, trace = result
            count("game.iterations", len(trace))
            count("game.backtracks", sum(trace.zetas))
            count("game.projections", sum(trace.projection_calls))

        def game_failed():
            count("game.failures")

        for owner in (simulator, cli):
            self.wrap(owner, "sspm_solve", "vi_solver.sspm_solve",
                      after=game_done, failed=game_failed)
        def kkt_after(report, args, kwargs):
            c["kkt.worst_max"] = max(c["kkt.worst_max"], report.worst())

        self.wrap(cli, "kkt_verify", "vi_solver.kkt_verify", after=kkt_after)

        # transport_scheduler
        engine = ts.FleetEngine
        for attr in ("run_slot", "dry_run_demand", "snapshot", "restore"):
            self.wrap(engine, attr, f"transport_scheduler.{attr}")
        self.wrap(ts, "fingerprint", "transport_scheduler.fingerprint", span=False)

        def assign_before(args, kwargs):
            count("transport.offered", len(args[0]))

        self.wrap(ts, "pci_assign", "transport_scheduler.pci_assign",
                  before=assign_before,
                  after=lambda out, a, k: count("transport.assigned", len(out[0])))

        def insertion_before(args, kwargs):
            c["transport.plan_stops"] += len(args[0].plan.stops)

        def insertion_after(out, args, kwargs):
            if out is not None:
                count("transport.feasible")

        self.wrap(ts, "insertion_cost", "transport_scheduler.insertion_cost",
                  span=False, before=insertion_before, after=insertion_after)

        # network: hot leaves, counted only
        for owner in (ts, io_files):
            self.wrap(owner, "shortest_path", "network.shortest_path", span=False)
        self.wrap(ts, "nearest_station", "network.nearest_station", span=False)

        def dijkstra_before(args, kwargs):
            graph, source = args[0], args[1]
            cache = getattr(graph, "_sp_cache", None)
            if cache is None:
                self.patches.missing.add("network.RoadGraph._sp_cache")
            elif source not in cache:
                count("network.dijkstra_runs")

        self.wrap(network.RoadGraph, "single_source", "network.single_source",
                  span=False, before=dijkstra_before)

    def uninstall(self) -> None:
        self.patches.undo()

    # -- results -----------------------------------------------------------

    def self_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, stat in self.stats.items():
            out[self.layer_of[name]] += stat.self_s
        return dict(out)
