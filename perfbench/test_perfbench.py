"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import csv
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import scenario_gen  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from pvjtcs import cli, transport_scheduler  # noqa: E402

MINI = os.path.join(ROOT, "scenarios", "manhattan-mini")


def test_generator_reproduces_bundled_scenario_byte_for_byte():
    files = scenario_gen.render(scenario_gen.GridSpec())
    assert sorted(files) == sorted(os.listdir(MINI))
    for name, content in files.items():
        with open(os.path.join(MINI, name)) as handle:
            assert handle.read() == content, name


def test_generator_scales_and_is_seeded(tmp_path):
    spec = scenario_gen.GridSpec(rows=30, cols=20, regions=12, stations=6,
                                 fleet=50, trips=200, seed=7, energy_range=(30.0, 40.0))
    files = scenario_gen.render(spec)
    assert files == scenario_gen.render(spec)
    assert files != scenario_gen.render(scenario_gen.GridSpec(
        rows=30, cols=20, regions=12, stations=6, fleet=50, trips=200, seed=8))
    assert len(files["nodes.csv"].splitlines()) == 1 + 600
    assert len(files["trips.csv"].splitlines()) == 1 + 200
    assert len(files["stations.csv"].splitlines()) == 1 + 6
    regions = {line.split(",")[1] for line in files["regions.csv"].splitlines()[1:]}
    assert regions == {str(i) for i in range(12)}
    config = json.loads(files["config.json"])
    assert config["fleet_size"] == 50 and config["init_energy_range"] == [30.0, 40.0]

    # the files load as a scenario through the program's own reader
    scenario = cli.build_scenario(cli.load_config(scenario_gen.write(spec, str(tmp_path))))
    assert len(scenario.requests) > 0 and scenario.params.J == 50


def _runner():
    probe = tracer.Probe()
    probe.install()
    return run.Runner(probe), probe


def test_day_checks_pass_and_catch_a_broken_ledger(tmp_path):
    runner, probe = _runner()
    try:
        op = workloads.DayOp(os.path.join(MINI, "config.json"), "tgc", 1,
                             str(tmp_path / "out"))
        out = runner.execute(op)
    finally:
        probe.uninstall()
    assert not out.failed, out.problems
    assert len(out.slot_s) == 24 and out.setup_s > 0.0
    assert sum(out.slot_s) < out.elapsed - out.setup_s

    path = tmp_path / "out" / "slots_tgc.csv"
    rows = list(csv.DictReader(path.open()))
    rows[5]["charged_kwh"] = str(float(rows[5]["charged_kwh"]) + 1.0)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    problems = checks.check_run(str(tmp_path / "out"), "tgc", probe.n_trips)
    assert any("ledger" in p for p in problems)
    assert checks.check_run(str(tmp_path / "out"), "tgc", probe.n_trips + 1)


def test_uncaught_solver_exception_counts_as_failed(monkeypatch, tmp_path):
    class LineSearchError(RuntimeError):
        pass

    def raises(*args, **kwargs):
        raise LineSearchError("no acceptable step")

    monkeypatch.setattr(cli, "sspm_solve", raises)
    doc = {"m": [9, 82, 27], "d": [3, 80, 15], "e_plus": 22.0834, "price": 9.9653}
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    runner, probe = _runner()
    try:
        out = runner.execute(workloads.GameOp(str(path), doc))
    finally:
        probe.uninstall()
    assert out.failed and out.error.startswith("LineSearchError")
    assert out.setup_s > 0.0  # the instance loaded before the solver raised


def test_mini_replays_its_own_slot_games_and_programs(tmp_path):
    ops = workloads.pool(workloads.WORKLOADS["mini"], 1, ROOT, str(tmp_path))
    kinds = [op.kind for op in ops]
    assert kinds.count("day") == 2
    # fleet seed 1 is the behaviour baseline: 3 slot games and one
    # day-ahead program
    assert kinds.count("game") >= 3
    assert kinds.count("lp") == len(workloads.CAPTURE_SEEDS)
    runner, probe = _runner()
    try:
        for op in ops:
            if op.kind != "day":
                assert not runner.execute(op).failed
    finally:
        probe.uninstall()


def test_op_time_is_the_sum_of_the_fastest_pieces():
    fastest = run.Fastest()
    labels = ("begin", "solver", "iteration", "end")
    for pieces in ([1.0, 5.0, 2.0], [3.0, 4.0, 9.0], [1.5, 6.0, 1.0]):
        fastest.add(labels, pieces)
    fastest.add(("begin", "end"), [0.1])  # passed other marks: left out
    assert fastest.times() == (labels, [1.0, 4.0, 1.0])
    assert run.setup_of(labels, [1.0, 4.0, 1.0]) == 1.0

    day = ("begin", "build", "built", "slot", "run_slot", "slot_end",
           "slot", "slot_end", "write", "end")
    assert run.setup_of(day, [1, 2, 3, 4, 5, 6, 7, 8, 9]) == 2
    assert run.slots_of(day, [1, 2, 3, 4, 5, 6, 7, 8, 9]) == [4 + 5, 7]


def test_failures_count_each_operation_once():
    ops = [workloads.GameOp(f"g{i}.json", {}) for i in range(3)]
    outcomes = []
    for rc in (0, 1, 0):  # the second repeat of ops[0] fails
        for op in ops:
            out = run.Outcome(op)
            out.rc = rc if op is ops[0] else 0
            outcomes.append(out)
    outcomes[-1].error = "LineSearchError: no acceptable step"  # ops[2]
    assert run.failures(outcomes) == (3, 2)


def test_game_and_lp_checks():
    good = "x_star = [0.5]\niterations = 3\nfinal residual = 1e-04\nkkt worst residual = 2.0e-05\n"
    assert checks.check_game(good) == []
    assert checks.check_game(good.replace("2.0e-05", "nan"))
    assert checks.check_game(good.replace("2.0e-05", "5.0e-01"))
    assert checks.check_game("")

    doc = {"consumed": [1.0, 1.0], "e_init": 10.0}
    plan = ("slot,price,E_minus,E_plus,E_remaining\n"
            "0,2.0,1.0,0.0,10.0\n1,3.0,1.0,2.0,9.0\ntotal cost = 6.000 cents\n")
    assert checks.check_lp(plan, doc) == []
    assert checks.check_lp(plan.replace("1,3.0,1.0,2.0,9.0", "1,3.0,1.0,2.0,8.0"), doc)
    assert checks.check_lp(plan.replace("6.000", "7.000"), doc)


def test_self_times_and_remainder_sum_to_traced_wall(tmp_path):
    runner, probe = _runner()
    trace = tracer.Tracer()
    trace.install()
    try:
        op = workloads.DayOp(os.path.join(MINI, "config.json"), "jtcs", 1,
                             str(tmp_path / "out"))
        wall = runner.execute(op).elapsed
    finally:
        trace.uninstall()
        probe.uninstall()
    metrics = run.per_layer(trace, 1, wall, wall, runner.outcomes)
    parts = sum(v for k, (v, _) in metrics.items() if k.startswith("self_s."))
    assert parts == pytest.approx(wall, rel=1e-9)
    assert metrics["self_s.unattributed"][0] >= 0.0
    assert metrics["sim.plan_calls"][0] >= 1
    assert metrics["transport.dryruns"][0] == 24
    assert {span[1] for span in trace.spans} >= {
        "cli.cmd_run", "cli.build_scenario", "simulator.run_jtcs",
        "simulator.plan_day_ahead", "simulator.infinite_energy_dry_run",
        "charging_scheduler.schedule_charging", "simplex.solve_lp",
        "transport_scheduler.run_slot", "transport_scheduler.dry_run_demand",
        "transport_scheduler.snapshot", "transport_scheduler.restore",
        "transport_scheduler.pci_assign", "vi_solver.sspm_solve",
    }
    # every wrapper is gone again
    assert transport_scheduler.insertion_cost.__module__ == "pvjtcs.transport_scheduler"
    assert not hasattr(transport_scheduler.insertion_cost, "__wrapped__")


def test_missing_wrapped_function_is_reported_absent(monkeypatch, tmp_path):
    monkeypatch.delattr(transport_scheduler, "insertion_cost")
    trace = tracer.Tracer()
    trace.install()
    trace.uninstall()
    assert "pvjtcs.transport_scheduler.insertion_cost" in trace.patches.missing
    metrics = run.per_layer(trace, 1, 1.0, 1.0, [])
    assert "transport.insertion_calls" not in metrics
    assert "transport.plan_stops_mean" not in metrics
    assert "network.sp_calls" in metrics


def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert bench["workloads"] == [
        {"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()
    ]
    assert [m["name"] for m in bench["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    trace = tracer.Tracer()
    trace.install()
    trace.uninstall()
    reported = run.per_layer(trace, 1, 1.0, 1.0, [])
    reported.update(run.simulated([]))
    for name, (_, unit) in reported.items():
        assert listed.get(name) == unit, name
