"""Whole-day runs: energy conservation, scheme behavior, reproducibility."""

import copy
import dataclasses
import importlib.util
import inspect
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from pvjtcs import simulator
from pvjtcs.cli import build_scenario, load_config, main
from pvjtcs.model import FeasibleSet, GameParams, PriceCurve, PvGroup
from pvjtcs.simulator import (
    Scenario,
    eligibility_filter,
    infinite_energy_dry_run,
    plan_day_ahead,
    run_jtcs,
    run_tgc,
)
from pvjtcs.transport_scheduler import (
    ASSIGNED,
    ONBOARD,
    SERVED,
    WAITING,
    FleetEngine,
    Vehicle,
    _ride_limit,
)
from pvjtcs.vi_solver import sspm_solve
from pvjtcs.simulator import _split_group
from conftest import (
    NEAR_TIE,
    make_grid_graph,
    make_request,
    price_idle_insertions,
    small_params,
)
from pvjtcs.network import RegionMap, StationSet
from oracles import interleaved_slot, reference_day

REPO = Path(__file__).resolve().parent.parent
MINI_CONFIG = REPO / "scenarios" / "manhattan-mini" / "config.json"
_spec = importlib.util.spec_from_file_location(
    "scenario_gen", REPO / "perfbench" / "scenario_gen.py"
)
scenario_gen = sys.modules["scenario_gen"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scenario_gen)


@dataclasses.dataclass
class SetEnergyScenario(Scenario):
    """The seeded fleet's start nodes, with ``energies`` for its energies."""

    energies: list[float]

    def build_fleet(self):
        return [
            Vehicle(id=v.id, node=v.node, energy=e)
            for v, e in zip(super().build_fleet(), self.energies, strict=True)
        ]


def make_scenario(requests=None, T=4, J=6, seed=7, energies=None, **param_over):
    graph = make_grid_graph()
    regions = RegionMap({nid: (0 if nid % 4 < 2 else 1) for nid in graph.nodes})
    stations = StationSet([0, 15])
    params = small_params(J=J, **param_over)
    if requests is None:
        requests = []
    common = dict(
        graph=graph,
        stations=stations,
        region_map=regions,
        requests=requests,
        prices=PriceCurve([5.0, 1.0, 3.0, 2.0][:T] + [2.0] * max(0, T - 4)),
        params=params,
        seed=seed,
        start_epoch=0.0,
        batch_minutes=5.0,
        init_energy_range=(32.0, 41.0),
    )
    if energies is None:
        return Scenario(**common)
    return SetEnergyScenario(**common, energies=energies)


def sprinkle_requests(graph, n, t0=0.0, spacing=240.0):
    reqs = []
    for i in range(n):
        origin = (5 * i + 1) % 16
        dest = (origin + 6) % 16
        if origin == dest:
            dest = (dest + 1) % 16
        reqs.append(make_request(graph, i + 1, t0 + spacing * i, origin, dest))
    return reqs


class TestScheduleBasics:
    def test_zero_requests_jtcs_idle(self):
        sc = make_scenario()
        summary = run_jtcs(sc)
        assert summary.total_charged_kwh == pytest.approx(0.0)
        assert summary.total_payment_cents == pytest.approx(0.0)
        assert summary.average_price is None
        # energy untouched
        assert summary.final_fleet_energy == pytest.approx(
            sum(v.energy for v in sc.build_fleet())
        )
        assert all(s.transport_pvs == 0 for s in summary.slots)

    def test_zero_requests_tgc_charges_until_full(self):
        energies = [30.0] * 6
        sc = make_scenario(energies=energies)
        summary = run_tgc(sc)
        assert summary.total_charged_kwh > 0.0
        # by the end everyone is full
        assert summary.final_fleet_energy >= 6 * sc.params.full_threshold
        # once full, charging stops
        assert summary.slots[-1].charged_kwh == pytest.approx(0.0)

    def test_all_full_tgc_never_charges(self):
        sc = make_scenario(energies=[45.0] * 6)
        summary = run_tgc(sc)
        assert summary.total_charged_kwh == pytest.approx(0.0)

    def test_forced_full_charging_slot(self):
        # if the slot's charging demand equals r*m the game pins x*=0
        params = GameParams()
        groups = [PvGroup(region=0, m=5, d=0)]
        fset = FeasibleSet(m=[5.0], d_total=0.0, e_plus=5.0 * params.r, r=params.r)
        x, _ = sspm_solve(groups, fset, 3.0, params)
        assert x[0] == pytest.approx(0.0, abs=1e-9)
        phi = math.ceil(5 * x[0] - 1e-12)
        assert phi == 0

    def test_split_group_example(self):
        # m=7 at x=0.5: ceil(3.5)=4 transport, 3 charge
        vehicles = [Vehicle(id=i, node=0, energy=30.0 - i) for i in range(7)]
        group = PvGroup(region=0, m=7, d=0)
        # max-energy members transport, the rest charge
        assert _split_group(group, 0.5, vehicles) == [4, 5, 6]

    def test_split_group_respects_commitments(self):
        vehicles = [Vehicle(id=i, node=0, energy=20.0 + i) for i in range(4)]
        from pvjtcs.transport_scheduler import Stop

        vehicles[0].plan.stops.append(Stop(3, "dropoff", 9))
        group = PvGroup(region=0, m=4, d=0)
        chargers = _split_group(group, 0.25, vehicles)  # phi = 1
        assert chargers == [3, 2, 1]  # the busy one is committed to transport


class TestEligibility:
    def test_threshold(self):
        params = GameParams()
        vehicles = [
            Vehicle(id=0, node=0, energy=9.0),
            Vehicle(id=1, node=0, energy=8.99),
        ]
        assert eligibility_filter(vehicles, params) == {0}


class TestDayAhead:
    def test_infinite_run_consumes_without_charging(self):
        sc = make_scenario(requests=sprinkle_requests(make_grid_graph(), 8))
        fleet = sc.build_fleet()
        start = [(v.node, v.energy) for v in fleet]
        consumed, transports = infinite_energy_dry_run(sc, fleet)
        assert len(consumed) == sc.T
        assert sum(consumed) > 0.0
        assert max(transports) <= sc.params.J
        # the engine runs on its own clone of the fleet
        assert [(v.node, v.energy) for v in fleet] == start

    def test_infinite_run_ignores_low_energy(self):
        # every vehicle starts below the slot's worst-case consumption and
        # the insertion reserve, which would bar all of them from serving
        sc = make_scenario(requests=sprinkle_requests(make_grid_graph(), 8),
                           energies=[5.0] * 6)
        assert 5.0 < sc.params.slot_consumption
        fleet = sc.build_fleet()
        consumed, transports = infinite_energy_dry_run(sc, fleet)
        assert sum(transports) > 0
        assert sum(consumed) > 0.0
        assert [v.energy for v in fleet] == [5.0] * 6

    def test_plan_respects_каps(self):
        sc = make_scenario(requests=sprinkle_requests(make_grid_graph(), 8))
        fleet = sc.build_fleet()
        start = [(v.node, v.energy) for v in fleet]
        plan, inputs = plan_day_ahead(sc, fleet)
        assert [(v.node, v.energy) for v in fleet] == start
        assert inputs.e_init == sum(e for _, e in start)
        for t in range(sc.T):
            cap = (sc.params.J - inputs.demand_counts[t]) * sc.params.r
            assert -1e-9 <= plan.e_plus[t] <= cap + 1e-6


class TestFullRuns:
    def make_busy_scenario(self, seed=7):
        graph = make_grid_graph()
        reqs = sprinkle_requests(graph, 24, t0=0.0, spacing=550.0)
        return make_scenario(requests=reqs, T=4, seed=seed,
                             energies=[18.0, 22.0, 26.0, 30.0, 34.0, 44.0])

    def test_jtcs_builds_the_fleet_once(self, monkeypatch):
        sc = self.make_busy_scenario()
        built = []
        original = type(sc).build_fleet

        def counting(scenario):
            built.append(1)
            return original(scenario)

        monkeypatch.setattr(type(sc), "build_fleet", counting)
        run_jtcs(sc)
        assert len(built) == 1

    def test_ledger_conserves_energy(self):
        sc = self.make_busy_scenario()
        summary = run_jtcs(sc)
        energy = sum(v.energy for v in sc.build_fleet())
        for s in summary.slots:
            nxt = energy - s.consumed_kwh + s.charged_kwh
            assert nxt == pytest.approx(s.fleet_energy_kwh, abs=1e-9)
            energy = s.fleet_energy_kwh
        assert summary.final_fleet_energy == pytest.approx(energy, abs=1e-9)

    def test_energy_stays_in_battery_bounds(self):
        sc = self.make_busy_scenario()
        for run in (run_jtcs, run_tgc):
            summary = run(sc)
            assert all(
                -1e-9 <= s.fleet_energy_kwh <= sc.params.J * sc.params.c + 1e-9
                for s in summary.slots
            )

    def test_charged_accounting(self):
        sc = self.make_busy_scenario()
        summary = run_tgc(sc)
        assert summary.total_charged_kwh == pytest.approx(
            sum(s.charged_kwh for s in summary.slots)
        )
        assert summary.total_payment_cents == pytest.approx(
            sum(sc.prices[s.slot] * s.charged_kwh for s in summary.slots)
        )
        if summary.total_charged_kwh > 0:
            assert summary.average_price == pytest.approx(
                summary.total_payment_cents / summary.total_charged_kwh
            )

    def test_reproducible_bit_identical(self):
        a = run_jtcs(self.make_busy_scenario(seed=3))
        b = run_jtcs(self.make_busy_scenario(seed=3))
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )
        c = run_tgc(self.make_busy_scenario(seed=3))
        d = run_tgc(self.make_busy_scenario(seed=3))
        assert json.dumps(c.to_dict(), sort_keys=True) == json.dumps(
            d.to_dict(), sort_keys=True
        )

    def test_summary_counts_consistent(self):
        sc = self.make_busy_scenario()
        summary = run_jtcs(sc)
        assert summary.served + summary.waiting == len(sc.requests)
        assert summary.slots[-1].served == summary.served

    def test_vi_iterations_count_the_games_played(self):
        # 1 for a slot that played a game (its certificate is one residual
        # check), 0 for a slot that played none; only a game sends chargers
        sc = self.make_busy_scenario()
        summary = run_jtcs(sc)
        assert len(summary.vi_iterations) == sc.T
        assert set(summary.vi_iterations) == {0, 1}
        for t, s in enumerate(summary.slots):
            assert s.charged_kwh == 0 or summary.vi_iterations[t] == 1

    # ids: the scheme and its number of slots with chargers
    @pytest.mark.parametrize(
        "run, served_again, charging", [(run_jtcs, 3, 3), (run_tgc, 0, 23)],
        ids=["run_jtcs-3", "run_tgc-23"],
    )
    def test_slot_without_chargers_adopts_its_dry_run(
        self, monkeypatch, run, served_again, charging
    ):
        # bundled day, seed 1: every slot is executed from its dry run; a
        # slot without chargers, or whose chargers the dry run never
        # assigned, keeps the dry run's service and restores its end state;
        # only the rest serve the slot again (the joint scheme's chargers
        # are dry-run transporters in all 3 game slots)
        scenario = build_scenario(load_config(str(MINI_CONFIG)))
        orig_run_slot = FleetEngine.run_slot
        orig_dry = FleetEngine.dry_run_demand
        orig_build = FleetEngine.slot_from_dry_run
        in_dry = []
        dry_slots = []  # the slot of each demand dry run
        executed = []  # slot and charger count of each executed slot
        reserved = []  # slot of each realized run_slot

        def run_slot(self, t, pool_ids):
            forecast = math.isinf(self.state.vehicles[0].energy)
            if not in_dry and not forecast:
                reserved.append(t)
            return orig_run_slot(self, t, pool_ids)

        def dry_run_demand(self, t, eligible_ids):
            in_dry.append(t)
            dry_slots.append(t)
            try:
                return orig_dry(self, t, eligible_ids)
            finally:
                in_dry.pop()

        def slot_from_dry_run(self, t, eligible_ids, charger_ids, dry, end):
            executed.append((t, len(charger_ids)))
            stats = orig_build(self, t, eligible_ids, charger_ids, dry, end)
            if t not in reserved:
                assert self.state is end  # the dry run's end state is live
            return stats

        monkeypatch.setattr(FleetEngine, "run_slot", run_slot)
        monkeypatch.setattr(FleetEngine, "dry_run_demand", dry_run_demand)
        monkeypatch.setattr(FleetEngine, "slot_from_dry_run", slot_from_dry_run)
        summary = run(scenario)
        assert len(summary.slots) == scenario.T == 24
        assert dry_slots == [t for t, _ in executed] == list(range(24))
        assert len(reserved) == served_again
        assert sum(1 for _, n in executed if n) == charging
        assert all(n for t, n in executed if t in reserved)

    def test_close_costs_keep_the_dry_runs_service(self, monkeypatch):
        # the idle vehicles' rows put them 1.0, 1.0 - 0.5e-12 and
        # 1.0 - 1.5e-12 km from the pickup by vehicle id: the dry run gives
        # the trip to vehicle 2, the least.  Vehicle 0, the greedy scheme's
        # one charger, did not win, so the slot keeps the dry run's
        # service: it equals the slot simulated in one pass
        graph = make_grid_graph()
        scenario = make_scenario(
            requests=[make_request(graph, 1, 0.0, 6, 7)], T=1, J=3, seed=1,
            energies=[20.0, 45.0, 45.0],
        )
        fleet = scenario.build_fleet()
        assert len({v.node for v in fleet}) == 3  # no anchor skip
        orig_run_slot = FleetEngine.run_slot
        orig_build = FleetEngine.slot_from_dry_run
        served = []  # the statistics of each run_slot
        realized = []

        def run_slot(self, t, pool_ids):
            stats = orig_run_slot(self, t, pool_ids)
            served.append(stats)
            return stats

        def slot_from_dry_run(self, t, eligible_ids, charger_ids, dry, end):
            ref = copy.copy(self)
            ref.state = self.state.clone()
            expected = interleaved_slot(ref, t, eligible_ids - charger_ids, charger_ids)
            stats = orig_build(self, t, eligible_ids, charger_ids, dry, end)
            assert stats == expected and self.state == ref.state
            realized.append((charger_ids, stats))
            return stats

        price_idle_insertions(
            monkeypatch, scenario.graph, 6, {v.node: NEAR_TIE[v.id] for v in fleet}
        )
        monkeypatch.setattr(FleetEngine, "run_slot", run_slot)
        monkeypatch.setattr(FleetEngine, "slot_from_dry_run", slot_from_dry_run)
        summary = run_tgc(scenario)
        [dry] = served  # the dry run only
        [(chargers, stats)] = realized
        assert dry.transporting_ids == stats.transporting_ids == {2}
        assert chargers == {0}
        assert summary.served == 1 and summary.slots[0].charged_kwh > 0.0

    def test_joint_rule_plays_only_where_the_plan_buys(self, monkeypatch):
        # bundled day, seed 1: the census runs only in slots whose plan buys
        # energy, and groups are split only in slots that played a game
        scenario = build_scenario(load_config(str(MINI_CONFIG)))
        orig_dry = FleetEngine.dry_run_demand
        orig_census = simulator.group_census
        orig_split = simulator._split_group
        dry_slots = []
        census_slots = []
        split_slots = set()

        def dry_run_demand(self, t, eligible_ids):
            dry_slots.append(t)
            return orig_dry(self, t, eligible_ids)

        def census(*args):
            census_slots.append(dry_slots[-1])
            return orig_census(*args)

        def split(*args):
            split_slots.add(dry_slots[-1])
            return orig_split(*args)

        monkeypatch.setattr(FleetEngine, "dry_run_demand", dry_run_demand)
        monkeypatch.setattr(simulator, "group_census", census)
        monkeypatch.setattr(simulator, "_split_group", split)
        summary = run_jtcs(scenario)
        buying = [t for t, e in enumerate(summary.plan.e_plus) if e > 1e-9]
        games = {t for t, n in enumerate(summary.vi_iterations) if n > 0}
        assert 0 < len(buying) < scenario.T
        assert census_slots == buying
        assert split_slots == games
        assert games <= set(buying)


@settings(max_examples=200, deadline=None)
@given(members=st.lists(
    st.tuples(st.floats(0.0, 39.375), st.booleans()), min_size=1, max_size=60
))
def test_split_at_one_charges_nobody(members):
    # a group that transports entirely (x = 1) has no chargers, whoever is
    # busy: the joint rule skips the split in slots without a game
    from pvjtcs.transport_scheduler import Stop

    vehicles = [Vehicle(id=i, node=0, energy=e) for i, (e, _) in enumerate(members)]
    for veh, (_, busy) in zip(vehicles, members):
        if busy:
            veh.plan.stops.append(Stop(1, "dropoff", 3))
    group = PvGroup(region=0, m=len(vehicles), d=0)
    assert _split_group(group, 1.0, vehicles) == []


class TestScenarioValidation:
    def test_request_outside_horizon(self):
        graph = make_grid_graph()
        bad = [make_request(graph, 1, 999999.0, 0, 3)]
        with pytest.raises(ValueError):
            make_scenario(requests=bad)

    @pytest.mark.parametrize("batch_minutes", [0.0, -5.0, math.inf, math.nan])
    def test_batch_minutes_finite_and_positive(self, batch_minutes):
        with pytest.raises(ValueError, match="batch_minutes"):
            dataclasses.replace(make_scenario(), batch_minutes=batch_minutes)

    def test_run_settings_have_one_source(self):
        # a run's defaults are the config's: neither the scenario nor the
        # fleet engine restates one
        assert all(
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
            for f in dataclasses.fields(Scenario)
        )
        engine_args = inspect.signature(FleetEngine).parameters.values()
        assert all(p.default is inspect.Parameter.empty for p in engine_args)

    def test_seeded_fleet_deterministic(self):
        sc = make_scenario(seed=42)
        f1 = sc.build_fleet()
        f2 = sc.build_fleet()
        assert [(v.node, v.energy) for v in f1] == [(v.node, v.energy) for v in f2]
        sc2 = make_scenario(seed=43)
        assert [(v.node, v.energy) for v in sc2.build_fleet()] != [
            (v.node, v.energy) for v in f1
        ]


@st.composite
def grid_days(draw):
    """A generated day: a ``GridSpec`` of 4-9 rows, 3-6 columns, 1 to rows
    regions, 1-4 stations, 3-30 vehicles with a drawn initial energy range
    and up to 10 trips per vehicle, and config overrides for the batch
    length, the seats, the detour bound and the speed.  A drawn speed ends
    batches with vehicles mid-edge on the 0.5 km streets."""
    rows = draw(st.integers(4, 9))
    fleet = draw(st.integers(3, 30))
    low = draw(st.floats(0.0, 45.0))
    spec = scenario_gen.GridSpec(
        rows=rows,
        cols=draw(st.integers(3, 6)),
        regions=draw(st.integers(1, rows)),
        stations=draw(st.integers(1, 4)),
        fleet=fleet,
        trips=draw(st.integers(1, 10 * fleet)),
        seed=draw(st.integers(0, 2**32 - 1)),
        energy_range=(low, draw(st.floats(low, 45.0))),
    )
    overrides = {
        "batch_minutes": draw(st.integers(1, 25)),
        "params": {
            "seats": draw(st.integers(1, 6)),
            "detour_max": draw(st.floats(1.2, 3.0)),
            "speed": draw(st.floats(10.0, 50.0)),
        },
    }
    return spec, overrides


OUTPUTS = ("summary.json", "slots_jtcs.csv", "slots_tgc.csv", "charging_plan.csv")
STATUS_ORDER = (WAITING, ASSIGNED, ONBOARD, SERVED)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(day=grid_days())
def test_day_equals_its_interleaved_reference(tmp_path, day):
    # both schemes, each slot executed from its dry run, write the same
    # bytes as with every slot simulated in one pass from the slot start;
    # along the way energy stays in [0, c], every request's status only
    # moves forward and a served one was picked up no later than dropped
    # off, the ledger balances, every trip is served or waiting and no
    # served ride breaks its detour bound
    spec, overrides = day
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    config_path = scenario_gen.write(spec, str(work / "scenario"))
    config = json.loads(Path(config_path).read_text())
    Path(config_path).write_text(json.dumps({**config, **overrides}))
    scenario = build_scenario(load_config(config_path))
    params = scenario.params
    engines = {}  # the engine of each scheme's day
    ranks = {}  # (engine id, request id): the request's last status rank

    orig_slot = FleetEngine.slot_from_dry_run

    def checked_slot(self, t, eligible_ids, charger_ids, dry, end):
        if not charger_ids.isdisjoint(dry.transporting_ids):
            event("a charger the dry run assigned")
        stats = orig_slot(self, t, eligible_ids, charger_ids, dry, end)
        for veh in self.state.vehicles:
            assert 0.0 <= veh.energy <= params.c + 1e-9, veh
        for rid, rs in self.state.requests.items():
            rank = STATUS_ORDER.index(rs.status)
            assert rank >= ranks.get((id(self), rid), 0), rs
            ranks[id(self), rid] = rank
            if rs.status == SERVED:
                assert rs.pickup_time <= rs.dropoff_time, rs
        engines[id(self)] = self
        return stats

    run = ["run", "--config", config_path, "--out"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FleetEngine, "slot_from_dry_run", checked_slot)
        assert main(run + [str(work / "day")]) == 0
    with reference_day():
        assert main(run + [str(work / "reference")]) == 0
    for name in OUTPUTS:
        assert (work / "day" / name).read_bytes() == (
            work / "reference" / name
        ).read_bytes(), name

    summary = json.loads((work / "day" / "summary.json").read_text())
    start = sum(v.energy for v in scenario.build_fleet())
    for mode in (simulator.JTCS, simulator.TGC):
        doc = summary[mode]
        assert doc["served"] + doc["waiting"] == len(scenario.requests)
        energy = start
        for slot in doc["slots"]:
            energy += slot["charged_kwh"] - slot["consumed_kwh"]
            assert slot["fleet_energy_kwh"] == pytest.approx(energy, abs=1e-9)
            energy = slot["fleet_energy_kwh"]
    assert len(engines) == 2
    for engine in engines.values():
        for rs in engine.state.requests.values():
            if rs.status == SERVED:
                assert rs.ride_km <= _ride_limit(rs.request, params)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(day=grid_days())
def test_no_state_outside_a_plan_is_written(tmp_path, day):
    # a fleet clone shares every waiting and served request state, so from
    # a slot's start to its end none of those objects may change; and a
    # request is assigned or on board exactly when a plan holds a stop for
    # it, at the slot start, in the dry run's end state and at the slot end
    spec, overrides = day
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    config_path = scenario_gen.write(spec, str(work / "scenario"))
    config = json.loads(Path(config_path).read_text())
    Path(config_path).write_text(json.dumps({**config, **overrides}))
    orig_dry = FleetEngine.dry_run_demand
    orig_slot = FleetEngine.slot_from_dry_run
    unheld = {}  # engine id: (state object, a copy of it) at the slot start

    def check_plans_hold(state):
        held = {s.request_id for v in state.vehicles for s in v.plan.stops}
        for rid, rs in state.requests.items():
            assert (rs.status in (ASSIGNED, ONBOARD)) == (rid in held), rs

    def dry_run_demand(self, t, eligible_ids):
        check_plans_hold(self.state)
        unheld[id(self)] = [
            (rs, copy.copy(rs))
            for rs in self.state.requests.values()
            if rs.status in (WAITING, SERVED)
        ]
        return orig_dry(self, t, eligible_ids)

    def slot_from_dry_run(self, t, eligible_ids, charger_ids, dry, end):
        check_plans_hold(end)
        stats = orig_slot(self, t, eligible_ids, charger_ids, dry, end)
        check_plans_hold(self.state)
        for rs, start in unheld.pop(id(self)):
            assert rs == start, (rs, start)
        return stats

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FleetEngine, "dry_run_demand", dry_run_demand)
        patch.setattr(FleetEngine, "slot_from_dry_run", slot_from_dry_run)
        assert main(["run", "--config", config_path, "--out", str(work / "o")]) == 0
    assert not unheld
