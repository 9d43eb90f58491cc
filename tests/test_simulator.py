"""Whole-day runs: energy conservation, scheme behavior, reproducibility."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvjtcs import simulator
from pvjtcs.cli import build_scenario, load_config
from pvjtcs.model import GameParams, PriceCurve, PvGroup
from pvjtcs.projection import FeasibleSet
from pvjtcs.simulator import (
    Scenario,
    eligibility_filter,
    infinite_energy_dry_run,
    plan_day_ahead,
    run_jtcs,
    run_tgc,
)
from pvjtcs.transport_scheduler import FleetEngine, Vehicle
from pvjtcs.vi_solver import sspm_solve
from pvjtcs.simulator import _split_group
from conftest import (
    NEAR_TIE,
    make_grid_graph,
    make_request,
    price_insertions_by_id,
    small_params,
)
from pvjtcs.network import RegionMap, StationSet

MINI_CONFIG = (Path(__file__).resolve().parent.parent
               / "scenarios" / "manhattan-mini" / "config.json")

def make_scenario(requests=None, T=4, J=6, seed=7, energies=None, **param_over):
    graph = make_grid_graph()
    regions = RegionMap({nid: (0 if nid % 4 < 2 else 1) for nid in graph.nodes})
    stations = StationSet([0, 15])
    params = small_params(J=J, **param_over)
    if requests is None:
        requests = []
    return Scenario(
        graph=graph,
        stations=stations,
        region_map=regions,
        requests=requests,
        prices=PriceCurve([5.0, 1.0, 3.0, 2.0][:T] + [2.0] * max(0, T - 4)),
        params=params,
        T=T,
        seed=seed,
        start_epoch=0.0,
        initial_energies=energies,
    )


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

    def test_scales_with_slot_hours(self):
        params = GameParams(slot_hours=0.5)
        assert params.slot_consumption == pytest.approx(4.5)
        vehicles = [Vehicle(id=0, node=0, energy=4.6)]
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

    def test_traces_collected_on_request(self):
        summary = run_jtcs(self.make_busy_scenario(), collect_traces=True)
        charged_slots = [t for t, s in enumerate(summary.slots) if s.charged_kwh > 0]
        for t in charged_slots:
            assert t in summary.vi_traces

    # ids: the scheme and its number of slots with chargers
    @pytest.mark.parametrize(
        "run, simulated, built", [(run_jtcs, 3, 0), (run_tgc, 0, 23)],
        ids=["run_jtcs-3", "run_tgc-23"],
    )
    def test_slot_without_chargers_adopts_its_dry_run(
        self, monkeypatch, run, simulated, built
    ):
        # bundled day, seed 1: a slot without chargers restores its dry
        # run's end state; one whose chargers the dry run never assigned is
        # built from the dry run; only the rest call run_slot (the joint
        # scheme's chargers are dry-run transporters in all 3 game slots)
        scenario = build_scenario(load_config(str(MINI_CONFIG)))
        orig_run_slot = FleetEngine.run_slot
        orig_dry = FleetEngine.dry_run_demand
        orig_restore = FleetEngine.restore
        orig_build = FleetEngine.slot_from_dry_run
        in_dry = []
        in_build = []
        dry_slots = []  # the slot of each demand dry run
        realized = []  # slot and charger count of each realized run_slot
        merged = []  # slot and charger count of each slot built from its dry run
        adopted = []  # slots whose dry run's end state was restored

        def run_slot(self, t, pool_ids, charger_ids):
            forecast = math.isinf(self.state.vehicles[0].energy)
            if not in_dry and not forecast:
                realized.append((t, len(charger_ids)))
            return orig_run_slot(self, t, pool_ids, charger_ids)

        def dry_run_demand(self, t, eligible_ids):
            in_dry.append(t)
            dry_slots.append(t)
            try:
                return orig_dry(self, t, eligible_ids)
            finally:
                in_dry.pop()

        def slot_from_dry_run(self, t, charger_ids, dry, end):
            merged.append((t, len(charger_ids)))
            in_build.append(t)
            try:
                return orig_build(self, t, charger_ids, dry, end)
            finally:
                in_build.pop()

        def restore(self, state):
            if not in_dry and not in_build:
                adopted.append(dry_slots[-1])
            return orig_restore(self, state)

        monkeypatch.setattr(FleetEngine, "run_slot", run_slot)
        monkeypatch.setattr(FleetEngine, "dry_run_demand", dry_run_demand)
        monkeypatch.setattr(FleetEngine, "slot_from_dry_run", slot_from_dry_run)
        monkeypatch.setattr(FleetEngine, "restore", restore)
        summary = run(scenario)
        assert len(summary.slots) == scenario.T == 24
        assert dry_slots == list(range(24))
        assert len(realized) == simulated
        assert len(merged) == built
        assert all(n > 0 for _, n in realized + merged)
        assert len(adopted) == 24 - simulated - built
        assert sorted([t for t, _ in realized + merged] + adopted) == list(range(24))

    def test_near_tie_keeps_run_slot(self, monkeypatch):
        # insertion costs 1.0, 1.0 - 0.5e-12 and 1.0 - 1.5e-12 by vehicle
        # id: the dry run gives the trip to vehicle 2, but without vehicle 0,
        # the greedy scheme's one charger, vehicle 1 wins.  The dry run saw
        # the near tie, so the slot runs through run_slot
        graph = make_grid_graph()
        scenario = make_scenario(
            requests=[make_request(graph, 1, 0.0, 6, 7)], T=1, J=3, seed=1,
            energies=[20.0, 45.0, 45.0],
        )
        assert len({v.node for v in scenario.build_fleet()}) == 3  # no anchor skip
        orig_dry = FleetEngine.dry_run_demand
        orig_run_slot = FleetEngine.run_slot
        dry_runs = []
        realized = []

        def dry_run_demand(self, t, eligible_ids):
            stats, end = orig_dry(self, t, eligible_ids)
            dry_runs.append(stats)
            return stats, end

        def run_slot(self, t, pool_ids, charger_ids):
            stats = orig_run_slot(self, t, pool_ids, charger_ids)
            if charger_ids:
                realized.append((charger_ids, stats))
            return stats

        def no_build(*args):
            raise AssertionError("slot built from a dry run with a near tie")

        price_insertions_by_id(monkeypatch, NEAR_TIE)
        monkeypatch.setattr(FleetEngine, "dry_run_demand", dry_run_demand)
        monkeypatch.setattr(FleetEngine, "run_slot", run_slot)
        monkeypatch.setattr(FleetEngine, "slot_from_dry_run", no_build)
        summary = run_tgc(scenario)
        [dry] = dry_runs
        [(chargers, stats)] = realized
        assert dry.near_tie and dry.transporting_ids == {2}
        assert chargers == {0} and stats.transporting_ids == {1}
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

    def test_short_price_curve(self):
        graph = make_grid_graph()
        with pytest.raises(ValueError):
            Scenario(
                graph=graph,
                stations=StationSet([0]),
                region_map=RegionMap({nid: 0 for nid in graph.nodes}),
                requests=[],
                prices=PriceCurve([1.0, 2.0]),
                params=small_params(),
                T=4,
                start_epoch=0.0,
            )

    def test_energy_lengths(self):
        with pytest.raises(ValueError):
            make_scenario(energies=[30.0])

    def test_seeded_fleet_deterministic(self):
        sc = make_scenario(seed=42)
        f1 = sc.build_fleet()
        f2 = sc.build_fleet()
        assert [(v.node, v.energy) for v in f1] == [(v.node, v.energy) for v in f2]
        sc2 = make_scenario(seed=43)
        assert [(v.node, v.energy) for v in sc2.build_fleet()] != [
            (v.node, v.energy) for v in f1
        ]
