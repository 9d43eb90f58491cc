"""Ride matching, fleet engine mechanics, census, dry-run purity."""

import copy
import dataclasses
import itertools
import math

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from pvjtcs import transport_scheduler
from pvjtcs.model import GameParams
from pvjtcs.network import (
    RegionMap,
    RoadGraph,
    StationSet,
    shortest_path,
)
from pvjtcs.transport_scheduler import (
    ASSIGNED,
    DROPOFF,
    PICKUP,
    ONBOARD,
    SERVED,
    WAITING,
    EnergyUnderflowError,
    FleetEngine,
    RequestState,
    FleetState,
    Stop,
    TripRequest,
    Vehicle,
    VehiclePlan,
    _with_trip,
    group_census,
    pci_assign,
)
from conftest import (
    make_grid_graph,
    make_request,
    price_idle_insertions,
    small_params,
)
from oracles import (
    brute_force_insertion,
    full_scan_assign,
    interleaved_slot,
    plan_distance,
    planned_insertion,
)

PARAMS = small_params()


def fresh_vehicle(vid=0, node=0, energy=40.0):
    return Vehicle(id=vid, node=node, energy=energy)


def states_for(*requests):
    return {r.id: RequestState(request=r) for r in requests}


class TestVehicle:
    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            Vehicle(id=0, node=1, energy=-1.0)
        assert Vehicle(id=0, node=1, energy=0.0).energy == 0.0


class TestTripRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            TripRequest(1, 0.0, 0.0, 2, 2, 1)
        with pytest.raises(ValueError):
            TripRequest(1, 0.0, 0.0, 2, 3, 0)
        with pytest.raises(ValueError):
            TripRequest(1, 10.0, 5.0, 2, 3, 1)


GRID = make_grid_graph()
# the left and right halves of the grid
HALVES = RegionMap({nid: (0 if nid % 4 < 2 else 1) for nid in GRID.nodes})


@st.composite
def insertion_cases(draw):
    """A vehicle on the 4x4 grid (possibly mid-edge) with a random plan of
    on-board and assigned requests, a new request, and parameters drawn so
    that seats, detours and energy all bind some of the time."""
    nodes = st.integers(min_value=0, max_value=15)
    keys = st.integers(min_value=0, max_value=20)
    requests = {}
    keyed = []  # (sort key, order drawn, stop): pickups precede their drops
    onboard = 0
    for rid in range(1, draw(st.integers(min_value=0, max_value=4)) + 1):
        origin = draw(nodes)
        dest = draw(nodes.filter(lambda n: n != origin))
        pax = draw(st.integers(min_value=1, max_value=2))
        rs = RequestState(request=make_request(GRID, rid, 0.0, origin, dest, pax))
        if draw(st.booleans()):
            rs.status = ONBOARD
            rs.ride_km = draw(st.integers(min_value=1, max_value=48)) / 16
            onboard += pax
            keyed.append((draw(keys), len(keyed), Stop(dest, DROPOFF, rid)))
        else:
            rs.status = ASSIGNED
            first, second = sorted((draw(keys), draw(keys)))
            keyed.append((first, len(keyed), Stop(origin, PICKUP, rid)))
            keyed.append((second, len(keyed), Stop(dest, DROPOFF, rid)))
        requests[rid] = rs
    node = draw(nodes)
    veh = Vehicle(
        id=0,
        node=node,
        energy=draw(st.one_of(st.floats(min_value=2.5, max_value=10.0),
                              st.just(40.0))),
        plan=VehiclePlan(stops=[s for _, _, s in sorted(keyed)], onboard=onboard),
    )
    if draw(st.booleans()):  # mid-edge: planning starts from the edge head
        veh.edge_head = draw(st.sampled_from([to for to, _ in GRID.adjacency[node]]))
        veh.edge_progress = draw(st.integers(min_value=1, max_value=7)) / 16
    origin = draw(nodes)
    dest = draw(nodes.filter(lambda n: n != origin))
    new = make_request(GRID, 99, 0.0, origin, dest, draw(st.integers(1, 3)))
    requests[new.id] = RequestState(request=new)
    params = small_params(
        seats=draw(st.integers(min_value=1, max_value=5)),
        detour_max=draw(st.one_of(st.sampled_from([1.0, 1.5, 10.0]),
                                  st.floats(min_value=1.0, max_value=3.0))),
    )
    if draw(st.booleans()):  # the day-ahead forecast's fleet
        veh.energy = math.inf
    return veh, new, params, requests


class TestInsertionCost:
    def test_empty_plan_direct_distance(self, grid_graph):
        veh = fresh_vehicle(node=0)
        req = make_request(grid_graph, 1, 0.0, 0, 3)
        out = planned_insertion(veh, req, grid_graph, PARAMS, states_for(req))
        assert out is not None
        delta, plan = out
        assert delta == pytest.approx(req.direct_km)
        assert [s.action for s in plan.stops] == [PICKUP, DROPOFF]

    def test_full_vehicle_infeasible(self, grid_graph):
        veh = fresh_vehicle()
        veh.plan.onboard = PARAMS.seats
        req = make_request(grid_graph, 1, 0.0, 0, 3)
        assert planned_insertion(veh, req, grid_graph, PARAMS, states_for(req)) is None

    def test_energy_reserve_blocks(self, grid_graph):
        req = make_request(grid_graph, 1, 0.0, 0, 3)  # 1.5 km direct
        requests = states_for(req)
        needy = fresh_vehicle(node=0, energy=PARAMS.e_min + 0.1)
        assert planned_insertion(needy, req, grid_graph, PARAMS, requests) is None
        ok = fresh_vehicle(node=0, energy=PARAMS.e_min + 1.0)
        assert planned_insertion(ok, req, grid_graph, PARAMS, requests) is not None

    def test_matches_exhaustive_enumeration(self, grid_graph):
        old_a = make_request(grid_graph, 1, 0.0, 1, 14)
        old_b = make_request(grid_graph, 2, 0.0, 2, 12)
        new = make_request(grid_graph, 3, 0.0, 5, 10)
        veh = fresh_vehicle(node=0)
        veh.plan = VehiclePlan(
            stops=[
                Stop(1, PICKUP, 1),
                Stop(2, PICKUP, 2),
                Stop(14, DROPOFF, 1),
                Stop(12, DROPOFF, 2),
            ]
        )
        requests = states_for(old_a, old_b, new)
        out = planned_insertion(veh, new, grid_graph, PARAMS, requests)
        assert out is not None
        delta, plan = out

        # independent enumeration over all position pairs
        base = plan_distance(veh, veh.plan.stops, grid_graph)
        best = None
        stops = veh.plan.stops
        pick, drop = Stop(5, PICKUP, 3), Stop(10, DROPOFF, 3)
        for i, j in itertools.product(range(5), repeat=2):
            if j < i:
                continue
            cand = stops[:i] + [pick] + stops[i:j] + [drop] + stops[j:]
            # capacity along the way
            load, ok = 0, True
            for s in cand:
                load += (
                    requests[s.request_id].request.passengers
                    if s.action == PICKUP
                    else -requests[s.request_id].request.passengers
                )
                ok &= load <= PARAMS.seats
            if not ok:
                continue
            # detour for every request in the candidate
            cum, total, at = [], 0.0, veh.node
            for s in cand:
                if s.node != at:
                    d, _ = shortest_path(grid_graph, at, s.node)
                    total += d
                    at = s.node
                cum.append(total)
            picked = {}
            feasible = True
            for idx, s in enumerate(cand):
                if s.action == PICKUP:
                    picked[s.request_id] = cum[idx]
                else:
                    ride = cum[idx] - picked[s.request_id]
                    feasible &= (
                        ride
                        <= PARAMS.detour_max
                        * requests[s.request_id].request.direct_km
                        + 1e-9
                    )
            if not feasible:
                continue
            cand_delta = total - base
            if best is None or cand_delta < best:
                best = cand_delta
        assert best is not None
        assert delta == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize(
        "node, stops, error",
        [
            (99, [], KeyError),
            (99, [Stop(2, DROPOFF, 2)], KeyError),
        ],
    )
    def test_lookup_errors_match_network_distance(self, node, stops, error):
        line = RoadGraph.from_edges(
            {n: (0.0, 0.0) for n in (0, 1, 2)},
            [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
        )
        old = make_request(line, 2, 0.0, 1, 2)
        req = make_request(line, 1, 0.0, 0, 2)
        veh = fresh_vehicle(node=node)
        veh.plan = VehiclePlan(stops=stops, onboard=len(stops))
        with pytest.raises(error):
            planned_insertion(veh, req, line, PARAMS, states_for(old, req))

    def test_mid_edge_vehicle_drives_the_shortest_parallel_edge(self):
        # the vehicle is halfway along 0->1, which has a 1 km and a 4 km
        # copy: 0.5 km to node 1 and 1 km on to 2 use 0.45 of its 0.6 kWh
        # above the reserve; 3.5 km along the longer copy would use more
        line = RoadGraph.from_edges(
            {n: (float(n), 0.0) for n in (0, 1, 2)},
            [(0, 1, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
        )
        req = make_request(line, 1, 0.0, 1, 2)
        veh = fresh_vehicle(node=0, energy=PARAMS.e_min + 2.0 * PARAMS.consume_rate)
        veh.edge_head, veh.edge_progress = 1, 0.5
        requests = states_for(req)
        delta, plan = planned_insertion(veh, req, line, PARAMS, requests)
        assert delta == 1.0
        assert brute_force_insertion(veh, req, line, PARAMS, requests) == (
            delta, plan.stops)

    @settings(max_examples=400, deadline=None)
    @given(case=insertion_cases())
    def test_matches_brute_force_reference(self, case):
        veh, new, params, requests = case
        stops_before = list(veh.plan.stops)
        out = planned_insertion(veh, new, GRID, params, requests)
        ref = brute_force_insertion(veh, new, GRID, params, requests)
        assert veh.plan.stops == stops_before
        assert (out is None) == (ref is None)
        if out is not None:
            delta, plan = out
            assert plan.stops == ref[1]
            assert abs(delta - ref[0]) <= 1e-9
            assert plan.onboard == veh.plan.onboard

    def test_passenger_riding_past_new_drop_bounds_its_detour(self, grid_graph):
        # a rides 1 -> 3 at detour_max 1: picking the new request up first
        # and dropping it at 6 between a's stops is cheapest (+1 km) but
        # stretches a's ride to 2 km, so it must go in front of a instead
        a = make_request(grid_graph, 1, 0.0, 1, 3)
        new = make_request(grid_graph, 2, 0.0, 0, 6)
        requests = states_for(a, new)
        veh = fresh_vehicle(node=0)
        veh.plan = VehiclePlan(stops=[Stop(1, PICKUP, 1), Stop(3, DROPOFF, 1)])
        params = GameParams(J=6, detour_max=1.0)
        delta, plan = planned_insertion(veh, new, grid_graph, params, requests)
        assert [(s.request_id, s.action) for s in plan.stops] == [
            (2, PICKUP), (2, DROPOFF), (1, PICKUP), (1, DROPOFF)
        ]
        assert delta == pytest.approx(2.0)

    def test_onboard_passenger_bounds_every_earlier_drop(self, grid_graph):
        # b is on board with no detour left: any added km before its drop
        # at 3 breaks its bound, so the new trip goes after it
        a = make_request(grid_graph, 1, 0.0, 1, 2)
        b = make_request(grid_graph, 2, 0.0, 0, 3)
        new = make_request(grid_graph, 3, 0.0, 1, 5)
        requests = states_for(a, b, new)
        requests[2].status = ONBOARD
        requests[2].ride_km = 3.0  # 3 + 1.5 planned = 3 x 1.5 direct
        veh = fresh_vehicle(node=0)
        veh.plan = VehiclePlan(
            stops=[Stop(1, PICKUP, 1), Stop(2, DROPOFF, 1), Stop(3, DROPOFF, 2)],
            onboard=1,
        )
        params = GameParams(J=6, detour_max=3.0)
        delta, plan = planned_insertion(veh, new, grid_graph, params, requests)
        assert [(s.request_id, s.action) for s in plan.stops] == [
            (1, PICKUP), (1, DROPOFF), (2, DROPOFF), (3, PICKUP), (3, DROPOFF)
        ]
        assert delta == pytest.approx(1.5)

    def test_detour_bound_steers_insertion(self, grid_graph):
        # passenger a is on board heading to node 3; detouring through b's
        # trip would drag a 3.5 km against 1.5 direct (x2.33), so the default
        # bound forces dropping a first while a loose bound pools
        a = make_request(grid_graph, 1, 0.0, 0, 3)
        b = make_request(grid_graph, 2, 0.0, 4, 8)

        def best_plan(params):
            requests = states_for(a, b)
            requests[1].status = "onboard"
            veh = fresh_vehicle(node=0)
            veh.plan = VehiclePlan(stops=[Stop(3, DROPOFF, 1)], onboard=1)
            return planned_insertion(veh, b, grid_graph, params, requests)

        delta_tight, plan_tight = best_plan(GameParams(J=6, detour_max=1.5))
        delta_loose, plan_loose = best_plan(GameParams(J=6, detour_max=3.0))
        assert [(s.request_id, s.action) for s in plan_tight.stops] == [
            (1, DROPOFF), (2, PICKUP), (2, DROPOFF)
        ]
        assert [(s.request_id, s.action) for s in plan_loose.stops] == [
            (2, PICKUP), (2, DROPOFF), (1, DROPOFF)
        ]
        assert delta_loose == pytest.approx(2.0)
        assert delta_tight == pytest.approx(2.5)


@st.composite
def assign_batches(draw):
    """A batch of requests and a fleet on the 4x4 grid that reach
    ``pci_assign``'s anchor skip and reuse its plan contexts: 1-8 requests;
    4-12 idle vehicles on 1-3 neighbouring shared anchors, some mid-edge
    into their anchor (so their edge remainders differ); 0-4 busy vehicles,
    some mid-edge, each with 1-3 trips on board or assigned; all
    interleaved by id.  Energies lie on both sides of the reserve, some a
    whole number of sixteenths of a km of driving above it, where a
    candidate's drive can use the whole budget.  Returns (batch, fleet
    state, params, now)."""
    nodes = st.integers(min_value=0, max_value=15)
    keys = st.integers(min_value=0, max_value=20)
    # neighbouring anchors: a vehicle mid-edge between two of them sits on
    # one and is anchored at the other
    first = draw(nodes)
    anchors = [first] + draw(st.lists(
        st.sampled_from([to for to, _ in GRID.adjacency[first]]),
        max_size=2, unique=True,
    ))
    n_idle = draw(st.integers(min_value=4, max_value=12))
    n_busy = draw(st.integers(min_value=0, max_value=4))
    ids = draw(st.permutations(range(n_idle + n_busy)))
    # the edge remainders and grid distances are sixteenths of a km
    energies = st.one_of(
        st.floats(min_value=3.0, max_value=4.5),
        st.just(40.0),
        st.integers(0, 64).map(lambda n: PARAMS.e_min + PARAMS.consume_rate * n / 16),
    )
    requests = {}
    vehicles = []
    for vid in ids[:n_idle]:
        anchor = draw(st.sampled_from(anchors))
        veh = Vehicle(id=vid, node=anchor, energy=draw(energies))
        if draw(st.booleans()):  # driving into the anchor from a neighbour
            veh.node = draw(st.sampled_from([to for to, _ in GRID.adjacency[anchor]]))
            veh.edge_head = anchor
            veh.edge_progress = draw(st.integers(min_value=0, max_value=7)) / 16
        vehicles.append(veh)
    rid = 100
    for vid in ids[n_idle:]:
        keyed = []  # (sort key, order drawn, stop): pickups precede their drops
        onboard = 0
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            rid += 1
            origin = draw(nodes)
            dest = draw(nodes.filter(lambda n: n != origin))
            pax = draw(st.integers(min_value=1, max_value=2))
            rs = RequestState(request=make_request(GRID, rid, 0.0, origin, dest, pax))
            if draw(st.booleans()):
                rs.status = ONBOARD
                rs.ride_km = draw(st.integers(min_value=0, max_value=16)) / 16
                onboard += pax
                keyed.append((draw(keys), len(keyed), Stop(dest, DROPOFF, rid)))
            else:
                rs.status = ASSIGNED
                pick, drop = sorted((draw(keys), draw(keys)))
                keyed.append((pick, len(keyed), Stop(origin, PICKUP, rid)))
                keyed.append((drop, len(keyed), Stop(dest, DROPOFF, rid)))
            requests[rid] = rs
        veh = Vehicle(
            id=vid, node=draw(nodes), energy=draw(energies),
            plan=VehiclePlan(stops=[s for _, _, s in sorted(keyed)], onboard=onboard),
        )
        if draw(st.booleans()):
            veh.edge_head = draw(st.sampled_from([to for to, _ in GRID.adjacency[veh.node]]))
            veh.edge_progress = draw(st.integers(min_value=1, max_value=7)) / 16
        vehicles.append(veh)
    batch = []
    for rid in range(1, draw(st.integers(min_value=1, max_value=8)) + 1):
        origin = draw(nodes)
        dest = draw(nodes.filter(lambda n: n != origin))
        new = make_request(GRID, rid, 60.0 * draw(st.integers(0, 2)), origin, dest,
                           draw(st.integers(1, 3)))
        requests[rid] = RequestState(request=new)
        batch.append(new)
    params = small_params(
        seats=draw(st.integers(min_value=2, max_value=5)),
        detour_max=draw(st.sampled_from([1.0, 1.5, 10.0])),
    )
    return batch, FleetState(vehicles=vehicles, requests=requests), params, 600.0


class TestPciAssign:
    @settings(max_examples=300, deadline=None)
    @given(case=assign_batches())
    def test_matches_full_fleet_scan(self, case):
        batch, state, params, now = case
        ref = state.clone()
        out = pci_assign(batch, state.vehicles, GRID, params, now, state.requests)
        expected = full_scan_assign(batch, ref.vehicles, GRID, params, now, ref.requests)
        assert out == expected
        # every vehicle's plan and route, every request's state
        assert state == ref

    @settings(max_examples=200, deadline=None)
    @given(case=assign_batches())
    def test_plan_contexts_match_fresh_insertions(self, case):
        # pci_assign keeps each busy vehicle's plan context through the
        # batch and rebuilds only the winner's: after every assignment,
        # each busy vehicle's cost from its context is bit-equal to a fresh
        # insertion_cost's, which builds its own
        batch, state, params, now = case
        original = transport_scheduler.insertion_cost
        batch_ids = {r.id for r in batch}

        def fresh(vehicle, request, pick_to_drop, new_limit, graph, params,
                  requests, context):
            args = (vehicle, request, pick_to_drop, new_limit, graph, params, requests)
            out = original(*args, context)
            expected = original(*args)
            assert (out is None) == (expected is None)
            if out is not None:
                assert out[1:] == expected[1:] and out[0].hex() == expected[0].hex()
            if any(requests[rid].status == ASSIGNED for rid in batch_ids):
                event("a context evaluated after an assignment")
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transport_scheduler, "insertion_cost", fresh)
            pci_assign(batch, state.vehicles, GRID, params, now, state.requests)

    def test_short_vehicle_does_not_hide_its_anchor(self, grid_graph):
        # vehicles 1 and 2 wait at node 5, but 1 lacks the energy for the
        # 1 km trip; its anchor stays open, so 2 wins over the farther 3
        req = make_request(grid_graph, 1, 0.0, 5, 7)
        short = fresh_vehicle(vid=1, node=5, energy=PARAMS.e_min + 0.1)
        twin = fresh_vehicle(vid=2, node=5)
        far = fresh_vehicle(vid=3, node=15)
        requests = states_for(req)
        assigned, waiting = pci_assign(
            [req], [far, twin, short], grid_graph, PARAMS, 1.0, requests
        )
        assert assigned == [(1, 2)] and not waiting

    def test_builds_one_plan_per_assignment(self, grid_graph, monkeypatch):
        built = []
        original = transport_scheduler._with_trip

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(transport_scheduler, "_with_trip", counting)
        old = make_request(grid_graph, 9, 0.0, 1, 14)
        batch = [make_request(grid_graph, rid, 0.0, rid, 15 - rid) for rid in range(1, 5)]
        requests = states_for(old, *batch)
        busy = fresh_vehicle(vid=0, node=0)
        busy.plan = _with_trip(VehiclePlan(), old, 0, 0)
        fleet = [busy] + [fresh_vehicle(vid=i, node=5 * i % 16) for i in range(1, 6)]
        assigned, waiting = pci_assign(batch, fleet, grid_graph, PARAMS, 1.0, requests)
        assert len(assigned) == len(batch) and not waiting
        assert len(built) == len(assigned)

    def test_single_assignment(self, grid_graph):
        req = make_request(grid_graph, 1, 0.0, 1, 2)
        veh = fresh_vehicle()
        requests = states_for(req)
        assigned, waiting = pci_assign(
            [req], [veh], grid_graph, PARAMS, 10.0, requests
        )
        assert assigned == [(1, 0)] and not waiting
        assert requests[1].status == "assigned"
        assert veh.plan.stops

    def test_no_vehicles_waiting_list(self, grid_graph):
        req = make_request(grid_graph, 1, 0.0, 1, 2)
        assigned, waiting = pci_assign(
            [req], [], grid_graph, PARAMS, 10.0, states_for(req)
        )
        assert not assigned and waiting == [req]

    def test_longest_wait_first(self, grid_graph):
        older = make_request(grid_graph, 7, 0.0, 1, 2)
        newer = make_request(grid_graph, 3, 100.0, 1, 2)
        solo = fresh_vehicle()
        solo_params = GameParams(J=1, seats=1)
        requests = states_for(older, newer)
        assigned, waiting = pci_assign(
            [newer, older], [solo], grid_graph, solo_params, 200.0, requests
        )
        assert assigned[0][0] == 7  # waited longer, wins the only seat

    def test_equal_wait_id_order(self, grid_graph):
        a = make_request(grid_graph, 2, 50.0, 1, 2)
        b = make_request(grid_graph, 9, 50.0, 4, 8)
        veh = fresh_vehicle()
        requests = states_for(a, b)
        assigned, _ = pci_assign([b, a], [veh], grid_graph, PARAMS, 60.0, requests)
        assert [rid for rid, _ in assigned][0] == 2

    def test_evaluates_each_vehicle_once(self, grid_graph, monkeypatch):
        # idle vehicles 1 and 3 share anchor 5, so 3 is skipped once 1 is
        # feasible: anchor 5's row is read at the pickup once.  Each busy
        # vehicle is evaluated by one insertion_cost call
        evaluated = []
        original = transport_scheduler.insertion_cost

        def counting(vehicle, *args):
            evaluated.append(vehicle.id)
            return original(vehicle, *args)

        monkeypatch.setattr(transport_scheduler, "insertion_cost", counting)
        reads = []  # the sources of the rows read at the pickup, node 6
        single_source = grid_graph.single_source

        class Row(dict):
            def __getitem__(self, node):
                if node == 6:
                    reads.append(self.source)
                return super().__getitem__(node)

        def logged(source):
            row, pred = single_source(source)
            logged_row = Row(row)
            logged_row.source = source
            return logged_row, pred

        monkeypatch.setattr(grid_graph, "single_source", logged)
        old = [make_request(grid_graph, 10 + k, 0.0, k, 15 - k) for k in range(3)]
        req = make_request(grid_graph, 1, 0.0, 6, 7)
        requests = states_for(*old, req)
        fleet = [fresh_vehicle(vid=1, node=5), fresh_vehicle(vid=3, node=5)]
        for vid, trip in zip((0, 2, 4), old):
            busy = fresh_vehicle(vid=vid, node=trip.origin)
            busy.plan = _with_trip(VehiclePlan(), trip, 0, 0)
            fleet.append(busy)
        assigned, waiting = pci_assign([req], fleet, grid_graph, PARAMS, 1.0, requests)
        assert assigned and not waiting
        assert evaluated == [0, 2, 4]
        assert reads.count(5) == 1

    def test_vehicle_tie_smaller_id(self, grid_graph):
        req = make_request(grid_graph, 1, 0.0, 5, 6)
        twins = [fresh_vehicle(vid=4, node=5), fresh_vehicle(vid=2, node=5)]
        requests = states_for(req)
        assigned, _ = pci_assign([req], twins, grid_graph, PARAMS, 1.0, requests)
        assert assigned == [(1, 2)]

    def assign_one(self, grid_graph, vids):
        # vehicles at distinct anchors, so the anchor skip hides none
        req = make_request(grid_graph, 1, 0.0, 6, 7)
        fleet = [fresh_vehicle(vid=vid, node=vid) for vid in vids]
        assigned, _ = pci_assign(
            [req], fleet, grid_graph, PARAMS, 1.0, states_for(req)
        )
        return assigned

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(st.integers(-4, 4), min_size=1, max_size=16),
        keep=st.lists(st.booleans(), min_size=16, max_size=16),
    )
    # NEAR_TIE's shape, and the subset without vehicle 0
    @example(steps=[0, -1, -3], keep=[False, True] + [False] * 14)
    def test_dense_near_ties(self, steps, keep):
        # up to 16 vehicles whose costs lie 0.4e-12 apart: the winner is the
        # least (cost, id), and any subset of the fleet holding it picks it
        # too, so taking out vehicles that did not win keeps the winner
        costs = {vid: 1.0 + k * 0.4e-12 for vid, k in enumerate(steps)}
        winner = min(costs, key=lambda vid: (costs[vid], vid))
        subset = [vid for vid in costs if keep[vid] or vid == winner]
        with pytest.MonkeyPatch.context() as mp:
            # vehicle vid stands at node vid; the pickup is node 6
            price_idle_insertions(mp, GRID, 6, costs)
            assert self.assign_one(GRID, list(costs)) == [(1, winner)]
            assert self.assign_one(GRID, subset) == [(1, winner)]


class TestGroupCensus:
    def test_counts(self):
        vehicles = [
            Vehicle(id=0, node=0, energy=40.0),   # region 0, full (>39.375)
            Vehicle(id=1, node=1, energy=30.0),   # region 0
            Vehicle(id=2, node=2, energy=10.0),   # region 1
            Vehicle(id=3, node=3, energy=39.4),   # region 1, full
            Vehicle(id=4, node=3, energy=39.3),   # region 1, not full
        ]
        state = FleetState(vehicles=vehicles, requests={})
        # region 0: 2 moving, 1 full, so d = 1; region 1: 1 moving, 1 full
        groups, members = group_census(state, HALVES, GameParams(), {0, 1, 2})
        assert [(g.m, g.d) for g in groups] == [(1, 1), (2, 0)]
        # the members are exactly each region's unfull vehicles, in id order,
        # as the state's own objects
        assert [[v.id for v in ms] for ms in members] == [[1], [2, 4]]
        assert all(v is vehicles[v.id] for ms in members for v in ms)
        assert [len(ms) for ms in members] == [g.m for g in groups]

    def test_all_full(self):
        vehicles = [Vehicle(id=i, node=i, energy=45.0) for i in range(4)]
        state = FleetState(vehicles=vehicles, requests={})
        groups, members = group_census(state, HALVES, GameParams(), set())
        assert all(g.m == 0 for g in groups) and members == [[], []]


def build_engine(graph, requests, params=PARAMS, vehicles=None, batch_minutes=5.0):
    if vehicles is None:
        vehicles = [fresh_vehicle(vid=i, node=5 * i % 16) for i in range(4)]
    return FleetEngine(
        graph=graph,
        stations=StationSet([0, 15]),
        requests=requests,
        vehicles=vehicles,
        params=params,
        start_epoch=0.0,
        batch_minutes=batch_minutes,
    )


def execute_slot(engine, t, pool_ids, charger_ids):
    """Slot t as the day loop executes it: the dry run of every vehicle in
    the pool or charging, then ``slot_from_dry_run``."""
    eligible = pool_ids | charger_ids
    dry, end = engine.dry_run_demand(t, eligible)
    return engine.slot_from_dry_run(t, eligible, charger_ids, dry, end)


class TestEngine:
    def test_serves_single_request(self, grid_graph):
        req = make_request(grid_graph, 1, 60.0, 1, 3)
        engine = build_engine(grid_graph, [req],
                              vehicles=[fresh_vehicle(vid=0, node=1)])
        engine.run_slot(0, {0})
        rs = engine.state.requests[1]
        assert rs.status == "served"
        assert rs.pickup_time >= 60.0
        assert rs.dropoff_time > rs.pickup_time
        # 1 km trip at 30 km/h = 120 s
        assert rs.dropoff_time - rs.pickup_time == pytest.approx(120.0, abs=1.0)
        assert engine.state.vehicle(0).energy == pytest.approx(40.0 - 0.3)

    def test_pending_requests_match_a_full_scan(self, grid_graph, monkeypatch):
        # every batch offers exactly the released requests still waiting, in
        # release order; three requests share each release time, which falls
        # on a batch start, and one early party too large for any vehicle
        # waits behind later requests that are served
        requests = [
            make_request(grid_graph, rid, 600.0 * (rid // 3), rid % 16, (5 * rid + 3) % 16)
            for rid in range(1, 40)
        ]
        requests[3] = make_request(grid_graph, 4, 600.0, 4, 7, passengers=PARAMS.seats + 1)
        engine = build_engine(
            grid_graph,
            requests,
            vehicles=[fresh_vehicle(vid=0, node=0), fresh_vehicle(vid=1, node=15)],
        )
        offers = []
        original = transport_scheduler.pci_assign

        def checking(pending, fleet, graph, params, now, states, *rest):
            assert pending == [
                rs.request
                for rs in states.values()
                if rs.status == WAITING and rs.request.request_time <= now
            ]
            offers.extend(r.id for r in pending)
            return original(pending, fleet, graph, params, now, states, *rest)

        monkeypatch.setattr(transport_scheduler, "pci_assign", checking)
        for t in range(3):
            engine.run_slot(t, {0, 1})
        # some requests waited through several batches while later ones
        # were served
        states = engine.state.requests
        assert len(offers) > len(set(offers))
        waiting = [r.id for r in requests if states[r.id].status == WAITING]
        served = [r.id for r in requests if states[r.id].status == SERVED]
        assert waiting and served and min(waiting) < max(served)

    def test_energy_tracks_distance(self, grid_graph):
        # 10 km of driving burns 3 kwh
        veh = fresh_vehicle(vid=0, node=0, energy=40.0)
        req = make_request(grid_graph, 1, 0.0, 0, 15)  # 3 km direct
        engine = build_engine(grid_graph, [req], vehicles=[veh])
        engine.run_slot(0, {0})
        moved = 40.0 - engine.state.vehicle(0).energy
        assert moved == pytest.approx(0.3 * 3.0)

    def test_earliest_start_respected(self, grid_graph):
        req = make_request(grid_graph, 1, 0.0, 1, 3, earliest=600.0)
        engine = build_engine(grid_graph, [req],
                              vehicles=[fresh_vehicle(vid=0, node=1)])
        engine.run_slot(0, {0})
        assert engine.state.requests[1].pickup_time == pytest.approx(600.0)

    def test_pickup_waits_within_the_batch(self, grid_graph):
        # the vehicle reaches the origin at 60 s, waits for the earliest
        # start at 150 s inside the first batch, and drops the rider 1 km
        # (120 s) later in that same batch
        req = make_request(grid_graph, 1, 0.0, 1, 3, earliest=150.0)
        engine = build_engine(grid_graph, [req],
                              vehicles=[fresh_vehicle(vid=0, node=0)])
        stats = engine.run_slot(0, {0})
        rs = engine.state.requests[1]
        assert rs.status == SERVED
        assert rs.pickup_time == req.earliest_start
        assert rs.dropoff_time == pytest.approx(270.0)
        assert {b0 for b0, _, _ in stats.burns} == {0.0}

    def test_charging_travel_and_gain(self, grid_graph):
        veh = fresh_vehicle(vid=0, node=5, energy=20.0)
        engine = build_engine(grid_graph, [], vehicles=[veh])
        stats = execute_slot(engine, 0, set(), {0})
        v = engine.state.vehicle(0)
        # station 0 is 1 km away: -0.3 travel, +r charge
        assert v.node == 0
        assert v.energy == pytest.approx(20.0 - 0.3 + PARAMS.r)
        assert stats.charged_kwh == pytest.approx(PARAMS.r)

    def test_charge_capped_at_capacity(self, grid_graph):
        veh = fresh_vehicle(vid=0, node=0, energy=PARAMS.c - 1.0)
        engine = build_engine(grid_graph, [], vehicles=[veh])
        stats = execute_slot(engine, 0, set(), {0})
        assert engine.state.vehicle(0).energy == pytest.approx(PARAMS.c)
        assert stats.charged_kwh == pytest.approx(1.0)

    def test_charger_with_passengers_rejected(self, grid_graph):
        req = make_request(grid_graph, 1, 0.0, 1, 3)
        engine = build_engine(grid_graph, [req],
                              vehicles=[fresh_vehicle(vid=0, node=1)])
        engine.run_slot(0, {0})  # picks up nothing pending? assign+serve
        veh = engine.state.vehicle(0)
        veh.plan.stops.append(Stop(3, DROPOFF, 1))
        with pytest.raises(ValueError, match="has passengers"):
            execute_slot(engine, 1, set(), {0})

    def test_underflow_is_hard_fault(self, grid_graph):
        # a plan the vehicle cannot energetically honor (bypasses the
        # insertion gate) must crash loudly, not clamp silently
        req = make_request(grid_graph, 1, 0.0, 0, 15)
        veh = fresh_vehicle(vid=0, node=0, energy=0.2)
        veh.plan = VehiclePlan(
            stops=[Stop(0, PICKUP, 1), Stop(15, DROPOFF, 1)]
        )
        engine = build_engine(grid_graph, [req], vehicles=[veh])
        engine.state.requests[1].status = "assigned"
        with pytest.raises(EnergyUnderflowError):
            engine.run_slot(0, {0})

    def test_energy_stranded_charger_held_idle(self, grid_graph):
        # cannot reach any station on 0.1 kwh: warned and held, not crashed
        veh = fresh_vehicle(vid=0, node=5, energy=0.1)
        engine = build_engine(grid_graph, [], vehicles=[veh])
        stats = execute_slot(engine, 0, set(), {0})
        assert stats.chargers_short == 1
        assert engine.state.vehicle(0).energy == pytest.approx(0.1)

    def test_slot_ends_with_no_charger_standing(self, grid_graph):
        # a slot too short for vehicle 1 to reach its station: vehicle 0
        # charges where it stands, vehicle 1 stops mid-edge; both end the
        # slot idle, with no route
        params = small_params(speed=0.3)  # 0.3 km of driving a slot
        vehicles = [fresh_vehicle(vid=0, node=0, energy=20.0),
                    fresh_vehicle(vid=1, node=5, energy=20.0)]
        engine = build_engine(grid_graph, [], params=params, vehicles=vehicles)
        stats = execute_slot(engine, 0, set(), {0, 1})
        assert stats.charged_kwh == pytest.approx(params.r)
        assert stats.chargers_short == 1
        for veh in engine.state.vehicles:
            assert veh.route == []
        on_station, mid_edge = engine.state.vehicles
        assert on_station.edge_head is None
        assert mid_edge.edge_head is not None

    def test_idle_vehicle_finishes_its_edge(self, grid_graph):
        # vehicle 1 ends a short charging slot mid-edge; in the next slot,
        # idle, it drives on to the edge's head and stops there
        params = small_params(speed=0.3)  # 0.3 km of driving a slot
        vehicles = [fresh_vehicle(vid=0, node=0, energy=20.0),
                    fresh_vehicle(vid=1, node=5, energy=20.0)]
        engine = build_engine(grid_graph, [], params=params, vehicles=vehicles)
        execute_slot(engine, 0, set(), {0, 1})
        head = engine.state.vehicle(1).edge_head
        assert head is not None
        before = engine.fleet_energy()
        stats = engine.run_slot(1, {0, 1})
        veh = engine.state.vehicle(1)
        assert (veh.node, veh.edge_head, veh.edge_progress) == (head, None, 0.0)
        assert stats.consumed_kwh > 0.0 and stats.charged_kwh == 0.0
        assert engine.fleet_energy() == pytest.approx(before - stats.consumed_kwh)
        assert 1 not in stats.transporting_ids

    @pytest.mark.parametrize("batch_minutes", [25.0, 50.0])
    def test_batches_cover_the_whole_slot(self, batch_minutes):
        # a 40 km trip outlasts the hour, so the vehicle drives through the
        # whole slot: 30 km at 30 km/h, whether or not the batch length
        # divides the slot
        graph = RoadGraph.from_edges(
            {0: (0.0, 0.0), 1: (0.4, 0.0)}, [(0, 1, 40.0), (1, 0, 40.0)]
        )
        req = make_request(graph, 1, 0.0, 0, 1)
        engine = build_engine(graph, [req], vehicles=[fresh_vehicle(vid=0, node=0)],
                              batch_minutes=batch_minutes)
        stats = engine.run_slot(0, {0})
        driven = PARAMS.speed  # km in the one-hour slot
        assert stats.consumed_kwh == pytest.approx(driven * PARAMS.consume_rate)
        assert engine.state.vehicle(0).edge_progress == pytest.approx(driven)

    def test_drives_the_shortest_parallel_edge_as_the_reference(self):
        # every road has a parallel copy of another length, and at 7 km/h
        # batches end mid-edge.  Each slot, served or with an idle vehicle
        # charging, ends as interleaved_slot's, whose drive scans a node's
        # out-edges for each edge's length and the plan for each step's
        # riders: burns, ride km, times and positions, bit for bit
        graph = RoadGraph.from_edges(
            {n: (0.01 * n, 0.0) for n in range(4)},
            [(0, 1, 1.1), (0, 1, 0.4), (1, 0, 0.4), (1, 0, 0.9), (1, 2, 2.0),
             (1, 2, 0.7), (2, 1, 0.7), (2, 3, 0.5), (3, 2, 1.3), (3, 2, 0.5),
             (3, 0, 0.6), (0, 3, 0.6), (0, 3, 0.25)],
        )
        requests = [
            make_request(graph, rid, 400.0 * rid, rid % 4, (rid + 1 + rid % 2) % 4,
                         1 + rid % 2)
            for rid in range(1, 14)
        ]

        def engine():
            mid = fresh_vehicle(vid=2, node=1, energy=12.0)
            mid.edge_head, mid.edge_progress = 2, 0.3  # 0.4 km left, not 1.7
            return FleetEngine(
                graph=graph, stations=StationSet([0]), requests=requests,
                vehicles=[fresh_vehicle(vid=0, node=0), fresh_vehicle(vid=1, node=3),
                          mid],
                params=small_params(speed=7.0), start_epoch=0.0, batch_minutes=5.0,
            )

        live, ref = engine(), engine()
        fleet = {0, 1, 2}
        charged = 0
        for t in range(4):
            idle = [v.id for v in live.state.vehicles if not v.plan.stops]
            chargers = set(idle[:1]) if t % 2 else set()
            stats = execute_slot(live, t, fleet - chargers, chargers)
            expected = interleaved_slot(ref, t, fleet - chargers, chargers)
            assert stats == expected and live.state == ref.state
            charged += len(chargers)
        assert charged
        rides = [rs.ride_km for rs in live.state.requests.values() if rs.status == SERVED]
        assert rides and min(rides) > 0.0

    def test_determinism(self, grid_graph):
        reqs = [
            make_request(grid_graph, i, 60.0 * i, (3 * i) % 16, (3 * i + 5) % 16)
            for i in range(1, 7)
        ]
        states = []
        for _ in range(2):
            engine = build_engine(grid_graph, reqs)
            engine.run_slot(0, {0, 1, 2, 3})
            states.append(engine.state)
        assert states[0] == states[1]


class TestDryRun:
    def test_no_requests_zero_demand(self, grid_graph):
        engine = build_engine(grid_graph, [])
        moving = engine.dry_run_demand(0, {0, 1, 2, 3})[0].transporting_ids
        census, members = group_census(engine.state, HALVES, PARAMS, moving)
        assert moving == set() and [g.d for g in census] == [0, 0]
        assert [len(ms) for ms in members] == [g.m for g in census]

    def test_state_restored_exactly(self, grid_graph):
        reqs = [make_request(grid_graph, i, 30.0 * i, i, i + 4) for i in range(1, 5)]
        engine = build_engine(grid_graph, reqs)
        before = copy.deepcopy(engine.state)  # shares nothing with the state
        _, end_state = engine.dry_run_demand(0, {0, 1, 2, 3})
        assert end_state != before  # the dry run did move the fleet
        assert engine.state == before

    def test_dry_run_is_the_slot_without_chargers(self, grid_graph):
        # vehicle 0 waits on every pickup but holds less than a slot's
        # driving: the dry run ends exactly as the slot run on the eligible
        # vehicles, and as one on the whole fleet, since run_slot itself
        # never assigns vehicle 0 a trip
        reqs = [make_request(grid_graph, i, 300.0 * i, 5, (5 + 3 * i) % 16)
                for i in range(1, 5)]

        def engine():
            short = fresh_vehicle(vid=0, node=5, energy=PARAMS.slot_consumption - 0.5)
            others = [fresh_vehicle(vid=i, node=5 * i % 16) for i in range(1, 4)]
            return build_engine(grid_graph, reqs, vehicles=[short] + others)

        dry = engine()
        eligible = {v.id for v in dry.state.vehicles
                    if v.energy >= PARAMS.slot_consumption}
        assert eligible == {1, 2, 3}
        stats, end_state = dry.dry_run_demand(0, eligible)
        assert stats.transporting_ids
        for pool in (eligible, {0, 1, 2, 3}):
            ref = engine()
            assert ref.run_slot(0, pool) == stats
            assert ref.state == end_state

    def test_demand_formula(self, grid_graph):
        # region 0 nodes: {0,1,4,5,8,9,12,13}; 3 unfull + 1 full vehicle there
        vehicles = [
            Vehicle(id=0, node=1, energy=30.0),
            Vehicle(id=1, node=4, energy=30.0),
            Vehicle(id=2, node=5, energy=30.0),
            Vehicle(id=3, node=8, energy=44.0),  # full
        ]
        reqs = [
            make_request(grid_graph, i, 60.0 * i, node, node + 2)
            for i, node in enumerate([1, 4, 5, 8], start=1)
        ]
        engine = build_engine(grid_graph, reqs, vehicles=vehicles)
        moving = engine.dry_run_demand(0, {0, 1, 2, 3})[0].transporting_ids
        # n counts the moving vehicles by the region they start the slot in
        n = [0, 0]
        for v in engine.state.vehicles:
            if v.id in moving:
                n[0 if v.node % 4 < 2 else 1] += 1
        assert sum(n) > 0
        census, _ = group_census(engine.state, HALVES, PARAMS, moving)
        d_total = sum(g.d for g in census)
        d = [g.d for g in census]
        # recompute f from the (restored) engine state
        for i in range(2):
            f_i = sum(
                1 for v in engine.state.vehicles
                if (0 if v.node % 4 < 2 else 1) == i
                and v.energy > PARAMS.full_threshold
            )
            assert d[i] == max(n[i] - f_i, 0)
        assert d_total == sum(d)


@st.composite
def charging_days(draw):
    """A small day for ``FleetEngine``: a 3x3 to 4x5 grid whose two-way
    streets get drawn lengths (so burns of different vehicles differ and
    the order of their sum matters), 1-2 stations, 2-7 vehicles on both
    sides of the eligibility floor and of the full threshold, 0-24
    requests over 2-3 one-hour slots, a speed of 30 or 3 km/h, and 5-, 10-
    or 25-minute batches.  Returns (engine, T)."""
    rows = draw(st.integers(min_value=3, max_value=4))
    cols = draw(st.integers(min_value=3, max_value=5))
    lengths = st.integers(min_value=2, max_value=15).map(lambda n: n / 10 + 1e-3)
    coords = {r * cols + c: (c * 0.01, r * 0.01) for r in range(rows) for c in range(cols)}
    edges = []
    for nid in coords:
        for nb in (nid + 1 if (nid + 1) % cols else None, nid + cols):
            if nb is not None and nb in coords:
                km = draw(lengths)
                edges += [(nid, nb, km), (nb, nid, km)]
    graph = RoadGraph.from_edges(coords, edges)
    n_nodes = len(coords)
    nodes = st.integers(min_value=0, max_value=n_nodes - 1)
    T = draw(st.integers(min_value=2, max_value=3))
    # 3 km/h leaves chargers short of their stations, mid-edge
    params = small_params(
        seats=draw(st.integers(min_value=1, max_value=4)),
        speed=draw(st.sampled_from([30.0, 3.0])),
    )
    seconds = T * 3600
    requests = []
    for rid in range(1, draw(st.integers(min_value=0, max_value=24)) + 1):
        origin = draw(nodes)
        dest = (origin + draw(st.integers(1, n_nodes - 1))) % n_nodes
        requests.append(make_request(
            graph, rid, draw(st.integers(0, seconds - 1)), origin, dest,
            draw(st.integers(1, 2)),
        ))
    energies = st.sampled_from([5.0, 9.5, 20.0, 39.0, 42.0]) | st.floats(3.0, 45.0)
    vehicles = [
        Vehicle(id=i, node=draw(nodes), energy=draw(energies))
        for i in range(draw(st.integers(min_value=2, max_value=7)))
    ]
    stations = StationSet(draw(st.lists(nodes, min_size=1, max_size=2, unique=True)))
    engine = FleetEngine(
        graph=graph, stations=stations, requests=requests, vehicles=vehicles,
        params=params, start_epoch=0.0,
        batch_minutes=draw(st.sampled_from([5.0, 10.0, 25.0])),
    )
    return engine, T


def _outcome(call):
    """``call()``'s result, or the type of the energy underflow it raised."""
    try:
        return call()
    except EnergyUnderflowError as err:
        return type(err)


class TestSlotFromDryRun:
    @settings(max_examples=150, deadline=None)
    @given(day=charging_days(), data=st.data())
    def test_equals_run_slot(self, day, data):
        # each slot: chargers drawn from every vehicle without stops at the
        # slot start, dry-run transporters included; the slot executed from
        # the dry run ends exactly as the interleaved reference from the same
        # start: state, statistics and the energy's bits
        engine, T = day
        need = engine.params.slot_consumption
        for t in range(T):
            eligible = {v.id for v in engine.state.vehicles if v.energy >= need}
            dry, end = engine.dry_run_demand(t, eligible)
            free = [v.id for v in engine.state.vehicles if not v.plan.stops]
            chargers = set(data.draw(
                st.lists(st.sampled_from(free), unique=True) if free else st.just([])
            ))
            ref = copy.copy(engine)
            ref.state = engine.state.clone()
            expected = _outcome(
                lambda: interleaved_slot(ref, t, eligible - chargers, chargers)
            )
            if chargers:
                event("chargers")
                if not chargers.isdisjoint(dry.transporting_ids):
                    event("a charger the dry run assigned")
            if any(vid in chargers for _, vid, _ in dry.burns):
                event("a charger drove in the dry run")
            got = _outcome(
                lambda: engine.slot_from_dry_run(t, eligible, chargers, dry, end)
            )
            assert got == expected
            if expected is EnergyUnderflowError:
                return
            assert got.consumed_kwh.hex() == expected.consumed_kwh.hex()
            assert engine.state == ref.state
            engine = ref

    def test_drops_the_chargers_dry_run_drive(self, grid_graph, monkeypatch):
        # vehicle 1 starts mid-edge: in the dry run it finishes the edge
        # idle, as a charger it drives on to station 15; the slot keeps
        # vehicle 0's trip from the dry run, without serving it again, and
        # only the charger's own drive
        req = make_request(grid_graph, 1, 0.0, 1, 3)
        idle = fresh_vehicle(vid=1, node=9, energy=20.0)
        idle.edge_head, idle.edge_progress = 10, 0.25
        engine = build_engine(
            grid_graph, [req], vehicles=[fresh_vehicle(vid=0, node=1), idle]
        )
        dry, end = engine.dry_run_demand(0, {0, 1})
        assert dry.transporting_ids == {0}
        assert {vid for _, vid, _ in dry.burns} == {0, 1}
        ref = copy.copy(engine)
        ref.state = engine.state.clone()
        expected = interleaved_slot(ref, 0, {0}, {1})
        monkeypatch.delattr(FleetEngine, "run_slot")
        stats = engine.slot_from_dry_run(0, {0, 1}, {1}, dry, end)
        assert stats == expected and engine.state == ref.state
        assert stats.charged_kwh == PARAMS.r
        assert engine.state.vehicle(1).node == 15
        assert stats.burns != dry.burns

    def test_an_assigned_charger_is_served_again(self, grid_graph, monkeypatch):
        # the dry run gives the trip to vehicle 0, which then charges: the
        # slot is served again without it, and vehicle 1 takes the trip
        req = make_request(grid_graph, 1, 0.0, 1, 3)
        engine = build_engine(grid_graph, [req], vehicles=[
            fresh_vehicle(vid=0, node=1, energy=20.0), fresh_vehicle(vid=1, node=6),
        ])
        dry, end = engine.dry_run_demand(0, {0, 1})
        assert dry.transporting_ids == {0}
        ref = copy.copy(engine)
        ref.state = engine.state.clone()
        expected = interleaved_slot(ref, 0, {1}, {0})
        original = FleetEngine.run_slot
        pools = []

        def run_slot(self, t, pool_ids):
            pools.append(pool_ids)
            return original(self, t, pool_ids)

        monkeypatch.setattr(FleetEngine, "run_slot", run_slot)
        stats = engine.slot_from_dry_run(0, {0, 1}, {0}, dry, end)
        assert pools == [{1}]
        assert stats == expected and engine.state == ref.state
        assert stats.transporting_ids == {1} and stats.charged_kwh == PARAMS.r
        assert engine.state.requests[1].status == SERVED


def mid_day_engine():
    """An engine stopped at a slot boundary with a vehicle mid-edge carrying
    passengers, a multi-stop plan and a route."""
    graph = make_grid_graph()
    reqs = [
        make_request(graph, 1, 3000.0, 1, 14),
        make_request(graph, 2, 3300.0, 4, 11),
        make_request(graph, 3, 3300.0, 12, 3, passengers=2),
        make_request(graph, 4, 3300.0, 2, 13),
    ]
    engine = build_engine(graph, reqs)
    execute_slot(engine, 0, {0, 1, 2}, {3})
    return engine


class TestSnapshotClone:
    def test_mid_day_state_exercises_every_container(self):
        state = mid_day_engine().state
        assert any(v.plan.stops and v.plan.onboard for v in state.vehicles)
        assert any(v.route and v.edge_head is not None for v in state.vehicles)
        assert {rs.status for rs in state.requests.values()} >= {SERVED, ONBOARD}

    @settings(max_examples=40, deadline=None)
    @given(
        km=st.floats(min_value=1e-6, max_value=5.0),
        node=st.integers(min_value=0, max_value=15),
        request_status=st.sampled_from(["waiting", "assigned", ONBOARD, SERVED]),
    )
    def test_snapshot_unaffected_by_live_mutation(self, km, node, request_status):
        # the live state changes the way the engine changes it: a state a
        # plan holds is written in place, any other one is replaced
        engine = mid_day_engine()
        before = copy.deepcopy(engine.state)
        snap = engine.snapshot()
        requests = engine.state.requests
        held = {s.request_id for v in engine.state.vehicles for s in v.plan.stops}
        for rid, rs in requests.items():
            if rid in held:
                rs.status = request_status
                rs.pickup_time = km
                rs.dropoff_time = km
                rs.ride_km += km
            else:
                requests[rid] = RequestState(rs.request, request_status, km, km,
                                             rs.ride_km + km)
        for veh in engine.state.vehicles:
            veh.energy -= km
            veh.plan.stops.append(Stop(node, DROPOFF, 1))
            veh.plan.onboard += 1
            veh.route.append(node)
            veh.edge_head = node
            veh.edge_progress += km
        assert engine.state != before
        assert snap == before
        engine.restore(snap)
        assert engine.state is snap  # adopted, not copied

    def test_clone_shares_exactly_the_states_no_plan_holds(self):
        state = mid_day_engine().state
        dup = state.clone()
        held = {s.request_id for v in state.vehicles for s in v.plan.stops}
        assert held and set(state.requests) - held
        assert list(dup.requests) == list(state.requests)
        for rid, rs in state.requests.items():
            if rid in held:
                assert rs.status in (ASSIGNED, ONBOARD), rs
                assert dup.requests[rid] is not rs and dup.requests[rid] == rs
            else:
                assert rs.status in (WAITING, SERVED), rs
                assert dup.requests[rid] is rs

    def test_clone_keeps_every_field(self):
        req = TripRequest(id=1, request_time=0.0, earliest_start=5.0, origin=2,
                          destination=7, passengers=2, direct_km=1.5)
        veh = Vehicle(
            id=3, node=6, energy=12.5,
            plan=VehiclePlan(stops=[Stop(7, DROPOFF, 1)], onboard=2),
            edge_head=7, edge_progress=0.25, route=[11, 15],
        )
        rs = RequestState(request=req, status=ONBOARD, pickup_time=10.0,
                          dropoff_time=20.0, ride_km=0.7)
        state = FleetState(vehicles=[veh], requests={1: rs})
        dup = state.clone()
        for original, copied in ((veh, dup.vehicles[0]), (rs, dup.requests[1])):
            assert copied is not original
            for f in dataclasses.fields(original):
                value = getattr(original, f.name)
                if f.default_factory is not dataclasses.MISSING:
                    default = f.default_factory()
                else:
                    default = f.default
                # a field left at its default would pass whatever clone() did
                assert value != default, f.name
                assert getattr(copied, f.name) == value, f.name
        copied = dup.vehicles[0]
        assert copied.plan is not veh.plan and copied.plan.stops is not veh.plan.stops
        assert copied.route is not veh.route
        # frozen objects are shared, not copied
        assert dup.requests[1].request is req
        assert copied.plan.stops[0] is veh.plan.stops[0]

    def test_state_equality_sees_every_field(self):
        # a new value in any field of a vehicle or a request state (the
        # frozen request aside) must make two states unequal, and a field
        # added to either class fails here until these tables know it
        vehicle_values = {
            "id": lambda v: v.id + 100,
            "node": lambda v: v.node + 1,
            "energy": lambda v: v.energy - 0.5,
            "plan": lambda v: VehiclePlan(stops=v.plan.stops + [Stop(0, DROPOFF, 1)],
                                          onboard=v.plan.onboard),
            "edge_head": lambda v: 99,
            "edge_progress": lambda v: v.edge_progress + 0.1,
            "route": lambda v: v.route + [3],
        }
        request_values = {
            "status": lambda rs: WAITING if rs.status == SERVED else SERVED,
            "pickup_time": lambda rs: -1.0,
            "dropoff_time": lambda rs: -1.0,
            "ride_km": lambda rs: rs.ride_km + 0.1,
        }
        assert set(vehicle_values) == {f.name for f in dataclasses.fields(Vehicle)}
        assert set(request_values) == {
            f.name for f in dataclasses.fields(RequestState)
        } - {"request"}
        state = mid_day_engine().state
        assert state.clone() == state

        def changed(pick, name, value):
            dup = state.clone()
            obj = pick(dup)
            setattr(obj, name, value(obj))
            return dup != state

        def replaced(rid, name, value):
            # a clone shares the states no plan holds, so the change goes
            # into a new state, as the engine's assignment does
            dup = state.clone()
            rs = dup.requests[rid]
            dup.requests[rid] = dataclasses.replace(rs, **{name: value(rs)})
            return dup != state

        for k in range(len(state.vehicles)):
            pick = lambda s, k=k: s.vehicles[k]
            for name, value in vehicle_values.items():
                assert changed(pick, name, value), (k, name)
            onboard = lambda v: VehiclePlan(list(v.plan.stops), v.plan.onboard + 1)
            assert changed(pick, "plan", onboard), (k, "plan.onboard")
        for rid in state.requests:
            for name, value in request_values.items():
                assert replaced(rid, name, value), (rid, name)


class TestCensusIdentity:
    def test_population_conserved(self, grid_graph):
        engine = build_engine(grid_graph, [])
        groups, members = group_census(engine.state, HALVES, PARAMS, set())
        full = [v for v in engine.state.vehicles if v.energy > PARAMS.full_threshold]
        assert sum(g.m for g in groups) + len(full) == len(engine.state.vehicles)
        for g in groups:
            assert g.m == len(members[g.region])
            assert g.d == 0
