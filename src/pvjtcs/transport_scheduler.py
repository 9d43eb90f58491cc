"""Ride matching and the in-slot fleet engine.

Requests are batched every few simulated minutes, sorted by how long their
passengers have been waiting, and inserted into vehicle plans at the cheapest
feasible pickup/dropoff positions (seat capacity, detour bound and an energy
reserve gate every candidate).  Every least-cost choice is exact: the least
cost wins, and a tie goes to the first candidate in scan order (the smaller
vehicle id, the first (pickup, dropoff) positions).  An engine is built
with its fleet.  A vehicle's activity is read, never stored, and one
movement rule drives every vehicle: one with stops serves them in order,
and one without stops drives the rest of its edge and its route, then
stops.  A charger is a vehicle without stops whose route ends on its
station.  A slot is executed one way.
The dry run (``FleetEngine.dry_run_demand``) answers the planning question
"who would transport this slot": clone the fleet, serve the slot with
every eligible vehicle on the live state, then make the clone live again
and hand back the dry run's statistics and end state.  The clone copies
only the request states a plan holds, because a request state is written
in place only while a plan holds it: assignment replaces a waiting state
in the request dict, the slot writes the states of its stops and only
those, and a served state is final.  Every other state is shared between
the clone and the live fleet and never written.  Given the chargers,
``FleetEngine.slot_from_dry_run`` keeps the dry run's service when no
charger transported in it, and otherwise serves the slot again without
the chargers (``run_slot``).  It then routes only the chargers to their
stations, drives them, books their charge and clears their routes, so no
charging state outlives the slot.  ``group_census`` builds each region's
group with its members and counts the moving vehicles.  A forecast that
ignores energy needs no mode of its own: its vehicles hold ``math.inf``
kwh, so every energy check passes and driving leaves them at inf.

Vehicles move along cached shortest paths with fractional edge progress, so
energy equals driven distance exactly and a vehicle committed to an edge
finishes it before rerouting.
"""

from __future__ import annotations

import heapq
import logging
import math
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from functools import reduce
from operator import add, attrgetter, itemgetter
from typing import Sequence

from pvjtcs.model import GameParams, PvGroup
from pvjtcs.network import (
    RegionMap,
    RoadGraph,
    StationSet,
    distance,
    nearest_station,
    shortest_path,
)

LOG = logging.getLogger(__name__)

PICKUP = "pickup"
DROPOFF = "dropoff"

WAITING = "waiting"
ASSIGNED = "assigned"
ONBOARD = "onboard"
SERVED = "served"


class EnergyUnderflowError(RuntimeError):
    """A vehicle was driven below zero energy; eligibility filtering failed."""


@dataclass(frozen=True)
class TripRequest:
    id: int
    request_time: float
    earliest_start: float
    origin: int
    destination: int
    passengers: int
    direct_km: float = 0.0

    def __post_init__(self) -> None:
        if self.passengers < 1:
            raise ValueError(f"request {self.id}: passengers must be >= 1")
        if self.origin == self.destination:
            raise ValueError(f"request {self.id}: origin equals destination")
        if self.earliest_start < self.request_time:
            raise ValueError(f"request {self.id}: earliest start precedes request")


@dataclass(frozen=True)
class Stop:
    node: int
    action: str
    request_id: int


@dataclass
class VehiclePlan:
    stops: list[Stop] = field(default_factory=list)
    onboard: int = 0

    def copy(self) -> "VehiclePlan":
        return VehiclePlan(stops=list(self.stops), onboard=self.onboard)


def _shallow_copy(obj):
    """New instance of ``obj``'s class sharing every field value."""
    dup = object.__new__(type(obj))
    dup.__dict__.update(obj.__dict__)
    return dup


@dataclass
class Vehicle:
    """One PV: where it is, its energy, its plan and its movement.

    What it is doing is read, never stored: it serves while ``plan.stops``
    is non-empty, and otherwise drives the rest of its edge and its route
    (a charger's route ends on its station; an idle vehicle's is empty).
    """

    id: int
    node: int
    energy: float
    plan: VehiclePlan = field(default_factory=VehiclePlan)
    # movement: committed edge (must be finished before rerouting) + route
    edge_head: int | None = None
    edge_progress: float = 0.0
    route: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.energy < 0.0:
            raise ValueError(f"PV {self.id} has negative energy {self.energy}")

    def anchor(self) -> int:
        """Node all route planning starts from."""
        return self.edge_head if self.edge_head is not None else self.node

    def clone(self) -> "Vehicle":
        """Independent copy: own plan and route, every other field shared
        (they are immutable values)."""
        dup = _shallow_copy(self)
        dup.plan = self.plan.copy()
        dup.route = list(self.route)
        return dup


@dataclass
class RequestState:
    """Where one request stands.  Written in place only while a vehicle
    plan holds a stop for it (assigned or on board); a waiting state is
    replaced on assignment, and a served state is final, so a
    ``FleetState.clone`` shares both."""

    request: TripRequest
    status: str = WAITING
    pickup_time: float | None = None
    dropoff_time: float | None = None
    ride_km: float = 0.0


@dataclass
class FleetState:
    vehicles: list[Vehicle]
    requests: dict[int, RequestState]

    def vehicle(self, vid: int) -> Vehicle:
        return self.vehicles[vid]

    def clone(self) -> "FleetState":
        """Independent copy of everything the simulation mutates.

        Vehicles are cloned, and so are the request states their plans hold,
        the only ones written in place (see ``RequestState``).  The new
        request dict shares every other state, waiting or served, and the
        frozen ``TripRequest`` and ``Stop`` objects.
        """
        requests = self.requests.copy()
        held = {stop.request_id for veh in self.vehicles for stop in veh.plan.stops}
        for rid in held:
            requests[rid] = _shallow_copy(requests[rid])
        return FleetState(
            vehicles=[v.clone() for v in self.vehicles], requests=requests
        )


def _edge_remainder(vehicle: Vehicle, graph: RoadGraph) -> float:
    if vehicle.edge_head is None:
        return 0.0
    return graph.edge_km[vehicle.node][vehicle.edge_head] - vehicle.edge_progress


def _ride_limit(request: TripRequest, params: GameParams) -> float:
    """Longest on-vehicle distance the detour bound allows the request."""
    return params.detour_max * max(request.direct_km, 1e-9) + 1e-9


class PlanContext:
    """What every insertion into one busy vehicle's plan shares: nothing
    here depends on the request, so it holds while the plan, the vehicle
    and the states of its plan's requests stay as they are, as they do
    within ``pci_assign`` for every vehicle but a winner.

    Built in one pass over the k stops.  ``nodes[0]`` is the anchor and
    ``nodes[m + 1]`` the node of stop m; ``rows[m]`` is the distance row of
    ``nodes[m]``, ``legs[m]`` the km from ``nodes[m]`` to ``nodes[m + 1]``
    and ``prefix[m]`` the km to reach ``nodes[m]`` (``base``: to the end).
    ``load[m]`` counts the passengers aboard on arrival at stop m
    (``load[k]``: at the end); ``slack[m]`` is how much drop m's ride may
    still grow (inf for pickups) and ``picked_at[m]`` the index of its
    pickup, -1 if already on board; ``slack_of`` maps a drop's request id
    to its slack.  ``fits_after[j]``: every load after stop j (old stops
    j..k-1) fits.  ``broken``: the plan already breaks a detour bound.
    """

    __slots__ = ("vehicle", "budget", "nodes", "rows", "legs", "prefix", "base",
                 "load", "slack", "picked_at", "slack_of", "fits_after", "broken",
                 "_tails")

    def __init__(
        self,
        vehicle: Vehicle,
        graph: RoadGraph,
        params: GameParams,
        requests: dict[int, RequestState],
    ):
        stops = vehicle.plan.stops
        k = len(stops)
        self.vehicle = vehicle
        self.budget = vehicle.energy - params.e_min
        anchor = vehicle.anchor()
        row = graph.single_source(anchor)[0]  # KeyError: unknown node
        self.nodes = nodes = [anchor]
        self.rows = rows = [row]
        self.legs = legs = []
        self.prefix = prefix = [_edge_remainder(vehicle, graph)]
        self.load = load = [vehicle.plan.onboard]
        self.slack = slack = [math.inf] * k
        self.picked_at = picked_at = [-1] * k
        self.slack_of = slack_of = {}
        self.broken = False
        pickup_index: dict[int, int] = {}
        for m, stop in enumerate(stops):
            node = stop.node
            next_row = graph.single_source(node)[0]
            leg = row[node]
            nodes.append(node)
            rows.append(next_row)
            legs.append(leg)
            prefix.append(prefix[-1] + leg)
            row = next_row
            rs = requests[stop.request_id]
            if stop.action == PICKUP:
                pickup_index[stop.request_id] = m
                load.append(load[-1] + rs.request.passengers)
                continue
            load.append(load[-1] - rs.request.passengers)
            q = pickup_index.get(stop.request_id)
            if q is None:
                ride = rs.ride_km + prefix[m + 1]
            else:
                ride = prefix[m + 1] - prefix[q + 1]
                picked_at[m] = q
            slack[m] = _ride_limit(rs.request, params) - ride
            slack_of[stop.request_id] = slack[m]
            if slack[m] < 0.0:
                self.broken = True
        self.base = prefix[-1]
        self.fits_after = fits_after = [True] * (k + 1)
        for m in range(k - 1, -1, -1):
            fits_after[m] = fits_after[m + 1] and load[m + 1] <= params.seats
        self._tails: list[list[float] | None] = [None] * (k + 1)

    def tail(self, i: int) -> list[float]:
        """``tail[j]`` for a pickup before stop i: the least slack of the
        drops at j or later picked up before i, on whose rides the whole
        added distance lands.  Built once per i."""
        tail = self._tails[i]
        if tail is None:
            slack, picked_at = self.slack, self.picked_at
            tail = [math.inf] * len(self.nodes)
            for m in range(len(slack) - 1, i - 1, -1):
                tail[m] = min(tail[m + 1], slack[m]) if picked_at[m] < i else tail[m + 1]
            self._tails[i] = tail
        return tail


def insertion_cost(
    vehicle: Vehicle,
    request: TripRequest,
    pick_to_drop: float,
    new_limit: float,
    graph: RoadGraph,
    params: GameParams,
    requests: dict[int, RequestState],
    context: PlanContext | None = None,
) -> tuple[float, int, int] | None:
    """``(delta, i, j)`` of the cheapest feasible insertion, or None: the
    pickup goes before stop i, the dropoff before stop j >= i, and delta is
    the added distance; ``_with_trip`` builds that plan.  At equal delta
    the first (i, j) in lexicographic order wins.  ``pick_to_drop``
    (origin to destination) and ``new_limit`` (``_ride_limit``) depend only
    on the request, and ``context`` (the vehicle's ``PlanContext``, built
    here when not given) only on the vehicle, so ``pci_assign`` computes
    each once.

    Tries every pickup position i and dropoff position j >= i, keeping
    candidates that respect seat capacity at every prefix, the detour bound
    for every affected passenger, and the vehicle's energy reserve; no plan
    is built.  For k > 0 planned stops a call makes O(k) lookups in the
    context's rows and in the origin's and the destination's: the legs to
    and from the new pickup and dropoff.  A candidate's added distance is
    then O(1) arithmetic.  Its checks use the old plan's loads and each old
    drop's detour slack (how far its ride may still grow), with running
    extrema over the stops between pickup and dropoff, so the whole search
    is O(k^2 * seats).
    """
    origin, dest, pax = request.origin, request.destination, request.passengers
    seats = params.seats
    if context is None:
        if not vehicle.plan.stops:
            # an idle vehicle has one candidate: to the pickup, then the
            # dropoff (``pci_assign`` evaluates it inline, by these rules)
            if vehicle.plan.onboard + pax > seats:
                return None
            to_pick = graph.single_source(vehicle.anchor())[0][origin]
            delta = to_pick + pick_to_drop
            base = _edge_remainder(vehicle, graph)
            budget = vehicle.energy - params.e_min
            if (base + delta) * params.consume_rate > budget or pick_to_drop > new_limit:
                return None
            return delta, 0, 0
        context = PlanContext(vehicle, graph, params, requests)
    if context.broken:
        return None  # the old plan already breaks a detour bound

    stops = vehicle.plan.stops
    k = len(stops)
    inf = math.inf
    budget = context.budget
    base = context.base
    legs, prefix, load = context.legs, context.prefix, context.load
    slack, picked_at, slack_of = context.slack, context.picked_at, context.slack_of
    fits_after = context.fits_after
    from_origin = graph.single_source(origin)[0]
    from_dest = graph.single_source(dest)[0]
    # index 0 of from_pick, to_drop and from_drop is never read
    to_pick = [row[origin] for row in context.rows]
    to_drop = [row[dest] for row in context.rows]
    from_pick = [from_origin[n] for n in context.nodes]
    from_drop = [from_dest[n] for n in context.nodes]

    best: tuple[float, int, int] | None = None
    for i in range(k + 1):
        if i and load[i] > seats:
            break  # the old plan overflows before any later pickup
        if load[i] + pax > seats:
            continue
        tail = context.tail(i)

        # j == i: pickup and dropoff back to back
        delta = to_pick[i] + pick_to_drop
        if i < k:
            delta += from_drop[i + 1] - legs[i]
        if (
            (best is None or delta < best[0])
            and fits_after[i]
            and (base + delta) * params.consume_rate <= budget
            and delta <= tail[i]
            and pick_to_drop <= new_limit
        ):
            best = (delta, i, i)
        if i == k:
            break

        # j > i: the pickup detour shifts stops i..j-1, the full delta the rest
        pick_detour = to_pick[i] + from_pick[i + 1] - legs[i]
        peak = load[i]
        inside = inf  # least slack of drops in [i, j) picked up before i
        riding: dict[int, float] = {}  # picked in [i, j), dropped at j or later
        for j in range(i + 1, k + 1):
            m = j - 1  # old stop now between the pickup and the dropoff
            peak = max(peak, load[j])
            if peak + pax > seats:
                break
            stop = stops[m]
            if stop.action == PICKUP:
                riding[stop.request_id] = slack_of.get(stop.request_id, inf)
            elif picked_at[m] >= i:
                del riding[stop.request_id]
            else:
                inside = min(inside, slack[m])
                if pick_detour > inside:
                    break
            if not fits_after[j]:
                continue
            drop_detour = to_drop[j]
            if j < k:
                drop_detour += from_drop[j + 1] - legs[j]
            delta = pick_detour + drop_detour
            if best is not None and delta >= best[0]:
                continue
            if (base + delta) * params.consume_rate > budget or delta > tail[j]:
                continue
            if riding and drop_detour > min(riding.values()):
                continue
            ride = from_pick[i + 1] + (prefix[j] - prefix[i + 1]) + to_drop[j]
            if ride > new_limit:
                continue
            best = (delta, i, j)

    return best


def _with_trip(plan: VehiclePlan, request: TripRequest, i: int, j: int) -> VehiclePlan:
    """``plan`` with the request's pickup before stop i, dropoff before stop j."""
    pick = Stop(node=request.origin, action=PICKUP, request_id=request.id)
    drop = Stop(node=request.destination, action=DROPOFF, request_id=request.id)
    stops = plan.stops
    return VehiclePlan(
        stops=stops[:i] + [pick] + stops[i:j] + [drop] + stops[j:],
        onboard=plan.onboard,
    )


def pci_assign(
    pending: Sequence[TripRequest],
    fleet: Sequence[Vehicle],
    graph: RoadGraph,
    params: GameParams,
    now: float,
    requests: dict[int, RequestState],
) -> tuple[list[tuple[int, int]], list[TripRequest]]:
    """Assign pending requests to vehicles, longest wait first.

    Each request goes to the first vehicle, in id order, at the fleet-wide
    least insertion cost, or onto the returned waiting list.  Returns the
    (request id, vehicle id) assignments made.  An assigned request's
    waiting state is replaced in ``requests``, not written, so a fleet
    clone that shares it keeps it waiting.

    The call keeps a pool of the fleet, in id order, of what no request
    changes.  An idle vehicle's entry holds its anchor, the anchor's
    distance row, the remainder of the edge it drives and its energy
    budget, and the vehicle is evaluated inline by ``insertion_cost``'s
    idle rules.  A busy vehicle's entry is its ``PlanContext``, which
    ``insertion_cost`` is given.  After an assignment only the winner's
    entry is rebuilt, when a later request reads it, and only the
    winner's plan is built.  Idle vehicles at one anchor are skipped after
    the first feasible one: a skipped vehicle's one candidate costs the
    same bit-equal ``to_pick + pick_to_drop`` and it comes later in id
    order, so it cannot win.  An infeasible vehicle marks nothing, because
    energy and the remainder of the edge being driven differ between
    vehicles at one anchor.

    The winner is the least (cost, id) over the feasible vehicles.  Removing
    vehicles that did not win leaves it the least, so every winner stays.
    """
    order = sorted(pending, key=lambda r: (-(now - r.request_time), r.id))
    assignments: list[tuple[int, int]] = []
    waiting: list[TripRequest] = []
    if not order:
        return assignments, waiting
    seats, rate = params.seats, params.consume_rate
    idle: list[tuple[Vehicle, int, dict[int, float], float, float]] = []
    busy: list[PlanContext] = []
    for veh in sorted(fleet, key=attrgetter("id")):
        if veh.plan.stops:
            busy.append(PlanContext(veh, graph, params, requests))
            continue
        anchor = veh.anchor()
        idle.append((
            veh, anchor, graph.single_source(anchor)[0],
            _edge_remainder(veh, graph), veh.energy - params.e_min,
        ))
    for n, request in enumerate(order, 1):
        origin, pax = request.origin, request.passengers
        pick_to_drop = distance(graph, origin, request.destination)
        new_limit = _ride_limit(request, params)
        best: tuple[float, int] | None = None  # least (cost, id) so far
        if pick_to_drop <= new_limit:
            done_anchors: set[int] = set()  # an idle vehicle there was feasible
            for k, (veh, anchor, row, base, budget) in enumerate(idle):
                if anchor in done_anchors or veh.plan.onboard + pax > seats:
                    continue
                delta = row[origin] + pick_to_drop
                if (base + delta) * rate > budget:
                    continue
                done_anchors.add(anchor)
                if best is None or delta < best[0]:
                    best, winner, spot, i, j = (delta, veh.id), veh, (idle, k), 0, 0
        for k, context in enumerate(busy):
            veh = context.vehicle
            out = insertion_cost(
                veh, request, pick_to_drop, new_limit, graph, params, requests, context
            )
            if out is not None and (best is None or (out[0], veh.id) < best):
                best, winner, spot = (out[0], veh.id), veh, (busy, k)
                _, i, j = out
        if best is None:
            waiting.append(request)
            continue
        winner.plan = _with_trip(winner.plan, request, i, j)
        winner.route = []  # plan changed: reroute from the anchor
        requests[request.id] = RequestState(request, ASSIGNED)
        assignments.append((request.id, winner.id))
        if n == len(order):
            break  # no later request reads the winner's entry
        entries, k = spot
        context = PlanContext(winner, graph, params, requests)
        if entries is busy:
            busy[k] = context
        else:
            del idle[k]
            insort(busy, context, key=lambda c: c.vehicle.id)
    return assignments, waiting


def group_census(
    state: FleetState, region_map: RegionMap, params: GameParams, moving: set[int]
) -> tuple[list[PvGroup], list[list[Vehicle]]]:
    """Per-region groups and their members.

    Each region's group counts its unfully charged members m and the
    demand d = max(n - f, 0), where f counts the region's fully charged
    vehicles and n the ``moving`` ones (those the slot's dry run saw
    transporting, by their region at the slot start).  ``members[i]``
    lists region i's unfull vehicles in fleet order, so
    ``groups[i].m == len(members[i])``."""
    n_regions = region_map.n_regions
    members: list[list[Vehicle]] = [[] for _ in range(n_regions)]
    f = [0] * n_regions
    n = [0] * n_regions
    for veh in state.vehicles:
        region = region_map.region_of(veh.node)
        if veh.energy > params.full_threshold:
            f[region] += 1
        else:
            members[region].append(veh)
        if veh.id in moving:
            n[region] += 1
    groups = [
        PvGroup(region=i, m=len(members[i]), d=max(n[i] - f[i], 0))
        for i in range(n_regions)
    ]
    return groups, members


@dataclass
class SlotStats:
    """What one slot execution did."""

    consumed_kwh: float = 0.0  # ``_fold(burns)``
    charged_kwh: float = 0.0
    # vehicles that ran a stop in the slot or end it with stops planned
    transporting_ids: set = field(default_factory=set)
    chargers_short: int = 0  # assigned to charge but never reached a station
    # every drive, in the order the slot made them: (batch start, vehicle
    # id, kwh), so by batch, then vehicle id
    burns: list = field(default_factory=list)


def _fold(burns: list) -> float:
    """The burns' kwh added left to right from 0.0, the additions a
    ``total += kwh`` loop makes, run in C.  Not ``sum()``: from Python 3.12
    it adds with compensation, which can move the last bit."""
    return reduce(add, map(itemgetter(2), burns), 0.0)


class FleetEngine:
    """Drives vehicles through slots; owns all mutable simulation state."""

    def __init__(
        self,
        graph: RoadGraph,
        stations: StationSet,
        requests: Sequence[TripRequest],
        vehicles: Sequence[Vehicle],
        params: GameParams,
        start_epoch: float,
        batch_minutes: float,
    ):
        self.graph = graph
        self.stations = stations
        self.params = params
        self.start_epoch = float(start_epoch)
        self.batch_seconds = batch_minutes * 60.0
        self.all_requests = sorted(requests, key=lambda r: (r.request_time, r.id))
        self._release_times = [r.request_time for r in self.all_requests]
        # cloned: dry runs swap out the state wholesale, so caller-held
        # vehicle objects must not alias the live fleet
        self.state = FleetState(
            vehicles=sorted((v.clone() for v in vehicles), key=lambda v: v.id),
            requests={r.id: RequestState(request=r) for r in self.all_requests},
        )

    # -- state management ----------------------------------------------

    def snapshot(self) -> FleetState:
        return self.state.clone()

    def restore(self, state: FleetState) -> None:
        """Make ``state`` live (adopted, not copied: restore a state once)."""
        self.state = state

    def slot_bounds(self, t: int) -> tuple[float, float]:
        return self.start_epoch + t * 3600.0, self.start_epoch + (t + 1) * 3600.0

    def fleet_energy(self) -> float:
        return sum(v.energy for v in self.state.vehicles)

    # -- slot execution --------------------------------------------------

    def _batches(self, t: int):
        """``(b0, b1)`` of each batch of slot t; the last is clipped to the
        slot end."""
        t0, t1 = self.slot_bounds(t)
        n_batches = max(1, math.ceil((t1 - t0) / self.batch_seconds - 1e-9))
        for k in range(n_batches):
            b0 = t0 + k * self.batch_seconds
            yield b0, min(b0 + self.batch_seconds, t1)

    def run_slot(self, t: int, pool_ids: set[int]) -> SlotStats:
        """Serve the slot's requests with the pool; every vehicle with stops
        or an edge to finish drives (no vehicle holds a route without
        either between slots).  Returns energy/serving statistics."""
        stats = SlotStats()
        state = self.state
        pool = [state.vehicle(vid) for vid in sorted(pool_ids)]

        # Requests are released in ``all_requests`` order and never return
        # to waiting, so the first one that can still be waiting only moves
        # forward within the slot.
        requests = state.requests
        first_open = 0
        need = self.params.slot_consumption
        for b0, b1 in self._batches(t):
            released = bisect_right(self._release_times, b0)
            while (
                first_open < released
                and requests[self.all_requests[first_open].id].status != WAITING
            ):
                first_open += 1
            pending = [
                r
                for r in self.all_requests[first_open:released]
                if requests[r.id].status == WAITING
            ]
            if pending:
                # energy falls within the slot, so the filter runs per batch
                able = [v for v in pool if v.energy >= need]
                pci_assign(pending, able, self.graph, self.params, b0, requests)
            for veh in state.vehicles:
                # ``_advance`` returns at once for any other vehicle
                if veh.plan.stops or veh.edge_head is not None:
                    self._advance(veh, b0, b1, stats)

        for veh in state.vehicles:
            if veh.plan.stops:
                stats.transporting_ids.add(veh.id)
        stats.consumed_kwh = _fold(stats.burns)
        return stats

    # -- dry runs ---------------------------------------------------------

    def dry_run_demand(
        self, t: int, eligible_ids: set[int]
    ) -> tuple[SlotStats, FleetState]:
        """Simulate the slot with every eligible vehicle serving and leave the
        live state at the slot start.  Returns the dry run's statistics and
        end state, ``run_slot(t, eligible_ids)`` from the slot start, which
        ``slot_from_dry_run`` turns into the realized slot."""
        start = self.snapshot()
        stats = self.run_slot(t, eligible_ids)
        end = self.state
        self.restore(start)
        return stats, end

    def slot_from_dry_run(
        self,
        t: int,
        eligible_ids: set[int],
        charger_ids: set[int],
        dry: SlotStats,
        end: FleetState,
    ) -> SlotStats:
        """Execute slot t, in which ``charger_ids`` charge and the rest of
        ``eligible_ids`` serve, from its dry run ``dry, end =
        dry_run_demand(t, eligible_ids)``, with the live state still at the
        slot start.  Each charger with the energy to reach its nearest station
        gets a route there, which it drives like any vehicle without stops; the
        station is known only here.  The slot ends with every charger on its
        station gaining its charge, and every charger dropping its route
        (one left mid-edge finishes that edge next slot, like any idle
        vehicle).

        The service is the dry run's when no charger transported in it
        (``dry.transporting_ids``), which holds when nobody charges.  Then
        taking the chargers out of the pool keeps every assignment (see
        ``pci_assign``), and a charger touches no request and no other
        vehicle.  Otherwise the chargers'
        slot-start vehicles are cloned and the pool ``eligible_ids -
        charger_ids`` serves the slot again on the live state.  Either way
        the chargers' slot-start vehicles are then driven to their stations
        batch by batch, book their charge and replace their selves in the
        served end state, which becomes live.

        ``consumed_kwh`` is a left fold of every burn in (batch, vehicle id)
        order, so it is folded over the service's burns without the
        chargers', merged with the chargers' drive by (batch, vehicle id);
        no key appears in both.
        """
        state = self.state
        chargers = [state.vehicle(vid) for vid in sorted(charger_ids)]
        for veh in chargers:
            if veh.plan.stops:
                raise ValueError(f"vehicle {veh.id} has passengers; cannot charge")
        served = dry
        if not charger_ids.isdisjoint(dry.transporting_ids):
            chargers = [veh.clone() for veh in chargers]
            served = self.run_slot(t, eligible_ids - charger_ids)
            end = state
        stats = SlotStats(transporting_ids=served.transporting_ids)
        station_of: dict[int, int] = {}  # held-idle chargers are absent
        for veh in chargers:  # in id order, toward the nearest station
            station, dist = nearest_station(self.graph, veh.anchor(), self.stations)
            if dist * self.params.consume_rate > veh.energy:
                # the reserve floors are meant to rule this out
                LOG.warning(
                    "vehicle %d: %.1f kwh cannot cover %.1f km to a station; "
                    "holding idle", veh.id, veh.energy, dist,
                )
                stats.chargers_short += 1
                continue
            station_of[veh.id] = station
            self._retarget(veh, station)
        for b0, b1 in self._batches(t):
            for veh in chargers:
                self._advance(veh, b0, b1, stats)
        for veh in chargers:
            end.vehicles[veh.id] = veh
            if veh.id not in station_of:
                continue  # held idle, already counted short
            if veh.node == station_of[veh.id] and veh.edge_head is None:
                gain = min(self.params.r, self.params.c - veh.energy)
                veh.energy += gain
                stats.charged_kwh += gain
            else:
                stats.chargers_short += 1
            veh.route = []
        kept = [burn for burn in served.burns if burn[1] not in charger_ids]
        stats.burns = list(heapq.merge(kept, stats.burns))
        stats.consumed_kwh = _fold(stats.burns)
        self.restore(end)
        return stats

    # -- movement ---------------------------------------------------------

    def _retarget(self, veh: Vehicle, target: int) -> None:
        anchor = veh.anchor()
        if anchor == target:
            veh.route = []
            return
        _, path = shortest_path(self.graph, anchor, target)
        veh.route = path[1:]

    def _advance(
        self, veh: Vehicle, b0: float, b1: float, stats: SlotStats
    ) -> None:
        """Move one vehicle through the batch window by one rule.  A vehicle
        with stops executes the first stop when it stands on that stop's
        node and otherwise routes to that node; a vehicle without stops
        drives the rest of its edge and its route, then stops (an idle
        vehicle finishing its edge, a charger reaching its station).  At a
        node it commits to its next edge before the budget check, so a
        vehicle at a node at the batch end takes that edge at progress 0.

        Each drive is charged to the vehicle's energy (a vehicle holding
        ``math.inf`` kwh keeps it), logged for the slot as a burn of the
        batch starting at ``b0``, and added to the ride of every passenger
        on board: the riders are collected once and updated at stops."""
        now = b0
        requests = self.state.requests
        edge_km = self.graph.edge_km
        speed = self.params.speed
        rate = self.params.consume_rate
        burns = stats.burns
        stops = veh.plan.stops
        riders = [
            rs
            for stop in stops
            if stop.action == DROPOFF
            and (rs := requests[stop.request_id]).status == ONBOARD
        ]
        head = veh.edge_head
        while True:
            if head is None:
                if stops and veh.node == stops[0].node:
                    stop = stops[0]
                    rs = requests[stop.request_id]
                    if stop.action == PICKUP:
                        if now < rs.request.earliest_start:
                            if rs.request.earliest_start >= b1:
                                return  # wait through the batch boundary
                            now = rs.request.earliest_start
                        rs.status = ONBOARD
                        rs.pickup_time = max(now, rs.request.earliest_start)
                        veh.plan.onboard += rs.request.passengers
                        riders.append(rs)
                    else:
                        rs.status = SERVED
                        rs.dropoff_time = now
                        veh.plan.onboard -= rs.request.passengers
                        riders = [r for r in riders if r is not rs]
                    stops.pop(0)
                    stats.transporting_ids.add(veh.id)
                    continue
                if not veh.route:
                    if not stops:
                        return
                    self._retarget(veh, stops[0].node)
                head = veh.edge_head = veh.route.pop(0)
                veh.edge_progress = 0.0

            budget_km = (b1 - now) * speed / 3600.0
            if budget_km <= 1e-12:
                return
            remaining = edge_km[veh.node][head] - veh.edge_progress
            step = remaining if remaining < budget_km else budget_km
            if step > 0.0:
                cost = step * rate
                burns.append((b0, veh.id, cost))
                energy = veh.energy - cost
                if energy < -1e-9:
                    raise EnergyUnderflowError(f"vehicle {veh.id} fell to {energy:.3f} kwh")
                veh.energy = 0.0 if energy < 0.0 else energy
                for rs in riders:
                    rs.ride_km += step
            now += step * 3600.0 / speed
            if step >= remaining - 1e-12:
                veh.node = head
                head = veh.edge_head = None
                veh.edge_progress = 0.0
            else:
                veh.edge_progress += step
                return
