"""Day-long co-simulation of transportation and charging.

Two schemes over the same scenario:

* the joint scheme: a day-ahead program decides how much energy to buy each
  slot, and every slot the per-region game splits each group between serving
  and charging at the equilibrium ratio;
* the greedy baseline: everyone serves on demand and every idle unfully
  charged vehicle charges, whatever the price.

Both run the same day loop, ``_run_day``; a scheme is only its charger rule.
Each slot, a dry run with every eligible vehicle serving says who would
transport, the rule picks the chargers from that, and the fleet engine's
``slot_from_dry_run`` executes the slot from the dry run: the eligible
vehicles that do not charge serve, the chargers charge.  It keeps the dry
run's service when no charger transported in it, and serves the slot again
without the chargers otherwise.  The loop then checks the energy balance
and records one ``SlotMetrics``.
Both schemes total the same records, so their energy bills and service
levels are directly comparable.
``SlotMetrics`` is the one per-slot schema: the ``summary.json`` slot list
and the slot CSVs are its fields.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import asdict, dataclass, field
from typing import Sequence

from pvjtcs.charging_scheduler import ChargingPlan, DayAheadInputs, schedule_charging
from pvjtcs.model import FeasibleSet, GameParams, PriceCurve, PvGroup, clamp_demand
from pvjtcs.network import RegionMap, RoadGraph, StationSet
from pvjtcs.transport_scheduler import (
    SERVED,
    FleetEngine,
    TripRequest,
    Vehicle,
    group_census,
)
from pvjtcs.vi_solver import sspm_solve

JTCS = "jtcs"
TGC = "tgc"

LOG = logging.getLogger(__name__)


@dataclass
class Scenario:
    """Everything one simulation run needs, seeds included: one hour-long
    slot per price from ``start_epoch``; defaults live in cli.CONFIG_DEFAULTS."""

    graph: RoadGraph
    stations: StationSet
    region_map: RegionMap
    requests: Sequence[TripRequest]
    prices: PriceCurve
    params: GameParams
    seed: int
    start_epoch: float
    batch_minutes: float
    init_energy_range: tuple[float, float]

    def __post_init__(self) -> None:
        horizon = self.start_epoch + self.T * 3600.0
        for r in self.requests:
            if not self.start_epoch <= r.request_time < horizon:
                raise ValueError(
                    f"request {r.id} at t={r.request_time} outside the simulated day"
                )
        lo, hi = self.init_energy_range
        if not 0.0 <= lo <= hi <= self.params.c:
            raise ValueError("initial energy range outside [0, battery capacity]")
        # a batch under a second would split each slot into countless batches
        if not 1.0 <= self.batch_minutes * 60.0 < math.inf:
            raise ValueError(
                f"batch_minutes {self.batch_minutes} is not finite and at least "
                "one second (1/60)"
            )

    @property
    def T(self) -> int:
        return len(self.prices)

    def build_fleet(self) -> list[Vehicle]:
        """Seeded initial fleet: positions and energies."""
        rng = random.Random(self.seed)
        nodes = self.graph.nodes
        J = self.params.J
        starts = [nodes[rng.randrange(len(nodes))] for _ in range(J)]
        lo, hi = self.init_energy_range
        energies = [rng.uniform(lo, hi) for _ in range(J)]
        return [
            Vehicle(id=i, node=starts[i], energy=energies[i]) for i in range(J)
        ]

    def engine(self, fleet: Sequence[Vehicle]) -> FleetEngine:
        """A fleet engine running a clone of ``fleet``."""
        return FleetEngine(
            graph=self.graph,
            stations=self.stations,
            requests=self.requests,
            vehicles=fleet,
            params=self.params,
            start_epoch=self.start_epoch,
            batch_minutes=self.batch_minutes,
        )


@dataclass
class SlotMetrics:
    """One executed slot; its fields are the columns of the slot CSV and the
    keys of ``summary.json``'s slot list, in this order."""

    slot: int
    transport_pvs: int
    consumed_kwh: float
    charged_kwh: float
    payment_cents: float
    fleet_energy_kwh: float
    served: int
    waiting: int


@dataclass
class RunSummary:
    mode: str
    seed: int
    slots: list[SlotMetrics]
    final_fleet_energy: float
    total_charged_kwh: float
    total_payment_cents: float
    average_price: float | None  # cents/kwh; None when nothing charged
    served: int
    waiting: int
    mean_trip_minutes: float | None
    mean_wait_minutes: float | None
    mean_travel_minutes: float | None
    # the joint scheme's day-ahead plan and the inputs it was solved from
    plan: ChargingPlan | None = None
    plan_inputs: DayAheadInputs | None = None
    clamp_shortfall_kwh: float = 0.0
    vi_iterations: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "total_charged_kwh": self.total_charged_kwh,
            "total_payment_cents": self.total_payment_cents,
            "average_price_cents_per_kwh": self.average_price,
            "served": self.served,
            "waiting": self.waiting,
            "mean_trip_minutes": self.mean_trip_minutes,
            "mean_wait_minutes": self.mean_wait_minutes,
            "mean_travel_minutes": self.mean_travel_minutes,
            "final_fleet_energy_kwh": self.final_fleet_energy,
            "clamp_shortfall_kwh": self.clamp_shortfall_kwh,
            "planned_e_plus": list(self.plan.e_plus) if self.plan else None,
            "vi_iterations": self.vi_iterations,
            "slots": [asdict(s) for s in self.slots],
        }


def eligibility_filter(vehicles, params: GameParams) -> set[int]:
    """Transport-eligible ids: enough energy for a worst-case slot of driving."""
    floor = params.slot_consumption
    return {v.id for v in vehicles if v.energy >= floor}


def infinite_energy_dry_run(
    scenario: Scenario, fleet: list[Vehicle]
) -> tuple[list[float], list[int]]:
    """Serve the whole day from ``fleet`` with energy ignored: per-slot
    consumed kwh and transporting vehicle counts (the day-ahead demand
    signals).  The engine's clone of ``fleet`` holds ``math.inf`` kwh per
    vehicle; ``fleet`` itself is left untouched."""
    engine = scenario.engine(fleet)
    for veh in engine.state.vehicles:
        veh.energy = math.inf
    consumed: list[float] = []
    transports: list[int] = []
    all_ids = {v.id for v in engine.state.vehicles}
    for t in range(scenario.T):
        stats = engine.run_slot(t, all_ids)
        consumed.append(stats.consumed_kwh)
        transports.append(len(stats.transporting_ids))
    return consumed, transports


def plan_day_ahead(scenario: Scenario, fleet: list[Vehicle]):
    """Algorithm step 1: dry-run the day from ``fleet`` (left untouched),
    then price-optimize the charging."""
    consumed, transports = infinite_energy_dry_run(scenario, fleet)
    inputs = DayAheadInputs(
        consumed=consumed,
        demand_counts=transports,
        prices=[scenario.prices[t] for t in range(scenario.T)],
        e_init=sum(v.energy for v in fleet),
        params=scenario.params,
    )
    return schedule_charging(inputs), inputs


def _split_group(group: PvGroup, x_star: float, members: list) -> list[int]:
    """The chargers of one group: the members that do not transport.

    The ceil(m*x) vehicles with the highest remaining energy transport;
    vehicles already carrying passengers are committed and counted first.
    If commitments exceed the quota, the charging side shrinks; nothing
    reports the excess.
    """
    phi = math.ceil(group.m * x_star - 1e-12)
    busy = sum(1 for v in members if v.plan.stops)
    idle_by_energy = sorted(
        (v for v in members if not v.plan.stops), key=lambda v: (-v.energy, v.id)
    )
    return [v.id for v in idle_by_energy[max(phi - busy, 0):]]


def run_jtcs(scenario: Scenario) -> RunSummary:
    """The joint scheme: day-ahead charging plan + per-slot equilibrium."""
    fleet = scenario.build_fleet()
    plan, plan_inputs = plan_day_ahead(scenario, fleet)
    params = scenario.params
    vi_iterations: list[int] = []

    def chargers_of(t, state, moving) -> set[int]:
        planned = plan.e_plus[t]
        game_groups = []
        if planned > 1e-9:
            census, members = group_census(
                state, scenario.region_map, params, moving
            )
            game_groups = [g for g in census if g.m > 0]
        if not game_groups:
            # nothing to charge, or nobody unfully charged to do it: the
            # feasible set degenerates to everyone transporting
            vi_iterations.append(0)
            return set()
        fset = FeasibleSet(
            m=[g.m for g in game_groups],
            d_total=float(sum(g.d for g in census)),
            e_plus=planned,
            r=params.r,
        )
        fset = clamp_demand(fset)
        if fset.e_plus != planned:
            LOG.debug(
                "slot %d: charging demand clamped %.3f -> %.3f kwh",
                t, planned, fset.e_plus,
            )
        x_star, trace = sspm_solve(game_groups, fset, scenario.prices[t], params)
        vi_iterations.append(len(trace))
        return {
            vid
            for g, x in zip(game_groups, x_star)
            for vid in _split_group(g, float(x), members[g.region])
        }

    summary = _run_day(JTCS, scenario, fleet, chargers_of)
    # realized charge can trail the plan (clamping, the ceil split,
    # vehicles committed to passengers); it is never reconciled
    for slot, planned in zip(summary.slots, plan.e_plus):
        if planned - slot.charged_kwh > 1e-9:
            LOG.debug("slot %d: charged %.3f of planned %.3f kwh",
                      slot.slot, slot.charged_kwh, planned)
    summary.plan = plan
    summary.plan_inputs = plan_inputs
    summary.clamp_shortfall_kwh = max(
        0.0, sum(plan.e_plus) - summary.total_charged_kwh
    )
    summary.vi_iterations = vi_iterations
    return summary


def run_tgc(scenario: Scenario) -> RunSummary:
    """Greedy baseline: serve first, then charge every idle unfull vehicle."""
    threshold = scenario.params.full_threshold

    def chargers_of(t, state, moving) -> set[int]:
        return {
            v.id
            for v in state.vehicles
            if v.energy <= threshold and v.id not in moving and not v.plan.stops
        }

    return _run_day(TGC, scenario, scenario.build_fleet(), chargers_of)


def _run_day(mode, scenario, fleet, chargers_of) -> RunSummary:
    """Run the day from ``fleet``.  ``chargers_of(t, state, moving)`` is the
    scheme's charger rule, given the slot-start state and the ids the slot's
    dry run saw transporting.  A vehicle below ``slot_consumption`` is left
    out of the pool at no cost: ``run_slot`` assigns no trip to it in any
    batch, and energy only falls within a slot."""
    engine = scenario.engine(fleet)
    slots: list[SlotMetrics] = []
    for t in range(scenario.T):
        eligible = eligibility_filter(engine.state.vehicles, scenario.params)
        stats, end_state = engine.dry_run_demand(t, eligible)
        chargers = chargers_of(t, engine.state, stats.transporting_ids)
        before = engine.fleet_energy()
        stats = engine.slot_from_dry_run(t, eligible, chargers, stats, end_state)
        after = engine.fleet_energy()
        drift = after - (before - stats.consumed_kwh + stats.charged_kwh)
        if abs(drift) > 1e-9:
            raise AssertionError(f"energy ledger does not balance: drift {drift:.3e}")
        slots.append(_slot_metrics(engine, scenario, t, stats, after))
    return _summarize(mode, scenario, engine, slots)


def _slot_metrics(engine, scenario, t, stats, fleet_energy) -> SlotMetrics:
    _, slot_end = engine.slot_bounds(t)
    served = 0
    waiting = 0
    for rs in engine.state.requests.values():
        if rs.status == SERVED:
            served += 1
        elif rs.request.request_time < slot_end:
            waiting += 1
    return SlotMetrics(
        slot=t,
        transport_pvs=len(stats.transporting_ids),
        consumed_kwh=stats.consumed_kwh,
        charged_kwh=stats.charged_kwh,
        payment_cents=scenario.prices[t] * stats.charged_kwh,
        fleet_energy_kwh=fleet_energy,
        served=served,
        waiting=waiting,
    )


def _summarize(mode, scenario, engine, slots) -> RunSummary:
    served_states = [
        rs for rs in engine.state.requests.values() if rs.status == SERVED
    ]
    waits = [
        (rs.pickup_time - rs.request.request_time) / 60.0 for rs in served_states
    ]
    travels = [(rs.dropoff_time - rs.pickup_time) / 60.0 for rs in served_states]
    trips = [
        (rs.dropoff_time - rs.request.request_time) / 60.0 for rs in served_states
    ]
    total_charged = sum(s.charged_kwh for s in slots)
    total_payment = sum(s.payment_cents for s in slots)
    return RunSummary(
        mode=mode,
        seed=scenario.seed,
        slots=slots,
        final_fleet_energy=engine.fleet_energy(),
        total_charged_kwh=total_charged,
        total_payment_cents=total_payment,
        average_price=(total_payment / total_charged) if total_charged > 0 else None,
        served=len(served_states),
        waiting=len(engine.state.requests) - len(served_states),
        mean_trip_minutes=(sum(trips) / len(trips)) if trips else None,
        mean_wait_minutes=(sum(waits) / len(waits)) if waits else None,
        mean_travel_minutes=(sum(travels) / len(travels)) if travels else None,
    )
