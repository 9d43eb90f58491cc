"""Day-ahead charging demand: minimize the day's energy bill.

Given the consumed-energy profile of an unconstrained (infinite-energy) dry
run, the per-slot transportation counts and the price curve, pick how much
the fleet charges in every slot.  The program is linear: the fleet energy
follows the bookkeeping recursion, every slot keeps a reserve so the next
slot's driving and the trip to a station are always covered, the day must
not end below its starting energy (or a configured terminal target), slot
charging is capped by the vehicles not needed for transportation, and fleet
energy never exceeds total battery capacity.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from pvjtcs.model import GameParams
from pvjtcs.simplex import EQ, GE, LinearProgram, LpInfeasibleError, solve_lp


class ChargingInfeasibleError(ValueError):
    """The reserve/terminal requirements cannot be met; explains why."""


@dataclass
class DayAheadInputs:
    """Inputs to the day-ahead program.

    ``consumed[t]`` is the fleet's driving energy in slot t from the
    infinite-energy dry run, ``demand_counts[t]`` the number of vehicles that
    run transported in slot t, ``prices[t]`` the electricity price, and
    ``e_init`` the fleet's total energy entering slot 0.  When
    ``terminal_reserve_kwh`` is set it replaces ``e_init`` as the end-of-day
    floor (multi-day chaining knob).
    """

    consumed: Sequence[float]
    demand_counts: Sequence[int]
    prices: Sequence[float]
    e_init: float
    params: GameParams
    terminal_reserve_kwh: float | None = None

    def __post_init__(self) -> None:
        self.consumed = [float(v) for v in self.consumed]
        self.demand_counts = [int(v) for v in self.demand_counts]
        self.prices = [float(p) for p in self.prices]
        T = len(self.consumed)
        if T == 0:
            raise ValueError("need at least one slot")
        if not len(self.demand_counts) == len(self.prices) == T:
            raise ValueError("consumed/demand_counts/prices must share length")
        # every check is written so that it fails for NaN
        for name in ("consumed", "prices"):
            for t, v in enumerate(getattr(self, name)):
                if not 0.0 <= v < math.inf:
                    raise ValueError(
                        f"{name} must be finite and nonnegative, got {v} at slot {t}"
                    )
        J = self.params.J
        if any(not 0 <= dc <= J for dc in self.demand_counts):
            raise ValueError(f"demand counts must lie in [0, J={J}]")
        if not 0.0 <= self.e_init <= J * self.params.c:
            raise ValueError("initial energy outside [0, fleet capacity]")
        reserve = self.terminal_reserve_kwh
        if reserve is not None and not -math.inf < reserve <= J * self.params.c:
            raise ValueError(
                "terminal_reserve_kwh must be finite and at most fleet capacity "
                f"{J * self.params.c} kwh, got {reserve}"
            )

    @property
    def T(self) -> int:
        return len(self.consumed)

    def cap(self, t: int) -> float:
        """Most slot t can charge: r per vehicle not needed to transport."""
        return max(self.params.J - self.demand_counts[t], 0) * self.params.r

    def reserve_floor(self, t: int) -> float:
        """Least fleet energy entering slot t: (1 + rho) times the larger of
        the slot's driving and every vehicle's minimum energy."""
        par = self.params
        return (1.0 + par.rho) * max(self.consumed[t], par.J * par.e_min)

    @property
    def terminal_floor(self) -> float:
        """Least fleet energy at the end of the day."""
        if self.terminal_reserve_kwh is None:
            return self.e_init
        return self.terminal_reserve_kwh

    def first_unmet_floor(self) -> tuple[int, float]:
        """The floor that charging every slot to its cap misses first, and
        the shortfall: ``(t, kwh)`` for the reserve of slot t in 1..T-1, or
        ``(T, kwh)`` for the end-of-day floor.

        Charging to ``cap(t)`` with the fleet's energy held at or below
        ``J*c`` gives the most energy the fleet can hold at every floor (the
        program leaves the end of the day unbounded, but its floor is at
        most ``J*c``), so no plan meets a floor this trajectory misses.
        When it misses none, the floor with the least margin is returned
        with a shortfall of zero or below.
        """
        top = self.params.J * self.params.c
        energy = self.e_init
        least = (self.T, -math.inf)
        for t in range(1, self.T + 1):
            energy = min(energy - self.consumed[t - 1] + self.cap(t - 1), top)
            floor = self.reserve_floor(t) if t < self.T else self.terminal_floor
            short = floor - energy
            if short > 0.0:
                return t, short
            if short > least[1]:
                least = (t, short)
        return least


@dataclass
class ChargingPlan:
    """Per-slot charging demands with the implied fleet-energy trajectory."""

    e_plus: list[float]
    e_remaining: list[float]
    cost: float


def build_lp(inputs: DayAheadInputs) -> LinearProgram:
    """Assemble the day-ahead program.

    Variables are ``E+[t]`` for all T slots (columns 0..T-1) and ``Er[t]``
    for t >= 1 (column T+t-1; the slot-0 energy is data).  Rows: the energy
    recursion (equalities), the per-slot reserve floors, and the terminal
    floor; the charging caps and fleet capacity are variable bounds.
    """
    T = inputs.T
    par = inputs.params
    A = np.zeros((2 * T - 1, 2 * T - 1))
    b = np.empty(2 * T - 1)
    for t in range(T - 1):
        # energy recursion: Er[t+1] = Er[t] - E-[t] + E+[t]
        A[t, T + t] = 1.0
        A[t, t] = -1.0
        b[t] = -inputs.consumed[t]
        if t == 0:
            b[t] += inputs.e_init
        else:
            A[t, T + t - 1] = -1.0
        # reserve: Er[t+1] >= (1+rho) * max(E-[t+1], J*e_min)
        A[T - 1 + t, T + t] = 1.0
        b[T - 1 + t] = inputs.reserve_floor(t + 1)
    # terminal: Er[T-1] - E-[T-1] + E+[T-1] >= end-of-day floor
    A[-1, T - 1] = 1.0
    b[-1] = inputs.terminal_floor + inputs.consumed[T - 1]
    if T > 1:
        A[-1, -1] = 1.0
    else:
        b[-1] -= inputs.e_init
    return LinearProgram(
        c=list(inputs.prices) + [0.0] * (T - 1),
        A=A,
        senses=[EQ] * (T - 1) + [GE] * T,
        b=b,
        upper=[inputs.cap(t) for t in range(T)] + [par.J * par.c] * (T - 1),
    )


def schedule_charging(inputs: DayAheadInputs) -> ChargingPlan:
    """Build, solve and repackage the day-ahead program.

    The returned trajectory is re-derived through the recursion from the
    optimal charging sequence, so the bookkeeping identity holds exactly; all
    constraint families are then verified within 1e-6.
    """
    try:
        sol = solve_lp(build_lp(inputs))
    except LpInfeasibleError as err:
        t, short = inputs.first_unmet_floor()
        # inside the simplex's phase-1 tolerance the pass may find no miss
        short = max(short, 0.0)
        if t < inputs.T:
            detail = (
                f"slot {t} needs {inputs.reserve_floor(t):.1f} kwh in reserve "
                f"but charging caps leave it {short:.1f} kwh short"
            )
        else:
            detail = f"the end-of-day energy floor cannot be met (short {short:.1f} kwh)"
        raise ChargingInfeasibleError(
            f"day-ahead charging plan infeasible: {detail}"
        ) from err

    T = inputs.T
    e_plus = [float(sol.x[t]) for t in range(T)]
    e_remaining = [inputs.e_init]
    for t in range(T - 1):
        e_remaining.append(e_remaining[t] - inputs.consumed[t] + e_plus[t])
    plan = ChargingPlan(
        e_plus=e_plus,
        e_remaining=e_remaining,
        cost=float(sum(p * e for p, e in zip(inputs.prices, e_plus))),
    )
    _verify(inputs, plan)
    return plan


def _verify(inputs: DayAheadInputs, plan: ChargingPlan, tol: float = 1e-6) -> None:
    par = inputs.params
    T = inputs.T
    for t in range(T):
        if not -tol <= plan.e_plus[t] <= inputs.cap(t) + tol:
            raise AssertionError(f"charging cap violated in slot {t}")
        if not -tol <= plan.e_remaining[t] <= par.J * par.c + tol:
            raise AssertionError(f"fleet capacity violated in slot {t}")
    for t in range(1, T):
        if plan.e_remaining[t] < inputs.reserve_floor(t) - tol:
            raise AssertionError(f"reserve violated in slot {t}")
    end = plan.e_remaining[T - 1] - inputs.consumed[T - 1] + plan.e_plus[T - 1]
    if end < inputs.terminal_floor - tol:
        raise AssertionError("terminal energy floor violated")


def write_plan_csv(
    plan: ChargingPlan,
    inputs: DayAheadInputs,
    stream: IO[str],
) -> None:
    """Dump slot, price, consumed, charged and remaining energy."""
    writer = csv.writer(stream)
    writer.writerow(["slot", "price", "E_minus", "E_plus", "E_remaining"])
    for t in range(inputs.T):
        writer.writerow(
            [
                t,
                repr(inputs.prices[t]),
                repr(inputs.consumed[t]),
                repr(plan.e_plus[t]),
                repr(plan.e_remaining[t]),
            ]
        )
