"""Day-ahead charging demand: minimize the day's energy bill.

Given the consumed-energy profile of an unconstrained (infinite-energy) dry
run, the per-slot transportation counts and the price curve, pick how much
the fleet charges in every slot.  The program is linear: the fleet energy
follows the bookkeeping recursion, slot charging is capped by the vehicles
not needed for transportation, and every energy level, the end of the day
included, stays between its floor and total battery capacity.  A slot's
floor covers its driving and the trip to a station; the day must not end
below its starting energy (or a configured terminal target).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from pvjtcs.model import GameParams
from pvjtcs.simplex import EQ, GE, LE, LinearProgram, LpInfeasibleError, solve_lp


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
        if not 0.0 <= self.e_init <= self.ceiling:
            raise ValueError("initial energy outside [0, fleet capacity]")
        reserve = self.terminal_reserve_kwh
        if reserve is not None and not 0.0 <= reserve <= self.ceiling:
            raise ValueError(
                "terminal_reserve_kwh must be finite, nonnegative and at most "
                f"fleet capacity {self.ceiling} kwh, got {reserve}"
            )

    @property
    def T(self) -> int:
        return len(self.consumed)

    @property
    def ceiling(self) -> float:
        """Most energy the fleet holds at any level: J*c."""
        return self.params.J * self.params.c

    def cap(self, t: int) -> float:
        """Most slot t can charge: r per vehicle not needed to transport."""
        return max(self.params.J - self.demand_counts[t], 0) * self.params.r

    def floor(self, t: int) -> float:
        """Least fleet energy at level t in 1..T.  Level t < T enters slot
        t and keeps a reserve of (1 + rho) times the larger of the slot's
        driving and every vehicle's minimum energy.  Level T is the end of
        the day, which keeps ``e_init`` or ``terminal_reserve_kwh``."""
        if t < self.T:
            par = self.params
            return (1.0 + par.rho) * max(self.consumed[t], par.J * par.e_min)
        if self.terminal_reserve_kwh is None:
            return self.e_init
        return self.terminal_reserve_kwh

    def levels(self, charges: Sequence[float], top: float = math.inf) -> list[float]:
        """Fleet energy at levels 0..T when slot t charges ``charges[t]``:
        ``e[t+1] = min(e[t] - consumed[t] + charges[t], top)`` from
        ``e[0] = e_init``."""
        energy = [self.e_init]
        for used, charge in zip(self.consumed, charges):
            energy.append(min(energy[-1] - used + charge, top))
        return energy

    def first_unmet_floor(self) -> tuple[int, float]:
        """The floor that charging every slot to its cap misses first, and
        the shortfall: ``(t, kwh)`` for level t in 1..T, where T is the end
        of the day.

        Charging to ``cap(t)`` with every level held at or below ``J*c``
        gives the most energy the fleet can hold at every level, so no plan
        meets a floor this trajectory misses.  When it misses none, the
        floor with the least margin is returned with a shortfall of zero or
        below.
        """
        levels = self.levels([self.cap(t) for t in range(self.T)], self.ceiling)
        least = (self.T, -math.inf)
        for t in range(1, self.T + 1):
            short = self.floor(t) - levels[t]
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
    recursion (equalities), the floors of levels 1..T and the end-of-day
    ceiling; the charging caps and the other ceilings are variable bounds.
    """
    T = inputs.T
    A = np.zeros((2 * T, 2 * T - 1))
    b = np.empty(2 * T)
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
        b[T - 1 + t] = inputs.floor(t + 1)
    # end of the day: floor(T) <= Er[T-1] - E-[T-1] + E+[T-1] <= J*c
    A[-2:, T - 1] = 1.0
    b[-2:] = np.array([inputs.floor(T), inputs.ceiling]) + inputs.consumed[T - 1]
    if T > 1:
        A[-2:, -1] = 1.0
    else:
        b[-2:] -= inputs.e_init
    return LinearProgram(
        c=list(inputs.prices) + [0.0] * (T - 1),
        A=A,
        senses=[EQ] * (T - 1) + [GE] * T + [LE],
        b=b,
        upper=[inputs.cap(t) for t in range(T)] + [inputs.ceiling] * (T - 1),
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
                f"slot {t} needs {inputs.floor(t):.1f} kwh in reserve "
                f"but charging caps leave it {short:.1f} kwh short"
            )
        else:
            detail = f"the end-of-day energy floor cannot be met (short {short:.1f} kwh)"
        raise ChargingInfeasibleError(
            f"day-ahead charging plan infeasible: {detail}"
        ) from err

    # + 0.0 turns the simplex's -0.0 into 0.0; other values keep their bits
    e_plus = (sol.x[: inputs.T] + 0.0).tolist()
    plan = ChargingPlan(
        e_plus=e_plus,
        e_remaining=inputs.levels(e_plus)[:-1],
        cost=float(sum(p * e for p, e in zip(inputs.prices, e_plus))),
    )
    _verify(inputs, plan)
    return plan


def _verify(inputs: DayAheadInputs, plan: ChargingPlan, tol: float = 1e-6) -> None:
    for t in range(inputs.T):
        if not -tol <= plan.e_plus[t] <= inputs.cap(t) + tol:
            raise AssertionError(f"charging cap violated in slot {t}")
    levels = inputs.levels(plan.e_plus)
    for t in range(1, inputs.T + 1):
        if not inputs.floor(t) - tol <= levels[t] <= inputs.ceiling + tol:
            raise AssertionError(f"energy level {t} outside [floor, fleet capacity]")


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
