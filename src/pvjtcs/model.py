"""Core quantities of the per-slot fleet game.

A city is split into regions; the unfully charged vehicles in one region form
a group whose scalar strategy ``x`` is the fraction of the group that drives
passengers this slot (the rest charges).  Each group's payoff trades off
meeting its transportation demand, satisfaction with the energy it banks, and
the charging fee at the current electricity price.  The stacked negated
gradients of the payoffs form the operator that the equilibrium solver works
on.  The game sees vehicles only as the per-region counts of ``PvGroup``;
the vehicles themselves live in the fleet engine
(``transport_scheduler.Vehicle``).

The game is played on the slot feasible set ``FeasibleSet``,
``{x in [0,1]^I : sum(m_i * x_i) = S}`` with ``S = sum(m_i) - E_plus/r``:
every member not transporting charges exactly ``r`` kwh, so pinning the
slot's charged energy ``E_plus`` pins the weighted strategy sum.  The
demand floor ``sum(m_i * x_i) >= d_total`` is folded into a preflight
bound on ``E_plus`` (``clamp_demand``), so the solver only ever sees
box-and-hyperplane geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence


@dataclass
class GameParams:
    """Fleet, battery and utility constants.

    A slot is one hour, the step of the hourly prices.  Defaults mirror the
    calibration used throughout: a 45 kwh battery charging 5.625 kwh per
    hour, 0.3 kwh/km consumption at 30 km/h,
    and the standard game constants (alpha1=20, alpha2=5, rho=0.2,
    e_min=3).  The game is solved exactly, so the step constants of the
    paper's iterative scheme are not parameters here, and its tolerance is
    the certificate's fixed bound ``vi_solver.EPSILON``: the tests'
    reference iteration (``tests/oracles.py::sspm_iterate``) takes both as
    keyword arguments.
    """

    alpha1: float = 20.0        # weight of the charging-satisfaction term
    alpha2: float = 5.0         # weight of the charging-fee term
    rho: float = 0.2            # energy reserve margin
    e_min: float = 3.0          # kwh needed to reach a charging station
    r: float = 5.625            # kwh charged by one vehicle in one slot
    c: float = 45.0             # battery capacity, kwh
    J: int = 500                # fleet size
    speed: float = 30.0         # travel speed, km/h
    consume_rate: float = 0.3   # kwh consumed per km
    detour_max: float = 1.5     # max ratio of on-vehicle to direct distance
    seats: int = 16             # passenger capacity per vehicle

    def __post_init__(self) -> None:
        # every check is written so that it fails for NaN, which compares
        # false with everything
        for name in ("rho", "speed"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("alpha1", "alpha2", "e_min", "r", "c", "consume_rate", "J"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(
                    f"{name} must be nonnegative, got {getattr(self, name)}"
                )
        if not self.r <= self.c:
            raise ValueError(f"per-slot charge r={self.r} exceeds capacity c={self.c}")
        if not self.seats >= 1:
            raise ValueError(f"seats must be >= 1, got {self.seats}")
        if not self.detour_max >= 1.0:
            raise ValueError(f"detour_max must be >= 1, got {self.detour_max}")
        for f in fields(self):
            value = getattr(self, f.name)
            if not -math.inf < value < math.inf:
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in ("J", "seats"):
            value = getattr(self, name)
            if value != int(value):
                raise ValueError(f"{name} must be a whole number, got {value}")

    @property
    def full_threshold(self) -> float:
        """Energy above which a vehicle counts as fully charged (c - r)."""
        return self.c - self.r

    @property
    def slot_consumption(self) -> float:
        """Worst-case energy a vehicle can burn in one slot (an hour), kwh."""
        return self.speed * self.consume_rate


@dataclass
class PvGroup:
    """Per-region census for one slot: the players of the slot game.

    ``m`` group members (unfully charged vehicles) sit in the region, and
    ``d`` of them are demanded for transportation (``group_census`` derives
    it from the dry run).  The group's strategy, the fraction of members
    that will transport, lives with the solver, not here.
    """

    region: int
    m: int
    d: int

    def __post_init__(self) -> None:
        if min(self.m, self.d) < 0:
            raise ValueError(f"group {self.region}: counts must be nonnegative")


class InfeasibleSetError(ValueError):
    """The slot's feasible polyhedron is empty."""


@dataclass
class FeasibleSet:
    """Box-and-hyperplane feasible set of one slot.

    ``m`` holds the group sizes (hyperplane weights), ``d_total`` the slot's
    total transportation demand, ``e_plus`` the charging demand in kwh and
    ``r`` the per-slot charged energy of one vehicle.
    """

    m: Sequence[float]
    d_total: float
    e_plus: float
    r: float

    def __post_init__(self) -> None:
        self.m = tuple(float(w) for w in self.m)
        if self.r <= 0.0:
            raise ValueError(f"per-slot charge r must be positive, got {self.r}")
        if any(w < 0.0 for w in self.m):
            raise ValueError("group sizes must be nonnegative")
        for name in ("r", "e_plus", "d_total"):
            value = getattr(self, name)
            if not -math.inf < value < math.inf:  # fails for NaN too
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def m_total(self) -> float:
        return sum(self.m)

    @property
    def S(self) -> float:
        """Hyperplane right-hand side in vehicle units."""
        return self.m_total - self.e_plus / self.r

    def check_feasible(self) -> None:
        s = self.S
        if not (0.0 <= s <= self.m_total and self.d_total <= s + 1e-12):
            raise InfeasibleSetError(
                f"empty feasible set: S={s:.6g} must lie in "
                f"[max(0, d_total={self.d_total:.6g}), sum(m)={self.m_total:.6g}]"
            )


def clamp_demand(fset: FeasibleSet) -> FeasibleSet:
    """``fset`` with its charging demand pulled into the satisfiable range.

    The most energy one slot can absorb is ``r * (sum(m) - d_total)``: every
    member beyond the transportation demand charges.  Demand below zero or
    above that cap is clamped; compare ``e_plus`` to see a clamp.  Raises
    if the transportation demand alone exceeds the population.
    """
    m_total = fset.m_total
    if fset.d_total > m_total:
        raise InfeasibleSetError(
            f"transportation demand {fset.d_total:.6g} exceeds group population {m_total:.6g}"
        )
    cap = fset.r * (m_total - fset.d_total)
    adjusted = min(max(fset.e_plus, 0.0), cap)
    return FeasibleSet(m=fset.m, d_total=fset.d_total, e_plus=adjusted, r=fset.r)


@dataclass
class PriceCurve:
    """Electricity price per slot, cents/kwh."""

    prices: Sequence[float]

    def __post_init__(self) -> None:
        self.prices = [float(p) for p in self.prices]
        for t, p in enumerate(self.prices):
            if not 0.0 <= p < math.inf:  # fails for NaN too
                raise ValueError(
                    f"price must be finite and nonnegative, got {p} at slot {t}"
                )

    def __len__(self) -> int:
        return len(self.prices)

    def __getitem__(self, t: int) -> float:
        return self.prices[t]


VectorFn = Callable[[Sequence[float]], list[float]]


def payoff_functions(
    groups: Sequence[PvGroup], p_t: float, params: GameParams
) -> tuple[VectorFn, VectorFn]:
    """The slot game's payoffs ``u`` and its operator ``F = -du/dx``.

    Group i's payoff at strategy x_i under price ``p_t`` trades a quadratic
    penalty for missing the transportation demand (m*x vehicles offered
    against d demanded), a logarithmic satisfaction reward for the fraction
    that charges, and the charging fee:

        u_i = -(m x - d)^2 + alpha1 m ln(2 - x) - alpha2 p m (1 - x)
        F_i = 2 m (m x - d) + alpha1 m / (2 - x) - alpha2 p m

    Each payoff depends only on its own coordinate and is strictly concave
    whenever m > 0, so ``F`` is strictly monotone and the game has a unique
    normalized equilibrium.  Both closures take and return plain float
    lists (the solver calls ``F`` several times per iteration on a handful
    of groups) and accept points outside the strategy box: the backtracking
    probe may step out, and both are smooth for x < 2.
    """
    a1 = params.alpha1
    a2p = params.alpha2 * p_t
    # per group: m, d and the products 2m, alpha1*m, alpha2*p*m, rounded
    # once here exactly as the formulas would round them on every call
    terms = []
    for g in groups:
        m = float(g.m)
        terms.append((m, float(g.d), 2.0 * m, a1 * m, a2p * m))

    def u(x: Sequence[float]) -> list[float]:
        return [
            -((m * xi - d) ** 2) + a1m * math.log(2.0 - xi) - a2pm * (1.0 - xi)
            for (m, d, _, a1m, a2pm), xi in zip(terms, x)
        ]

    def F(x: Sequence[float]) -> list[float]:
        return [
            m2 * (m * xi - d) + a1m / (2.0 - xi) - a2pm
            for (m, d, m2, a1m, a2pm), xi in zip(terms, x)
        ]

    return u, F
