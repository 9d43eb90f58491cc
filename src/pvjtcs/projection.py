"""Euclidean projection onto the slot feasible set.

The slot game is played on ``{x in [0,1]^I : sum(m_i * x_i) = S}`` where
``S = sum(m_i) - E_plus/r`` converts the slot's charging demand into vehicle
units: every member not transporting charges exactly ``r`` kwh, so pinning
the charged energy pins the weighted strategy sum.  The demand floor
``sum(m_i * x_i) >= d_t`` is folded into a preflight bound on ``E_plus``
(``clamp_demand``) so the projection itself only ever sees box-and-hyperplane
geometry.

The projection is solved through its scalar dual: the projection
is ``clip(point + lam*m, 0, 1)`` and the weighted sum of that expression is
a nondecreasing piecewise-linear function of ``lam``, so the exact multiplier
falls out of a bisection over the sorted breakpoints.  The computed sum is
nondecreasing in floating point as well (every rounding step is monotone),
so the bisection lands on the same breakpoint as a linear scan and returns
the same bits in O(n log n).  The core is deliberately plain Python: the
solver and the tests' reference iteration call it on vectors of a handful
of entries, where array-library call overhead dominates the arithmetic.

The solver calls the core, ``_dual_scan``, directly.  It takes plain float
lists and trusts its caller for positive weights, matching lengths and a
feasible right-hand side, which ``sspm_solve`` checks once per game
(``FeasibleSet.check_feasible``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


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
        self.m = np.asarray(self.m, dtype=float)
        if self.r <= 0.0:
            raise ValueError(f"per-slot charge r must be positive, got {self.r}")
        if np.any(self.m < 0.0):
            raise ValueError("group sizes must be nonnegative")
        for name in ("r", "e_plus", "d_total"):
            value = getattr(self, name)
            if not -math.inf < value < math.inf:  # fails for NaN too
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def m_total(self) -> float:
        return float(np.sum(self.m))

    @property
    def S(self) -> float:
        """Hyperplane right-hand side in vehicle units."""
        return self.m_total - self.e_plus / self.r

    def is_feasible(self) -> bool:
        s = self.S
        return 0.0 <= s <= self.m_total and self.d_total <= s + 1e-12

    def check_feasible(self) -> None:
        if not self.is_feasible():
            raise InfeasibleSetError(
                f"empty feasible set: S={self.S:.6g} must lie in "
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
    return FeasibleSet(m=fset.m.copy(), d_total=fset.d_total, e_plus=adjusted, r=fset.r)


def _dual_scan(point: Sequence[float], m: Sequence[float], S: float) -> list[float]:
    """Exact box-hyperplane projection via the scalar dual multiplier.

    ``z_i(lam) = clip(point_i + lam*m_i, 0, 1)`` makes ``g(lam) = sum(m*z)``
    nondecreasing and piecewise linear with breakpoints where coordinates
    enter or leave the box faces.  The first sorted breakpoint above the
    smallest one with ``g >= S`` is found by bisection, and the crossing is
    then solved in closed form on the active pattern.

    Bisection finds the same breakpoint a linear walk over the sorted
    breakpoints would, because ``g`` is nondecreasing in floating point
    too: with ``m_i > 0`` every step (``lam*m_i``, ``+ point_i``, the
    clip, ``m_i*z_i`` and the running sum, always in the same order) is a
    correctly rounded monotone operation, so a larger ``lam`` never gives
    a smaller computed ``g``.  The result is bit-identical to the walk's,
    with O(n log n) work instead of O(n^2).
    """
    n = len(point)
    total = 0.0
    for w in m:
        total += w
    if S <= 0.0:
        return [0.0] * n
    if S >= total:
        return [1.0] * n

    pairs = list(zip(point, m))
    knots = []
    for p_i, m_i in pairs:
        knots.append(-p_i / m_i)          # coordinate leaves the 0 face
        knots.append((1.0 - p_i) / m_i)   # coordinate reaches the 1 face
    knots.sort()

    # Smallest k >= 1 with knots[k] above knots[0] and g(knots[k]) >= S;
    # every coordinate is still clipped to 0 at knots[0], which is never
    # evaluated.  lo always fails that test, hi = 2n stands for "none".
    first = knots[0]
    lo, hi = 0, 2 * n
    while hi - lo > 1:
        k = (lo + hi) // 2
        lam_k = knots[k]
        if lam_k == first:
            lo = k
            continue
        g_k = 0.0
        for p_i, m_i in pairs:
            zi = p_i + lam_k * m_i
            if zi < 0.0:
                zi = 0.0
            elif zi > 1.0:
                zi = 1.0
            g_k += m_i * zi
        if g_k >= S:
            hi = k
        else:
            lo = k
    # the crossing lies in (lam, lam_next]; with no crossing knot (rounding
    # at the last knot) both are the last knot
    if hi < 2 * n:
        lam, lam_next = knots[hi - 1], knots[hi]
    else:
        lam = lam_next = knots[-1]
    # interpolate on the linear segment
    lam_mid = 0.5 * (lam + lam_next)
    num = S
    den = 0.0
    for p_i, m_i in pairs:
        zi = p_i + lam_mid * m_i
        if zi <= 0.0:
            pass
        elif zi >= 1.0:
            num -= m_i
        else:
            num -= m_i * p_i
            den += m_i * m_i
    lam_star = (num / den) if den > 0.0 else lam_next
    out = []
    for p_i, m_i in pairs:
        zi = p_i + lam_star * m_i
        if zi < 0.0:
            zi = 0.0
        elif zi > 1.0:
            zi = 1.0
        out.append(zi)
    return out
