"""Euclidean projections onto the slot feasible set.

The slot game is played on ``{x in [0,1]^I : sum(m_i * x_i) = S}`` where
``S = sum(m_i) - E_plus/r`` converts the slot's charging demand into vehicle
units: every member not transporting charges exactly ``r`` kwh, so pinning
the charged energy pins the weighted strategy sum.  The demand floor
``sum(m_i * x_i) >= d_t`` is folded into a preflight bound on ``E_plus``
(``clamp_demand``) so the projection itself only ever sees box-and-hyperplane
geometry.  The equilibrium solver additionally projects onto the intersection
with a separating halfspace; that composite is computed through the halfspace
multiplier: a bracket that starts at ``h0/|g|^2`` and doubles, Illinois false
position inside it, and an exact solve on every visited clipping pattern.

The single-set projection is solved through its scalar dual: the projection
is ``clip(point + lam*m, 0, 1)`` and the weighted sum of that expression is
a nondecreasing piecewise-linear function of ``lam``, so the exact multiplier
falls out of a bisection over the sorted breakpoints.  The computed sum is
nondecreasing in floating point as well (every rounding step is monotone),
so the bisection lands on the same breakpoint as a linear scan and returns
the same bits in O(n log n).  The cores are deliberately plain Python:
the solver calls them tens of thousands of times on vectors of a handful of
entries, where array-library call overhead dominates the arithmetic.

The solver calls the two cores, ``_dual_scan`` and ``_intersection_core``,
directly.  They take plain float lists and trust their caller for positive
weights, matching lengths and a feasible right-hand side, which
``sspm_solve`` checks once per game (``FeasibleSet.check_feasible``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class InfeasibleSetError(ValueError):
    """The slot's feasible polyhedron is empty."""


class ProjectionConvergenceError(RuntimeError):
    """A projection subproblem failed to settle; numerical trouble."""


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


# Illinois rounds of the halfspace multiplier search before giving up
_MAX_ROUNDS = 200


def _intersection_core(
    point: list[float],
    m: list[float],
    S: float,
    g: list[float],
    c: float,
) -> list[float]:
    """Projection onto box-hyperplane-halfspace, all plain floats.

    The halfspace is ``{z : <g, z> <= c}``.  The search is over its
    multiplier ``tau``: the halfspace violation ``h(tau)`` of the
    tau-shifted single-set projection is nonincreasing in ``tau`` by firm
    nonexpansiveness.  The bracket starts at ``tau = h(0) / |g|^2`` and
    doubles until ``h <= 0``; Illinois false position then narrows it, and
    an exact two-multiplier solve is attempted on every visited clipping
    pattern (z0's first).  Alternating projections are deliberately
    avoided: near an equilibrium the halfspace normal aligns with the
    charging hyperplane, and alternating projections stall on such glancing
    intersections.
    """
    n = len(point)
    hscale = 1.0 + abs(c)
    for gi in g:
        hscale += abs(gi)
    m_total = 0.0
    for mi in m:
        m_total += mi

    z0 = _dual_scan(point, m, S)
    h0 = -c
    for i in range(n):
        h0 += g[i] * z0[i]
    if h0 <= 0.0:
        return z0

    def polish(z: list[float]) -> list[float] | None:
        mm = mg = gg = 0.0
        any_free = False
        b1 = S
        b2 = c
        for i in range(n):
            if 0.0 < z[i] < 1.0:
                any_free = True
                mm += m[i] * m[i]
                mg += m[i] * g[i]
                gg += g[i] * g[i]
                b1 -= m[i] * point[i]
                b2 -= g[i] * point[i]
            else:
                b1 -= m[i] * z[i]
                b2 -= g[i] * z[i]
        if not any_free:
            return None
        # Solve for the two multipliers via the Schur complement: the normal
        # is often nearly parallel to the hyperplane weights, which makes
        # the multipliers ill-conditioned but leaves the projected point
        # itself well-behaved; the residual checks below arbitrate.
        g_perp_sq = gg - (mg * mg) / mm
        if g_perp_sq <= 1e-14 * gg:
            return None
        tau = -(b2 - (mg / mm) * b1) / g_perp_sq
        lam = (b1 + tau * mg) / mm
        if tau < -1e-12:
            return None
        if tau < 0.0:
            tau = 0.0
        cand = []
        sm = sg = 0.0
        for i in range(n):
            zi = point[i] + lam * m[i] - tau * g[i]
            if zi < 0.0:
                zi = 0.0
            elif zi > 1.0:
                zi = 1.0
            cand.append(zi)
            sm += m[i] * zi
            sg += g[i] * zi
        # the hyperplane to _dual_scan's precision: a candidate off it by
        # more leaves the iterate outside the feasible set
        if abs(sm - S) > 1e-12 * max(1.0, m_total):
            return None
        if abs(sg - c) > 1e-9 * hscale:
            return None
        return cand

    def shifted_projection(tau: float) -> tuple[list[float], float]:
        pt = [point[i] - tau * g[i] for i in range(n)]
        z = _dual_scan(pt, m, S)
        h = -c
        for i in range(n):
            h += g[i] * z[i]
        return z, h

    exact = polish(z0)
    if exact is not None:
        return exact

    nn = 0.0
    for gi in g:
        nn += gi * gi
    tau_lo, h_lo = 0.0, h0
    tau_hi = h0 / nn
    for _ in range(200):
        z_hi, h_hi = shifted_projection(tau_hi)
        if h_hi <= 0.0:
            break
        tau_lo, h_lo = tau_hi, h_hi
        tau_hi *= 2.0
    else:
        raise ProjectionConvergenceError(
            "halfspace appears unreachable from the feasible set"
        )

    # The violation is piecewise linear and nonincreasing in tau; Illinois
    # false position avoids the one-sided stalling of the plain variant, and
    # the pattern solve finishes exactly once a probe lands on the root's
    # clipping pattern.
    z = z_hi
    side = 0
    w_lo, w_hi = h_lo, h_hi
    for _ in range(_MAX_ROUNDS):
        if w_lo - w_hi > 0.0:
            tau = tau_lo + (tau_hi - tau_lo) * w_lo / (w_lo - w_hi)
            width = tau_hi - tau_lo
            if not tau_lo + 1e-6 * width <= tau <= tau_hi - 1e-6 * width:
                tau = 0.5 * (tau_lo + tau_hi)
        else:
            tau = 0.5 * (tau_lo + tau_hi)
        z, h = shifted_projection(tau)
        exact = polish(z)
        if exact is not None:
            return exact
        if abs(h) <= 1e-13 * hscale:
            break
        if h > 0.0:
            tau_lo, w_lo = tau, h
            if side == -1:
                w_hi *= 0.5
            side = -1
        else:
            tau_hi, w_hi = tau, h
            if side == 1:
                w_lo *= 0.5
            side = 1
    viol = -c
    for i in range(n):
        viol += g[i] * z[i]
    if viol > 1e-8 * hscale:
        raise ProjectionConvergenceError(
            f"halfspace multiplier search did not settle within {_MAX_ROUNDS} "
            f"rounds (violation {viol:.3e})"
        )
    return z

