"""Equilibrium solver for the slot game.

The game's stacked negated payoff gradients form a strictly monotone operator
on the slot feasible set, so the shared-constraint equilibrium with equal
multiplier weights is exactly the solution of the corresponding variational
inequality.  The game is separable: each group's per-vehicle marginal cost
``F_i/m_i`` rises with its own strategy alone, so the solution is every
group's clipped best response to one shared multiplier.  A safeguarded
Newton search on that multiplier finds it (``_equilibrium``): each sweep
over the groups yields the responses' weighted sum and its slope, the
bracket around the multiplier keeps the float test of plain bisection, and
the result is the bisection's to the bit.  ``sspm_solve`` returns that
point with a certificate: the projected residual ``nu = x - P(x - F(x))``
of one unit step must lie below ``EPSILON``.  The paper's two-projection
extragradient scheme, which iterates from any start, is the reference the
tests compare against (``tests/oracles.py::sspm_iterate``); from the exact
equilibrium its first residual check is this certificate, bit for bit.
The operator comes from ``model.payoff_functions``, the one place the
payoff formula is written.

The projection ``P`` onto the slot feasible set (``model.FeasibleSet``) is
exact, through its scalar dual (``_dual_scan``).  It is plain Python on
float lists, since games have a handful of groups, where array-library
call overhead would dominate; it trusts the set ``sspm_solve`` checks once
per game.

``kkt_verify`` independently audits a candidate equilibrium by fitting one
common multiplier vector to the stationarity system and reporting how badly
stationarity, feasibility, dual signs and complementarity are violated.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from pvjtcs.model import FeasibleSet, GameParams, PvGroup, payoff_functions

# the certificate's bound on the residual norm, the paper's tolerance
EPSILON = 1e-3
# ``kkt_verify`` treats a strategy this close to 0 or 1 as on the box bound
_BOUNDARY_TOL = 1e-6
# the rounding unit of a float near 1, which ``_equilibrium`` scales to
# its multiplier and to the sum it tests
_ULP = sys.float_info.epsilon


class SspmConvergenceError(RuntimeError):
    """The residual did not drop below ``EPSILON``."""

    def __init__(self, message: str, trace: "SspmTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass
class SspmTrace:
    """What a game solve reports, in the shape of the per-iteration record
    of the extragradient scheme: the certificate is that scheme's first
    iteration, with one residual, no backtracking (``zetas``) and one
    projection (``projection_calls``)."""

    residual_norms: list = field(default_factory=list)    # ||nu|| per iteration
    zetas: list = field(default_factory=list)             # backtracking exponents
    projection_calls: list = field(default_factory=list)  # per-iteration count

    def __len__(self) -> int:
        return len(self.residual_norms)


@dataclass
class KktReport:
    """Common-multiplier stationarity audit of a candidate equilibrium.

    ``lambda_bar`` stacks [charging-equality multiplier, demand multiplier,
    lower-box multipliers..., upper-box multipliers...].  Residuals are
    reported relative to the instance's gradient scale (``1 + max |du/dx|``)
    for stationarity/dual/complementarity and to each constraint's natural
    scale for feasibility, so the same tolerance is meaningful for groups of
    one vehicle and of a hundred.
    """

    lambda_bar: np.ndarray
    stationarity_residual: float
    complementarity_residual: float
    primal_violation: float
    dual_violation: float

    def worst(self) -> float:
        return max(
            self.stationarity_residual,
            self.complementarity_residual,
            self.primal_violation,
            self.dual_violation,
        )


def _equilibrium(
    m: list[float], d: list[float], S: float, alpha1: float, a2p: float
) -> list[float]:
    """The exact equilibrium, by safeguarded Newton on the shared multiplier.

    Every group plays its best response to one per-vehicle multiplier
    ``w``: ``F_i/m_i = 2(m x - d) + alpha1/(2 - x) - a2p`` equals ``w``
    inside the box.  With ``y = 2 - x`` that is the positive root of
    ``2m y^2 - b y - alpha1 = 0``, ``b = 4m - 2d - a2p - w``, clipped to the
    box, and ``dx/dw = y/root`` with ``root = sqrt(b^2 + 8 m alpha1)``.  The
    responses' weighted sum ``g(w) = sum(m x)`` rises with ``w``; one sweep
    over the groups returns it and its slope, ``sum(m y/root)`` over the
    groups strictly inside the box.

    The search keeps the bracket ``g(lo) < S <= g(hi)``, tested on the
    float sum, from the smallest ``F_i/m_i`` at x = 0 to the largest at
    x = 1.  Each sweep moves one end to the point it evaluated.  The next
    point is the Newton step from there, carried one rounding unit of ``w``
    and of ``g`` further (``_ULP * (|w| + S/slope)``) so that the bracket
    closes from both sides, or the midpoint when that leaves the bracket.
    The loop ends, as plain bisection does (``tests/oracles.py::
    bisection_equilibrium``, the former loop), when no float lies strictly
    between ``lo``, the midpoint and ``hi``, and returns ``respond(hi)``.
    Where the float test is monotone in ``w``, both loops end with ``hi``
    the smallest float that passes it: the same bits, in about 12 sweeps
    instead of 55.

    Each root form is monotone in ``w``, but where a group's ``b`` crosses
    0 the two forms can differ by an ulp, so the float sum can fall, by
    less than ``drop``, and the test can pass and then fail again.  A point
    whose gap ``S - g`` exceeds ``drop`` therefore decides the test for
    every ``w`` on its side, and the result stands when no crossing lies
    between the nearest such points below and above the root; one more
    sweep, mirroring the nearer point across the root, usually closes the
    far side.  Otherwise the search runs again without Newton steps, which
    is the former bisection sweep for sweep.  A property test aims games
    at such crossings.
    """
    if S <= 0.0:
        return [0.0] * len(m)
    total = sum(m)
    if S >= total:
        return [1.0] * len(m)

    def respond(w: float) -> tuple[list[float], float]:
        x = []
        slope = 0.0
        for mi, di in zip(m, d):
            b = 4.0 * mi - 2.0 * di - a2p - w
            root = math.sqrt(b * b + 8.0 * mi * alpha1)
            # the form without cancellation on each side of b = 0
            y = (b + root) / (4.0 * mi) if b >= 0.0 else 2.0 * alpha1 / (root - b)
            xi = min(max(2.0 - y, 0.0), 1.0)
            if 0.0 < xi < 1.0:
                slope += mi * y / root
            x.append(xi)
        return x, slope

    # A crossing lowers one x by at most 8 ulps of y < 2, and the float sum
    # rounds each later partial sum by at most 2 ulps of S.
    drop = (4 * len(m) + 10) * _ULP * total
    # b is 0 at w = crossing: the float subtraction keeps the sign exactly
    crossings = [4.0 * mi - 2.0 * di - a2p for mi, di in zip(m, d)]
    lo0 = min(-2.0 * di + 0.5 * alpha1 - a2p for di in d)
    hi0 = max(2.0 * (mi - di) + alpha1 - a2p for mi, di in zip(m, d))

    def search(newton: bool) -> tuple[float, list[float] | None, float, float]:
        """``hi`` at the end, ``respond(hi)`` if the loop evaluated it, and
        the nearest points below and above the root whose gap exceeds
        ``drop``."""
        lo, hi = lo0, hi0
        safe_lo, safe_hi = lo, hi
        x_hi = None
        mid = w = 0.5 * (lo + hi)
        while lo < mid < hi:
            x, slope = respond(w)
            gap = S - sum(mi * xi for mi, xi in zip(m, x))
            if gap > 0.0:
                lo = w
                if gap > drop:
                    safe_lo = w
            else:
                hi, x_hi = w, x
                if gap < -drop:
                    safe_hi = w
            mid = 0.5 * (lo + hi)
            if newton and slope > 0.0:
                over = _ULP * (abs(w) + S / slope)
                w += gap / slope + (over if gap > 0.0 else -over)
            if not lo < w < hi:
                w = mid
        return hi, x_hi, safe_lo, safe_hi

    def crossed(lo: float, hi: float) -> bool:
        return any(lo <= c < hi for c in crossings)

    hi, x_hi, safe_lo, safe_hi = search(newton=True)
    if crossed(safe_lo, safe_hi):
        # mirror the nearer decisive point across the root
        if hi - safe_lo <= safe_hi - hi:
            probe = 2.0 * hi - safe_lo
        else:
            probe = 2.0 * hi - safe_hi
        gap = S - sum(mi * xi for mi, xi in zip(m, respond(probe)[0]))
        if gap > drop:
            safe_lo = probe
        elif gap < -drop:
            safe_hi = probe
        if crossed(safe_lo, safe_hi):
            hi, x_hi, _, _ = search(newton=False)
    return x_hi if x_hi is not None else respond(hi)[0]


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


def _game_weights(
    groups: Sequence[PvGroup], fset: FeasibleSet
) -> tuple[list[float], list[float]]:
    """The groups' sizes and demands as floats, once the game is checked:
    every group has members, ``fset`` weighs the groups by their sizes,
    and its feasible set is not empty."""
    if any(g.m <= 0 for g in groups):
        raise ValueError("groups with m=0 must be excluded from the game")
    if len(groups) != len(fset.m) or any(
        float(g.m) != w for g, w in zip(groups, fset.m)
    ):
        raise ValueError("feasible-set weights disagree with the group census")
    fset.check_feasible()
    return list(fset.m), [float(g.d) for g in groups]


def sspm_solve(
    groups: Sequence[PvGroup],
    fset: FeasibleSet,
    p_t: float,
    params: GameParams,
) -> tuple[np.ndarray, SspmTrace]:
    """Solve the slot game to its normalized equilibrium.

    Returns the exact equilibrium, projected onto the feasible set, and
    the trace of its certificate: the unit-step projected residual, which
    must lie below ``EPSILON``.  A residual at or above it raises
    ``SspmConvergenceError``.
    """
    m, d = _game_weights(groups, fset)
    S = fset.S
    _, F = payoff_functions(groups, p_t, params)
    x = _dual_scan(_equilibrium(m, d, S, params.alpha1, params.alpha2 * p_t), m, S)
    Fx = F(x)
    z = _dual_scan([xi - fi for xi, fi in zip(x, Fx)], m, S)
    nu_norm = math.sqrt(sum(v * v for v in (xi - zi for xi, zi in zip(x, z))))
    trace = SspmTrace(residual_norms=[nu_norm], zetas=[0], projection_calls=[1])
    if not nu_norm < EPSILON:
        raise SspmConvergenceError(
            f"residual {nu_norm:.3e} of the exact equilibrium is not below "
            f"epsilon={EPSILON}",
            trace,
        )
    return np.array(x), trace


def kkt_verify(
    x: Sequence[float],
    groups: Sequence[PvGroup],
    fset: FeasibleSet,
    p_t: float,
    params: GameParams,
) -> KktReport:
    """Fit one shared multiplier vector and measure the worst violation.

    With equal weights the equilibrium makes every interior group's
    per-vehicle marginal payoff equal to a common value; that value is fitted
    by least squares, boundary coordinates get box multipliers, and the
    report collects stationarity, primal, dual-sign and complementarity
    residuals.  A non-equilibrium point simply produces large numbers.
    """
    x = np.asarray(x, dtype=float)
    m = np.array([float(g.m) for g in groups])
    if x.shape != m.shape:
        raise ValueError("strategy vector length disagrees with the groups")

    _, F = payoff_functions(groups, p_t, params)
    grad = -np.array(F(x.tolist()))  # du_i/dx_i
    scale = 1.0 + float(np.max(np.abs(grad))) if len(grad) else 1.0

    lower = x <= _BOUNDARY_TOL
    upper = x >= 1.0 - _BOUNDARY_TOL
    interior = ~(lower | upper)

    # Interior stationarity rows read grad_i + omega * m_i = 0 where omega
    # combines the two shared multipliers (lam_eq * r + lam_demand).
    if np.any(interior):
        mi, gi = m[interior], grad[interior]
        omega = -float(np.dot(mi, gi)) / float(np.dot(mi, mi))
    else:
        los = [-g / w for g, w in zip(grad[upper], m[upper])]
        his = [-g / w for g, w in zip(grad[lower], m[lower])]
        lo = max(los) if los else -np.inf
        hi = min(his) if his else np.inf
        if np.isinf(lo) and np.isinf(hi):
            omega = 0.0
        elif np.isinf(lo):
            omega = hi
        elif np.isinf(hi):
            omega = lo
        else:
            omega = 0.5 * (lo + hi)

    # The demand constraint multiplier may always be folded into the free
    # equality multiplier, so complementarity is trivially satisfiable.
    lam_demand = 0.0
    lam_eq = omega / fset.r

    raw_lower = -(grad + omega * m)   # active where x_i = 0
    raw_upper = grad + omega * m      # active where x_i = 1
    lam_lower = np.where(lower, np.maximum(raw_lower, 0.0), 0.0)
    lam_upper = np.where(upper, np.maximum(raw_upper, 0.0), 0.0)
    dual_violation = 0.0
    if np.any(lower):
        dual_violation = max(dual_violation, float(np.max(-raw_lower[lower])) / scale)
    if np.any(upper):
        dual_violation = max(dual_violation, float(np.max(-raw_upper[upper])) / scale)
    dual_violation = max(dual_violation, 0.0)

    # Stationarity of player i: -grad_i - omega*m_i + lam_upper_i - lam_lower_i = 0.
    stationarity = -(grad + omega * m) + lam_upper - lam_lower
    stationarity_residual = float(np.max(np.abs(stationarity))) / scale

    charge_gap = fset.r * float(np.dot(m, 1.0 - x)) - fset.e_plus
    charge_scale = 1.0 + abs(fset.e_plus) + fset.r * float(np.sum(m))
    demand_gap = fset.d_total - float(np.dot(m, x))
    demand_scale = 1.0 + float(np.sum(m))
    box_gap = float(np.max(np.maximum(-x, x - 1.0), initial=0.0))
    primal_violation = max(
        abs(charge_gap) / charge_scale, max(demand_gap, 0.0) / demand_scale, box_gap
    )

    complementarity = max(
        abs(lam_demand * demand_gap) / scale,
        float(np.max(np.abs(lam_lower * x), initial=0.0)) / scale,
        float(np.max(np.abs(lam_upper * (x - 1.0)), initial=0.0)) / scale,
    )

    lambda_bar = np.concatenate(([lam_eq, lam_demand], lam_lower, lam_upper))
    return KktReport(
        lambda_bar=lambda_bar,
        stationarity_residual=stationarity_residual,
        complementarity_residual=complementarity,
        primal_violation=primal_violation,
        dual_violation=dual_violation,
    )

