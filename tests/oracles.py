"""Independent reference implementations the test suite checks against.

Everything here deliberately avoids the production code paths: projections
are brute-force active-set enumerations or plain bisections, equilibria come
from projected gradient ascent on the aggregate payoff, linear programs are
solved by vertex enumeration, shortest paths by Bellman-Ford, and ride
insertions by materializing every candidate plan and walking it stop by stop.

Eight are former production loops, kept as bit-exact references for the
faster versions: ``dict_dijkstra`` (single-source shortest paths over
node-id dicts), ``sspm_iterate`` (the paper's extragradient scheme, with
``line_search`` and ``intersection_core``), ``bisection_equilibrium`` (the
exact slot-game equilibrium by bisection on the shared multiplier),
``loop_solve_lp`` (the dense simplex with a row-by-row pivot and ratio
test), ``linear_scan_dual`` (the box-hyperplane projection
that evaluates every breakpoint in turn), ``full_scan_assign`` (ride
assignment that evaluates every vehicle through ``insertion_cost`` and
builds each returned plan, ``planned_insertion``), ``scan_nearest_node``
(the endpoint snap that scans every node for each point) and
``interleaved_slot`` (a slot simulated in one pass, the chargers driven
among the serving vehicles).  ``reference_day`` runs whole days with every
slot executed by ``interleaved_slot``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence
from unittest import mock

import numpy as np

from pvjtcs.model import FeasibleSet, GameParams, PvGroup, VectorFn, payoff_functions
from pvjtcs.network import (
    distance,
    nearest_station,
    shortest_path,
)
from pvjtcs.simplex import (
    EQ,
    GE,
    LE,
    LpInfeasibleError,
    LpSolution,
    LpUnboundedError,
)
from pvjtcs.transport_scheduler import (
    ASSIGNED,
    DROPOFF,
    PICKUP,
    WAITING,
    FleetEngine,
    RequestState,
    SlotStats,
    Stop,
    _ride_limit,
    _with_trip,
    insertion_cost,
    pci_assign,
)
from pvjtcs.vi_solver import (
    SspmConvergenceError,
    SspmTrace,
    _dual_scan,
    _equilibrium,
    _game_weights,
)

_TOL = 1e-9


def bisection_projection(point, m, S, iters: int = 80):
    """Box-hyperplane projection via plain dual bisection (oracle-grade)."""
    point = [float(v) for v in point]
    m = [float(v) for v in m]
    n = len(point)

    def z_of(lam):
        return [min(max(point[i] + lam * m[i], 0.0), 1.0) for i in range(n)]

    lo = min(-point[i] / m[i] for i in range(n))
    hi = max((1.0 - point[i]) / m[i] for i in range(n))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if sum(m[i] * zi for i, zi in enumerate(z_of(mid))) < S:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    z = z_of(lam)
    free = [i for i in range(n) if 0.0 < z[i] < 1.0]
    if free:
        rest = sum(m[i] * z[i] for i in range(n) if i not in free)
        lam = (S - rest - sum(m[i] * point[i] for i in free)) / sum(
            m[i] * m[i] for i in free
        )
        z = z_of(lam)
    return np.array(z)


def active_set_projection(point, m, S, normal=None, anchor=None):
    """Projection onto box-hyperplane (optionally cut by a halfspace) by
    enumerating every activity pattern and keeping the feasible minimizer."""
    point = np.asarray(point, dtype=float)
    m = np.asarray(m, dtype=float)
    n = len(point)
    cut = normal is not None and float(np.dot(normal, normal)) > 0.0
    if cut:
        normal = np.asarray(normal, dtype=float)
        rhs_cut = float(np.dot(normal, np.asarray(anchor, dtype=float)))

    best = None
    best_dist = np.inf
    for pattern in itertools.product((0.0, 1.0, None), repeat=n):
        fixed = {i: v for i, v in enumerate(pattern) if v is not None}
        free = [i for i in range(n) if i not in fixed]
        for cut_active in (False, True) if cut else (False,):
            rows = [m[free]]
            rhs = [S - sum(m[i] * v for i, v in fixed.items())]
            if cut_active:
                rows.append(normal[free])
                rhs.append(rhs_cut - sum(normal[i] * v for i, v in fixed.items()))
            if free:
                A = np.vstack(rows)
                b = np.array(rhs)
                # projection of the free block onto the affine subspace
                try:
                    corr = A.T @ np.linalg.lstsq(
                        A @ A.T, A @ point[free] - b, rcond=None
                    )[0]
                except np.linalg.LinAlgError:
                    continue
                z_free = point[free] - corr
                if np.any(np.abs(A @ z_free - b) > 1e-8):
                    continue
            else:
                z_free = np.array([])
                if abs(rhs[0]) > 1e-8:
                    continue
                if cut_active and abs(rhs[1]) > 1e-8:
                    continue
            z = np.empty(n)
            for i, v in fixed.items():
                z[i] = v
            z[free] = z_free
            if np.any(z < -1e-9) or np.any(z > 1.0 + 1e-9):
                continue
            if cut and not cut_active:
                if float(np.dot(normal, z)) > rhs_cut + 1e-9:
                    continue
            dist = float(np.linalg.norm(z - point))
            if dist < best_dist - 1e-15:
                best_dist = dist
                best = np.clip(z, 0.0, 1.0)
    if best is None:
        raise ValueError("no feasible activity pattern (empty set?)")
    return best


def projected_gradient_equilibrium(
    m, d, S, price, alpha1, alpha2, max_steps: int = 100_000
):
    """Maximize the aggregate payoff over the feasible set by projected
    gradient ascent.

    The step is 1/L for the curvature bound L = max(2 m^2 + alpha1 m): a
    fixed literal step of 1e-3 overshoots for large groups (L ~ 2e4).  Runs
    the full budget unless the iterate reaches a fixed point to machine
    precision.
    """
    m = np.asarray(m, dtype=float)
    d = np.asarray(d, dtype=float)
    L = float(np.max(2.0 * m * m + alpha1 * m))
    step = 1.0 / L
    x = bisection_projection(np.clip(d / m, 0.0, 1.0) + 0.123, m, S)
    for _ in range(max_steps):
        grad = -2.0 * m * (m * x - d) - alpha1 * m / (2.0 - x) + alpha2 * price * m
        x_new = bisection_projection(x + step * grad, m, S)
        if float(np.max(np.abs(x_new - x))) < 1e-14:
            return x_new
        x = x_new
    return x


def bisection_equilibrium(m, d, S, alpha1, a2p):
    """The exact equilibrium, by bisection on the shared multiplier.

    Every group plays its best response to one per-vehicle multiplier
    ``w``: ``F_i/m_i = 2(m x - d) + alpha1/(2 - x) - a2p`` equals ``w``
    inside the box.  With ``y = 2 - x`` that is the positive root of
    ``2m y^2 - B y - alpha1 = 0``, ``B = 4m - 2d - a2p - w``, clipped to the
    box.  The responses' weighted sum rises with ``w``, so bisection between
    the smallest ``F_i/m_i`` at x = 0 and the largest at x = 1 meets the
    hyperplane ``sum(m x) = S``, until the float bracket collapses.
    """
    if S <= 0.0:
        return [0.0] * len(m)
    if S >= sum(m):
        return [1.0] * len(m)

    def respond(w: float) -> list[float]:
        x = []
        for mi, di in zip(m, d):
            b = 4.0 * mi - 2.0 * di - a2p - w
            root = math.sqrt(b * b + 8.0 * mi * alpha1)
            # the form without cancellation on each side of b = 0
            y = (b + root) / (4.0 * mi) if b >= 0.0 else 2.0 * alpha1 / (root - b)
            x.append(min(max(2.0 - y, 0.0), 1.0))
        return x

    lo = min(-2.0 * di + 0.5 * alpha1 - a2p for di in d)
    hi = max(2.0 * (mi - di) + alpha1 - a2p for mi, di in zip(m, d))
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if sum(mi * xi for mi, xi in zip(m, respond(mid))) < S:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return respond(hi)


class LineSearchError(RuntimeError):
    """Backtracking produced no acceptable step."""


class ProjectionConvergenceError(RuntimeError):
    """A projection subproblem failed to settle; numerical trouble."""


@dataclass
class IterationTrace(SspmTrace):
    """Per-iteration record of ``sspm_iterate``: ``SspmTrace`` plus the
    accepted step sizes, the unit-step confirmations and the outcome."""

    etas: list = field(default_factory=list)              # accepted step sizes
    exit_checks: int = 0                                  # unit-step confirmations
    converged: bool = False


def line_search(
    x: list[float],
    nu: list[float],
    nu_sq: float,
    mu: float,
    F: VectorFn,
    gamma1: float = 0.4,
    gamma2: float = 0.5,
) -> tuple[int, float]:
    """Smallest exponent zeta with the probe acceptance condition.

    Accepts zeta when ``<F(x - gamma1^zeta * mu * nu), nu> >=
    (gamma2/mu) * nu_sq``, where ``nu_sq = ||nu||^2``, trying zeta = 0..100
    with the step shrunk by ``gamma1`` each time, and returns
    ``(zeta, eta = gamma1^zeta * mu)``.

    For a projected residual ``nu = x - P(x - mu*F(x))`` the projection
    gives ``<F(x), nu> >= nu_sq / mu`` in exact arithmetic, so a short
    enough step passes for any continuous ``F``, monotone or not, since
    ``gamma2 < 1``.  Only a residual that rounding has swamped fails every
    step.
    """
    if nu_sq == 0.0:
        raise ValueError("line search called with a zero residual")
    threshold = (gamma2 / mu) * nu_sq
    step = mu
    for zeta in range(101):
        Fp = F([xi - step * vi for xi, vi in zip(x, nu)])
        if sum(fi * vi for fi, vi in zip(Fp, nu)) >= threshold:
            return zeta, step
        step *= gamma1
    raise LineSearchError("no acceptable step within 100 backtracks")


# Illinois rounds of the halfspace multiplier search before giving up
_MAX_ROUNDS = 200


def intersection_core(
    point: list[float],
    m: list[float],
    S: float,
    g: list[float],
    c: float,
) -> list[float]:
    """Projection onto box-hyperplane-halfspace, all plain floats (the
    former production projection of ``sspm_iterate``).

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


def _stalled(
    nu_norm: float, epsilon: float, trace: IterationTrace, why: str
) -> SspmConvergenceError:
    """The error for a residual that no iteration can lower: ``why`` says
    which step failed on it."""
    return SspmConvergenceError(
        f"residual {nu_norm:.3e} cannot fall below epsilon={epsilon}: "
        f"{why}; choose a larger epsilon",
        trace,
    )


def sspm_iterate(
    groups: Sequence[PvGroup],
    fset: FeasibleSet,
    p_t: float,
    params: GameParams,
    x0: Sequence[float] | None = None,
    max_iterations: int = 100_000,
    *,
    gamma1: float = 0.4,
    gamma2: float = 0.5,
    gamma3: float = 1.5,
    eta_init: float = 1.0,
    epsilon: float = 1e-3,
) -> tuple[np.ndarray, IterationTrace]:
    """The paper's two-projection extragradient scheme, from the exact
    equilibrium (the production solver's point) or from ``x0``.

    Iterates until the projected residual norm drops below ``epsilon``.
    Each iteration measures the projected residual
    ``nu = x - P(x - mu*F(x))`` inline, backtracks a probe step until the
    operator at the probe correlates enough with the residual
    (``line_search``, with base ``gamma1`` and threshold ``gamma2``),
    builds the separating halfspace through the probe point, and projects
    the iterate onto feasible-set-and-halfspace (``intersection_core``).
    The step grows by ``gamma3`` between iterations from ``eta_init``.
    From the exact equilibrium with the default constants the first
    residual check is ``sspm_solve``'s certificate, bit for bit, and the
    default ``epsilon`` is its bound, ``vi_solver.EPSILON``.
    """
    m, d = _game_weights(groups, fset)
    n = len(groups)
    S = fset.S
    _, F = payoff_functions(groups, p_t, params)

    if x0 is None:
        start = _equilibrium(m, d, S, params.alpha1, params.alpha2 * p_t)
    else:
        given = np.asarray(x0, dtype=float)  # a None entry reads as NaN
        if given.shape != (n,) or not np.isfinite(given).all():
            raise ValueError(f"x0 must hold {n} finite entries, got {x0!r}")
        start = given.tolist()
    x = _dual_scan(start, m, S)

    trace = IterationTrace()
    eta_prev = eta_init
    for _ in range(max_iterations):
        mu = min(gamma3 * eta_prev, 1.0)
        Fx = F(x)
        z = _dual_scan([x[i] - mu * Fx[i] for i in range(n)], m, S)
        nu = [x[i] - z[i] for i in range(n)]
        nu_sq = sum(v * v for v in nu)
        nu_norm = math.sqrt(nu_sq)

        trace.residual_norms.append(nu_norm)
        if nu_norm < epsilon:
            # The adaptive-step residual scales with mu, so a small mu can
            # fake convergence.  ||nu(x, mu)|| is nondecreasing in mu, hence
            # the unit-step residual both confirms geometric accuracy and
            # implies the adaptive test it replaces.
            if mu >= 1.0 or nu_norm == 0.0:
                confirmed_norm = nu_norm
                calls = 1
            else:
                z1 = _dual_scan([x[i] - Fx[i] for i in range(n)], m, S)
                confirmed_norm = math.sqrt(
                    sum((x[i] - z1[i]) ** 2 for i in range(n))
                )
                trace.exit_checks += 1
                calls = 2
            if confirmed_norm < epsilon:
                trace.projection_calls.append(calls)
                trace.etas.append(eta_prev)
                trace.zetas.append(0)
                trace.converged = True
                return np.array(x), trace

        try:
            zeta, eta = line_search(x, nu, nu_sq, mu, F, gamma1, gamma2)
        except LineSearchError as err:
            raise _stalled(
                nu_norm, epsilon, trace,
                "no line-search step lowers it, which for a projected residual "
                "means rounding error swamps it, not that the operator is not "
                "monotone",
            ) from err
        y = [x[i] - eta * nu[i] for i in range(n)]
        gvec = F(y)
        c = sum(gvec[i] * y[i] for i in range(n))
        try:
            x = intersection_core(x, m, S, gvec, c)
        except ProjectionConvergenceError as err:
            raise _stalled(
                nu_norm, epsilon, trace,
                f"the halfspace built from it cannot be projected onto ({err}), "
                "as happens when rounding error swamps the residual",
            ) from err

        trace.etas.append(eta)
        trace.zetas.append(zeta)
        trace.projection_calls.append(2)
        eta_prev = eta

    raise SspmConvergenceError(
        f"residual {trace.residual_norms[-1]:.3e} still above "
        f"epsilon={epsilon} after {max_iterations} iterations",
        trace,
    )


def clip_start(groups):
    """The per-group transportation optimum d/m, clipped to the box: a start
    from which ``sspm_iterate`` iterates."""
    return [min(max(g.d / g.m, 0.0), 1.0) for g in groups]


def enumerate_lp_vertices(c, A, senses, b, upper):
    """Solve min c.x s.t. A x (=, <=, >=) b, 0 <= x <= upper by enumerating
    basic solutions: equalities always active plus enough actives from the
    inequalities and bounds to pin a vertex."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = len(c)
    eq_rows = [i for i, s in enumerate(senses) if s == "="]
    ineq_rows = [i for i, s in enumerate(senses) if s != "="]

    # candidate active rows: inequality rows, lower bounds, upper bounds
    candidates = (
        [("row", i) for i in ineq_rows]
        + [("lo", j) for j in range(n)]
        + [("up", j) for j in range(n) if np.isfinite(upper[j])]
    )
    need = n - len(eq_rows)
    if need < 0:
        # overdetermined equalities: pick n of them as the active basis and
        # let the feasibility check validate the rest
        mandatory_combos = itertools.combinations(eq_rows, n)
        combo_iter = (([], list(combo)) for combo in mandatory_combos)
    else:
        combo_iter = (
            (eq_rows, list(combo))
            for combo in itertools.combinations(candidates, need)
        )
    best_x, best_obj = None, np.inf
    for mandatory, combo in combo_iter:
        M = np.zeros((n, n))
        rhs = np.zeros(n)
        for k, i in enumerate(mandatory):
            M[k] = A[i]
            rhs[k] = b[i]
        combo = [
            ("row", idx) if isinstance(idx, (int, np.integer)) else idx
            for idx in combo
        ]
        ok = True
        for k, (kind, idx) in enumerate(combo, start=len(mandatory)):
            if kind == "row":
                M[k] = A[idx]
                rhs[k] = b[idx]
            elif kind == "lo":
                M[k, idx] = 1.0
                rhs[k] = 0.0
            else:
                M[k, idx] = 1.0
                rhs[k] = upper[idx]
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-8) or np.any(x > upper + 1e-8):
            continue
        resid = A @ x - b
        for i, s in enumerate(senses):
            if s == "=" and abs(resid[i]) > 1e-7:
                ok = False
            elif s == "<=" and resid[i] > 1e-7:
                ok = False
            elif s == ">=" and resid[i] < -1e-7:
                ok = False
        if not ok:
            continue
        obj = float(c @ x)
        if obj < best_obj - 1e-12:
            best_obj = obj
            best_x = x
    return best_x, best_obj


def bellman_ford(n_nodes_edges, source):
    """Single-source shortest distances on a directed edge list."""
    nodes, edges = n_nodes_edges
    dist = {v: math.inf for v in nodes}
    dist[source] = 0.0
    for _ in range(len(nodes)):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    return dist


def dict_dijkstra(graph, source):
    """Dijkstra over node ids, as ``RoadGraph.single_source`` ran before it
    numbered the nodes: ``(dist, pred)`` dicts keyed by id, equal-length
    alternatives broken toward the smallest predecessor id."""
    dist: dict[int, float] = {source: 0.0}
    pred: dict[int, int] = {}
    heap: list[tuple[float, int]] = [(0.0, source)]
    done: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in graph.adjacency[u]:
            nd = d + w
            old = dist.get(v)
            if old is None or nd < old:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
            elif nd == old and v not in done and pred.get(v, u + 1) > u:
                pred[v] = u
    return dist, pred


def central_difference(f, x, h: float = 1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _edge_remainder(vehicle, graph) -> float:
    """km left on the vehicle's edge; of parallel edges, a vehicle drives
    the shortest."""
    if vehicle.edge_head is None:
        return 0.0
    length = min(w for v, w in graph.adjacency[vehicle.node] if v == vehicle.edge_head)
    return length - vehicle.edge_progress


def plan_distance(vehicle, stops, graph) -> float:
    """km to execute ``stops`` from the vehicle's position, leg by leg."""
    total = _edge_remainder(vehicle, graph)
    at = vehicle.anchor()
    for stop in stops:
        if stop.node != at:
            total += shortest_path(graph, at, stop.node)[0]
            at = stop.node
    return total


def _seats_ok(vehicle, stops, requests, params, new_request) -> bool:
    load = vehicle.plan.onboard
    for stop in stops:
        pax = (
            new_request.passengers
            if stop.request_id == new_request.id
            else requests[stop.request_id].request.passengers
        )
        load += pax if stop.action == PICKUP else -pax
        if load > params.seats:
            return False
    return True


def _detours_ok(vehicle, stops, requests, params, graph, new_request) -> bool:
    # cumulative distance from the vehicle to each stop along the plan
    cum = []
    total = _edge_remainder(vehicle, graph)
    at = vehicle.anchor()
    for stop in stops:
        if stop.node != at:
            total += shortest_path(graph, at, stop.node)[0]
            at = stop.node
        cum.append(total)

    pick_at = {}
    for idx, stop in enumerate(stops):
        if stop.action == PICKUP:
            pick_at[stop.request_id] = cum[idx]
            continue
        rid = stop.request_id
        if rid == new_request.id:
            req, ride_so_far = new_request, 0.0
        else:
            rs = requests[rid]
            req, ride_so_far = rs.request, rs.ride_km
        if rid in pick_at:
            on_vehicle = cum[idx] - pick_at[rid]  # not yet picked up
        else:
            on_vehicle = ride_so_far + cum[idx]  # already on board
        if on_vehicle > params.detour_max * max(req.direct_km, 1e-9) + 1e-9:
            return False
    return True


def brute_force_insertion(vehicle, request, graph, params, requests):
    """Cheapest feasible insertion by enumeration: build every candidate plan
    (pickup before position i, dropoff before position j >= i), check seats,
    energy and every passenger's detour on it, keep the first (i, j) in
    lexicographic order at the least added km.  Returns (added km, stops)
    or None."""
    stops = vehicle.plan.stops
    base = plan_distance(vehicle, stops, graph)
    pick = Stop(node=request.origin, action=PICKUP, request_id=request.id)
    drop = Stop(node=request.destination, action=DROPOFF, request_id=request.id)
    best = None
    for i in range(len(stops) + 1):
        for j in range(i, len(stops) + 1):
            cand = stops[:i] + [pick] + stops[i:j] + [drop] + stops[j:]
            if not _seats_ok(vehicle, cand, requests, params, request):
                continue
            total = plan_distance(vehicle, cand, graph)
            if total * params.consume_rate > vehicle.energy - params.e_min:
                continue
            if not _detours_ok(vehicle, cand, requests, params, graph, request):
                continue
            delta = total - base
            if best is None or delta < best[0]:
                best = (delta, cand)
    return best


def planned_insertion(vehicle, request, graph, params, requests):
    """``insertion_cost`` with its per-request inputs computed as
    ``pci_assign`` does, and the plan built: (added km, plan) or None."""
    best = insertion_cost(
        vehicle, request, distance(graph, request.origin, request.destination),
        _ride_limit(request, params), graph, params, requests,
    )
    if best is None:
        return None
    delta, i, j = best
    return delta, _with_trip(vehicle.plan, request, i, j)


def full_scan_assign(pending, fleet, graph, params, now, requests):
    """``pci_assign`` as a scan of the whole fleet: every vehicle's
    insertion is evaluated and its plan built (``planned_insertion``), and
    the first vehicle in id order at the least cost wins.  Returns
    (assignments, waiting list) like ``pci_assign``."""
    order = sorted(pending, key=lambda r: (-(now - r.request_time), r.id))
    by_id = sorted(fleet, key=lambda v: v.id)
    assignments = []
    waiting = []
    for request in order:
        best_vehicle = None
        best = None
        for veh in by_id:
            out = planned_insertion(veh, request, graph, params, requests)
            if out is None:
                continue
            if best is None or out[0] < best[0]:
                best = out
                best_vehicle = veh
        if best_vehicle is None:
            waiting.append(request)
            continue
        best_vehicle.plan = best[1]
        best_vehicle.route = []
        requests[request.id] = RequestState(request, ASSIGNED)
        assignments.append((request.id, best_vehicle.id))
    return assignments, waiting


def linear_scan_dual(point, m, S):
    """Box-hyperplane projection by a linear breakpoint scan: evaluate
    ``g(lam) = sum(m * clip(point + lam*m, 0, 1))`` at every sorted knot
    until it reaches ``S``, then solve the crossing segment in closed form.
    Plain-float inputs, ``m > 0``; returns a list."""
    n = len(point)
    total = 0.0
    for i in range(n):
        total += m[i]
    if S <= 0.0:
        return [0.0] * n
    if S >= total:
        return [1.0] * n

    knots = []
    for i in range(n):
        knots.append(-point[i] / m[i])
        knots.append((1.0 - point[i]) / m[i])
    knots.sort()

    lam = knots[0]
    for k in range(1, 2 * n):
        lam_next = knots[k]
        if lam_next == lam:
            continue
        g_next = 0.0
        for i in range(n):
            zi = point[i] + lam_next * m[i]
            if zi < 0.0:
                zi = 0.0
            elif zi > 1.0:
                zi = 1.0
            g_next += m[i] * zi
        if g_next >= S:
            break
        lam = lam_next
    lam_mid = 0.5 * (lam + lam_next)
    num = S
    den = 0.0
    for i in range(n):
        zi = point[i] + lam_mid * m[i]
        if zi <= 0.0:
            pass
        elif zi >= 1.0:
            num -= m[i]
        else:
            num -= m[i] * point[i]
            den += m[i] * m[i]
    lam_star = (num / den) if den > 0.0 else lam_next
    out = []
    for i in range(n):
        zi = point[i] + lam_star * m[i]
        if zi < 0.0:
            zi = 0.0
        elif zi > 1.0:
            zi = 1.0
        out.append(zi)
    return out


def _loop_pivot(tab, cost, row, col):
    tab[row] /= tab[row, col]
    for i in range(tab.shape[0]):
        if i != row and tab[i, col] != 0.0:
            tab[i] -= tab[i, col] * tab[row]
    if cost[col] != 0.0:
        cost -= cost[col] * tab[row]


def _loop_run_phase(tab, cost, basis, n_cols):
    iterations = 0
    while True:
        enter = -1
        for j in range(n_cols):
            if cost[j] < -_TOL:
                enter = j
                break
        if enter < 0:
            return iterations
        leave = -1
        best = np.inf
        for i in range(tab.shape[0]):
            a = tab[i, enter]
            if a > _TOL:
                ratio = tab[i, -1] / a
                if ratio < best - 1e-12 or (
                    abs(ratio - best) <= 1e-12
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise LpUnboundedError(
                f"column {enter} improves forever; objective unbounded below"
            )
        _loop_pivot(tab, cost, leave, enter)
        basis[leave] = enter
        iterations += 1


def loop_solve_lp(lp):
    """Two-phase dense simplex with Bland's rule, one tableau row at a time:
    the pivot eliminates row by row, the entering column and the ratio test
    are plain scans.  Same contract as ``pvjtcs.simplex.solve_lp``."""
    A_rows = [lp.A]
    senses = list(lp.senses)
    b = list(lp.b)
    for j in range(lp.n_vars):
        if np.isfinite(lp.upper[j]):
            row = np.zeros(lp.n_vars)
            row[j] = 1.0
            A_rows.append(row[None, :])
            senses.append(LE)
            b.append(float(lp.upper[j]))
    A = np.vstack(A_rows)
    b = np.array(b)

    for i in range(len(b)):
        if b[i] < 0.0:
            A[i] = -A[i]
            b[i] = -b[i]
            senses[i] = {LE: GE, GE: LE, EQ: EQ}[senses[i]]

    m, n = A.shape
    slack_cols = [i for i, s in enumerate(senses) if s != EQ]
    art_rows = [i for i, s in enumerate(senses) if s != LE]
    n_slack = len(slack_cols)
    n_art = len(art_rows)
    n_total = n + n_slack + n_art

    tab = np.zeros((m, n_total + 1))
    tab[:, :n] = A
    tab[:, -1] = b
    basis = [-1] * m
    for k, i in enumerate(slack_cols):
        tab[i, n + k] = 1.0 if senses[i] == LE else -1.0
        if senses[i] == LE:
            basis[i] = n + k
    for k, i in enumerate(art_rows):
        tab[i, n + n_slack + k] = 1.0
        basis[i] = n + n_slack + k

    iterations = 0
    if n_art:
        cost1 = np.zeros(n_total + 1)
        cost1[n + n_slack : n_total] = 1.0
        for i in art_rows:
            cost1 -= tab[i]
        iterations += _loop_run_phase(tab, cost1, basis, n_total)
        if -cost1[-1] > 1e-7:
            raise LpInfeasibleError(
                f"no feasible point (phase-1 residual {-cost1[-1]:.6g})"
            )
        for i in range(m):
            if basis[i] >= n + n_slack:
                for j in range(n + n_slack):
                    if abs(tab[i, j]) > _TOL:
                        _loop_pivot(tab, cost1, i, j)
                        basis[i] = j
                        break

    cost2 = np.zeros(n_total + 1)
    cost2[:n] = lp.c
    for i in range(m):
        if basis[i] < n and cost2[basis[i]] != 0.0:
            cost2 -= cost2[basis[i]] * tab[i]
    cost2[n + n_slack : n_total] = np.inf
    iterations += _loop_run_phase(tab, cost2, basis, n + n_slack)

    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i, -1]
    return LpSolution(x=x, iterations=iterations)


def scan_nearest_node(graph, lon, lat):
    """Euclidean snap in coordinate space over every node in id order;
    ties to the smaller id."""
    best, best_d = None, None
    for nid in graph.nodes:
        x, y = graph.coords[nid]
        d = (x - lon) ** 2 + (y - lat) ** 2
        if best_d is None or d < best_d:
            best, best_d = nid, d
    return best


def interleaved_slot(engine, t, pool_ids, charger_ids):
    """Slot t on ``engine``'s live state in one pass: the chargers start
    toward their nearest stations, then batch by batch the pool takes the
    released waiting requests and every vehicle with somewhere to go drives,
    in id order, chargers among the rest; at the end a charger on its
    station gains its charge and every charger drops its route.
    Returns the slot's ``SlotStats``."""
    if pool_ids & charger_ids:
        raise ValueError("a vehicle cannot both transport and charge")
    params = engine.params
    state = engine.state
    stats = SlotStats()
    chargers = [state.vehicle(vid) for vid in sorted(charger_ids)]
    station_of = {}
    for veh in chargers:
        if veh.plan.stops:
            raise ValueError(f"vehicle {veh.id} has passengers; cannot charge")
        station, dist = nearest_station(engine.graph, veh.anchor(), engine.stations)
        if dist * params.consume_rate > veh.energy:
            stats.chargers_short += 1
            continue
        station_of[veh.id] = station
        engine._retarget(veh, station)
    pool = [state.vehicle(vid) for vid in sorted(pool_ids)]
    for b0, b1 in engine._batches(t):
        pending = [
            r for r in engine.all_requests
            if r.request_time <= b0 and state.requests[r.id].status == WAITING
        ]
        if pending:
            able = [v for v in pool if v.energy >= params.slot_consumption]
            pci_assign(pending, able, engine.graph, params, b0, state.requests)
        for veh in state.vehicles:
            engine._advance(veh, b0, b1, stats)
    for veh in chargers:
        if veh.id not in station_of:
            continue
        if veh.node == station_of[veh.id] and veh.edge_head is None:
            gain = min(params.r, params.c - veh.energy)
            veh.energy += gain
            stats.charged_kwh += gain
        else:
            stats.chargers_short += 1
        veh.route = []
    stats.transporting_ids |= {v.id for v in state.vehicles if v.plan.stops}
    for _, _, kwh in stats.burns:
        stats.consumed_kwh += kwh
    return stats


def reference_day():
    """A context manager within which every realized slot ignores its dry
    run's service: ``FleetEngine.slot_from_dry_run`` runs
    ``interleaved_slot`` from the slot start, the live state, with the pool
    ``eligible - chargers``."""

    def from_slot_start(self, t, eligible_ids, charger_ids, dry, end):
        return interleaved_slot(self, t, eligible_ids - charger_ids, charger_ids)

    return mock.patch.object(FleetEngine, "slot_from_dry_run", from_slot_start)
