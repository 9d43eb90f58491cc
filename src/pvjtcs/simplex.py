"""Dense two-phase simplex for small linear programs.

Solves ``min c.x`` subject to rows ``A x {<=,=,>=} b`` and bounds
``0 <= x <= upper``.  Upper bounds become explicit rows, inequalities get
slacks, equalities and surplus rows get phase-1 artificials.  Bland's rule
(lowest eligible index in, lowest basic index on ratio ties) rules out
cycling; a phase ends when no reduced cost is negative.

Sized for day-ahead fleet scheduling: tens of variables, dense tableaus.
The tableau work is done in bulk: a pivot eliminates its column with one
rank-1 update over the rows that have a nonzero entry there, the entering
column and the ratio-test ratios come from whole-array comparisons and
divisions, and the set-up is built from arrays.  Every element still sees
the same multiplications and subtractions in the same order as in a
row-by-row elimination, so the same Bland pivots are taken and the same
bits come out; only the ratio-test tie rule, whose winner depends on the
order rows are met in, walks the eligible rows one by one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LE, GE, EQ = "<=", ">=", "="
_FLIPPED = {LE: GE, GE: LE, EQ: EQ}
_TOL = 1e-9


class LpInfeasibleError(ValueError):
    """Phase 1 could not zero the artificials: no feasible point exists."""


class LpUnboundedError(ValueError):
    """The objective decreases without limit along a feasible ray."""


@dataclass
class LinearProgram:
    """``min c.x  s.t.  A x (senses) b,  0 <= x <= upper``."""

    c: np.ndarray
    A: np.ndarray
    senses: list[str]
    b: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        n_rows, n_vars = self.A.shape
        if len(self.c) != n_vars or len(self.upper) != n_vars:
            raise ValueError("objective/bounds length disagrees with A")
        if len(self.b) != n_rows or len(self.senses) != n_rows:
            raise ValueError("rhs/senses length disagrees with A")
        for s in self.senses:
            if s not in (LE, GE, EQ):
                raise ValueError(f"unknown row sense {s!r}")

    @property
    def n_vars(self) -> int:
        return self.A.shape[1]


@dataclass
class LpSolution:
    x: np.ndarray
    iterations: int


def _pivot(tab: np.ndarray, cost: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col]
    rows = factors.nonzero()[0]
    rows = rows[rows != row]
    # one rank-1 update; rows with a zero factor are left alone, so no
    # entry's sign of zero changes
    tab[rows] -= factors[rows, None] * tab[row]
    if cost[col] != 0.0:
        cost -= cost[col] * tab[row]


def _run_phase(
    tab: np.ndarray, cost: np.ndarray, basis: list[int], n_cols: int
) -> int:
    """Pivot until no reduced cost is negative; Bland's rule throughout."""
    iterations = 0
    rhs = tab[:, -1]
    while True:
        improving = (cost[:n_cols] < -_TOL).nonzero()[0]
        if not len(improving):
            return iterations
        enter = int(improving[0])
        column = tab[:, enter]
        rows = (column > _TOL).nonzero()[0]
        ratios = rhs[rows] / column[rows]
        # the tie rule makes the winner depend on the order the rows are
        # met in, so walk the eligible rows in row order
        leave = -1
        best = np.inf
        for i, ratio in zip(rows.tolist(), ratios.tolist()):
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
        _pivot(tab, cost, leave, enter)
        basis[leave] = enter
        iterations += 1


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Optimal basic feasible solution of ``lp``.

    Raises :class:`LpInfeasibleError` when no feasible point exists,
    :class:`LpUnboundedError` when the objective is unbounded below.
    """
    # Fold finite upper bounds in as explicit rows.
    bounded = np.flatnonzero(np.isfinite(lp.upper))
    bound_rows = np.zeros((len(bounded), lp.n_vars))
    bound_rows[np.arange(len(bounded)), bounded] = 1.0
    A = np.vstack((lp.A, bound_rows))
    b = np.concatenate((lp.b, lp.upper[bounded]))
    senses = list(lp.senses) + [LE] * len(bounded)

    # Normalize to b >= 0.
    flip = b < 0.0
    A[flip] = -A[flip]
    b[flip] = -b[flip]
    senses = [_FLIPPED[s] if f else s for s, f in zip(senses, flip.tolist())]

    m, n = A.shape
    is_le = np.array([s == LE for s in senses], dtype=bool)
    slack_rows = np.flatnonzero(np.array([s != EQ for s in senses], dtype=bool))
    art_rows = np.flatnonzero(~is_le)
    n_slack = len(slack_rows)
    n_art = len(art_rows)
    n_total = n + n_slack + n_art

    tab = np.zeros((m, n_total + 1))
    tab[:, :n] = A
    tab[:, -1] = b
    slack_cols = np.arange(n, n + n_slack)
    art_cols = np.arange(n + n_slack, n_total)
    slack_le = is_le[slack_rows]
    tab[slack_rows, slack_cols] = np.where(slack_le, 1.0, -1.0)
    tab[art_rows, art_cols] = 1.0
    basis_arr = np.full(m, -1)
    basis_arr[slack_rows[slack_le]] = slack_cols[slack_le]
    basis_arr[art_rows] = art_cols
    basis = basis_arr.tolist()

    iterations = 0
    if n_art:
        cost1 = np.zeros(n_total + 1)
        cost1[n + n_slack : n_total] = 1.0
        # price out the artificial basis; subtract.reduce folds the rows in
        # order, as repeated ``cost1 -= tab[i]`` would
        cost1 = np.subtract.reduce(np.vstack((cost1, tab[art_rows])), axis=0)
        iterations += _run_phase(tab, cost1, basis, n_total)
        if -cost1[-1] > 1e-7:
            raise LpInfeasibleError(
                f"no feasible point (phase-1 residual {-cost1[-1]:.6g})"
            )
        # Drive any degenerate artificials out of the basis.
        for i in [i for i in range(m) if basis[i] >= n + n_slack]:
            candidates = np.flatnonzero(np.abs(tab[i, : n + n_slack]) > _TOL)
            if len(candidates):
                j = int(candidates[0])
                _pivot(tab, cost1, i, j)
                basis[i] = j

    # Price out the basic structurals.  Basic columns are unit vectors, so
    # each row's factor is its variable's own cost, unchanged by the rows
    # folded in before it.
    basis_arr = np.array(basis, dtype=int)
    basic = np.flatnonzero(basis_arr < n)
    cost2 = np.zeros(n_total + 1)
    cost2[:n] = lp.c
    factors = cost2[basis_arr[basic]]
    priced = factors != 0.0
    cost2 = np.subtract.reduce(
        np.vstack((cost2, factors[priced, None] * tab[basic[priced]])), axis=0
    )
    # artificials are no longer eligible to enter
    cost2[n + n_slack : n_total] = np.inf
    iterations += _run_phase(tab, cost2, basis, n + n_slack)

    basis_arr = np.array(basis, dtype=int)
    basic = np.flatnonzero(basis_arr < n)
    x = np.zeros(n)
    x[basis_arr[basic]] = tab[basic, -1]
    return LpSolution(x=x, iterations=iterations)
