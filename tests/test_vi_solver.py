"""Equilibrium solver and its reference iteration: backtracking,
convergence, KKT audit."""

import hashlib
import math
import random
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvjtcs import vi_solver
from pvjtcs.model import FeasibleSet, GameParams, PvGroup, clamp_demand
from pvjtcs.vi_solver import SspmConvergenceError, _equilibrium, kkt_verify, sspm_solve
from oracles import (
    LineSearchError,
    ProjectionConvergenceError,
    bisection_equilibrium,
    clip_start,
    line_search,
    projected_gradient_equilibrium,
    sspm_iterate,
)

PARAMS = GameParams()


def make_instance(m, d, e_plus, r=1.0, d_total=None):
    groups = [PvGroup(region=i, m=mi, d=di) for i, (mi, di) in enumerate(zip(m, d))]
    if d_total is None:
        d_total = float(sum(d))
    fset = FeasibleSet(m=[float(v) for v in m], d_total=d_total, e_plus=e_plus, r=r)
    return groups, fset


SYMMETRIC = make_instance([10, 10], [5, 5], e_plus=8.0, d_total=8.0)
ASYMMETRIC = make_instance([10, 20], [8, 4], e_plus=6.0, d_total=12.0)
SINGLETON = make_instance([10], [0], e_plus=4.0, d_total=0.0)


def pinned_game(seed):
    """A feasible slot game of 2-20 groups of 1-100 vehicles."""
    rng = random.Random(seed)
    n = rng.randint(2, 20)
    top = rng.randint(1, 100)
    m = [rng.randint(1, top) for _ in range(n)]
    d = [rng.randint(0, mi) for mi in m]
    r = PARAMS.r
    e_plus = rng.uniform(0.0, r * (sum(m) - sum(d)))
    groups, fset = make_instance(m, d, e_plus, r=r)
    return groups, fset, rng.uniform(1.0, 10.0)


# Three groups whose clip_start is not the equilibrium (SYMMETRIC's and
# ASYMMETRIC's are): from there the iteration takes 17 extragradient steps.
ITERATING = pinned_game(2)


# SHA-256 (first 16 hex digits) of the bits of x* and of len(trace) from
# the reference iteration on pinned_game(seed) started at clip_start,
# recorded with the linear breakpoint scan (now oracles.linear_scan_dual).  Seeds 9, 12 and 30 are left out: they
# take 0.3-1.7 s each.
PINNED_DIGESTS = {
    0: "e818be92dc571ab2",
    1: "2190a14bfae5568a",
    2: "94d8f6c8768e5a72",
    3: "9c1b14ddc2e51af3",
    4: "8cc28cd98409dc29",
    5: "582265479b2f4b67",
    6: "a03a884e1c3f3960",
    7: "eb1627d90f27a795",
    8: "e14210c36a325fd4",
    10: "ffd2c4905bb77498",
    11: "12c489054723241d",
    13: "7720ae27fd50a9dd",
    14: "701e66fda6cbb92b",
    15: "a5b1c8cc5879d56d",
    16: "c7547c75413efbb2",
    17: "1cdf27eae941fb21",
    18: "8d15846f4215d0c5",
    19: "00ee72ae4ec7c725",
    20: "ccc46195a0996c2b",
    21: "05a012bf34c8a219",
    22: "f1445b6be6b0150b",
    23: "d26bf1b250c6683a",
    24: "d5e2ce7aa598f95b",
    25: "cfded239cb49d3a1",
    26: "00ab29b1eee9dd23",
    27: "4562688456805e8d",
    28: "8ebfa04be5cc470e",
    29: "f5233d8c47d1ecd4",
    31: "043bcd203808ca2c",
}


# SHA-256 (first 16 hex digits) of the bits of kkt_verify(x*, ...).lambda_bar
# and of its four residuals (stationarity, complementarity, primal, dual) at
# the x* of PINNED_DIGESTS.
PINNED_KKT_DIGESTS = {
    0: "02f679f41cd30c09",
    1: "56f7c88e18e2eb7e",
    2: "a201b3cd7720d7b6",
    3: "3eda7f5d5dae18e7",
    4: "9dcb0d83e3fc74d3",
    5: "3242fbc8aa779c94",
    6: "4759af6167478d3e",
    7: "d8e69b2b517c01ed",
    8: "6b55440d8c19269e",
    10: "a8341c437a2be4de",
    11: "eaa525f07c6c4cb5",
    13: "eef01ef863fefd3d",
    14: "ebb44808886b03c9",
    15: "a1bace5aae729015",
    16: "020761cc300114e6",
    17: "d194687eec716083",
    18: "a99bf5393da38772",
    19: "c1c639ba6846000b",
    20: "f4d03e96922ea6a7",
    21: "3f83b696607d60e1",
    22: "dc57214d84adfbfa",
    23: "4399f98e900bb3c8",
    24: "e65099b7efdb34dd",
    25: "cec3a11f864fb863",
    26: "fefac4c38986932b",
    27: "0dcabf320e1555ba",
    28: "f59c21ae3a354be8",
    29: "c22c1f73b2aba498",
    31: "5fc5ab2ae4e2873b",
}


class TestLineSearch:
    def test_immediate_acceptance(self):
        # F constant and aligned with nu: condition holds at zeta = 0
        F = lambda v: [10.0]
        zeta, eta = line_search([0.5], [0.1], 0.1 * 0.1, 1.0, F)
        assert zeta == 0 and eta == 1.0

    def test_two_backtracks(self):
        # F(t) = 100 (t - 0.9): fails at probes 0.5 and 0.8, passes at 0.92
        F = lambda v: [100.0 * (v[0] - 0.9)]
        zeta, eta = line_search([1.0], [0.5], 0.5 * 0.5, 1.0, F)
        assert zeta == 2
        assert eta == pytest.approx(0.4**2)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(13)
        gamma1, gamma2 = 0.4, 0.5  # the defaults
        for _ in range(50):
            a = float(rng.uniform(1.0, 200.0))
            root = float(rng.uniform(0.0, 1.0))
            F = lambda v, a=a, root=root: [a * (v[0] - root)]
            x = float(rng.uniform(0.0, 1.0))
            nu = float(rng.uniform(0.01, 0.5))
            mu = float(rng.uniform(0.1, 1.0))
            try:
                zeta, eta = line_search([x], [nu], nu * nu, mu, F)
            except LineSearchError:
                continue
            threshold = (gamma2 / mu) * (nu * nu)
            accepted = [
                z
                for z in range(101)
                if F([x - gamma1**z * mu * nu])[0] * nu >= threshold
            ]
            assert zeta == accepted[0]
            assert eta == pytest.approx(gamma1**zeta * mu)

    def test_exhausted_backtracking_raises(self):
        # an operator anti-correlated with nu never passes
        with pytest.raises(LineSearchError, match="within 100 backtracks"):
            line_search([0.5], [0.1], 0.01, 1.0, lambda v: [-1.0])

    def test_zero_residual_rejected(self):
        with pytest.raises(ValueError):
            line_search([0.5], [0.0], 0.0, 1.0, lambda v: v)


class TestSspmSolve:
    def test_singleton_one_effective_iteration(self):
        groups, fset = SINGLETON
        x, trace = sspm_solve(groups, fset, 3.0, PARAMS)
        assert x == pytest.approx([0.6])
        assert len(trace) == 1
        for x0 in ([0.0], [1.0]):
            x, trace = sspm_iterate(groups, fset, 3.0, PARAMS, x0)
            assert x == pytest.approx([0.6])
            assert len(trace) == 1
            assert trace.converged

    def test_symmetric_instance(self):
        groups, fset = SYMMETRIC
        x, trace = sspm_solve(groups, fset, 2.0, PARAMS)
        assert x == pytest.approx([0.6, 0.6], abs=1e-3)

    def test_asymmetric_matches_hyperplane_scan(self):
        groups, fset = ASYMMETRIC
        x, _ = sspm_solve(groups, fset, 3.0, PARAMS)
        # the feasible set is the segment 10 z1 + 20 z2 = 24, z in the box;
        # scan its 1-D parameterization for the aggregate-payoff maximizer
        best, best_val = None, -np.inf
        for t in np.linspace(0.4, 1.0, 200001):
            z2 = (24.0 - 10.0 * t) / 20.0
            val = (
                -((10.0 * t - 8.0) ** 2)
                + PARAMS.alpha1 * 10.0 * np.log(2.0 - t)
                - PARAMS.alpha2 * 3.0 * 10.0 * (1.0 - t)
                - ((20.0 * z2 - 4.0) ** 2)
                + PARAMS.alpha1 * 20.0 * np.log(2.0 - z2)
                - PARAMS.alpha2 * 3.0 * 20.0 * (1.0 - z2)
            )
            if val > best_val:
                best, best_val = np.array([t, z2]), val
        assert np.max(np.abs(x - best)) <= 1e-3

    def test_matches_projected_gradient_on_random_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = rng.integers(1, 101, size=n).astype(float)
            d = np.array([float(rng.integers(0, int(mi) + 1)) for mi in m])
            e_plus = float(rng.uniform(0.0, PARAMS.r * (m.sum() - d.sum())))
            groups, fset = make_instance(m, d, e_plus=e_plus, r=PARAMS.r,
                                         d_total=float(d.sum()))
            p = float(rng.uniform(1.0, 10.0))
            x, _ = sspm_solve(groups, fset, p, PARAMS)
            ref = projected_gradient_equilibrium(
                m, d, fset.S, p, PARAMS.alpha1, PARAMS.alpha2
            )
            assert np.max(np.abs(x - ref)) <= 1e-3

    def test_unique_equilibrium_from_different_starts(self):
        groups, fset = ASYMMETRIC
        x1, _ = sspm_iterate(groups, fset, 3.0, PARAMS, [0.0, 0.0])
        x2, _ = sspm_iterate(groups, fset, 3.0, PARAMS, [1.0, 1.0])
        assert np.max(np.abs(x1 - x2)) <= 1e-3

    def test_two_projections_per_update_iteration(self):
        groups, fset, price = ITERATING
        _, trace = sspm_iterate(groups, fset, price, PARAMS, clip_start(groups))
        assert len(trace) > 1
        assert all(calls == 2 for calls in trace.projection_calls[:-1])
        assert trace.projection_calls[-1] in (1, 2)

    def test_trace_shapes(self):
        groups, fset, price = ITERATING
        _, trace = sspm_iterate(groups, fset, price, PARAMS, clip_start(groups))
        k = len(trace)
        assert k > 1
        assert len(trace.etas) == k
        assert len(trace.zetas) == k
        assert len(trace.projection_calls) == k
        assert trace.residual_norms[-1] < vi_solver.EPSILON

    def test_cap_exhaustion_carries_trace(self):
        groups, fset = make_instance([1, 76, 57], [0, 59, 38], e_plus=0.0,
                                     d_total=0.0)
        fset.e_plus = (fset.m_total - 101.4684) * 1.0
        with pytest.raises(SspmConvergenceError) as err:
            sspm_iterate(groups, fset, 7.7, PARAMS, clip_start(groups),
                         max_iterations=3)
        assert len(err.value.trace) == 3

    def test_epsilon_below_rounding_names_the_residual(self, monkeypatch):
        # the exact equilibrium's residual is rounding error, about 2e-14:
        # the certificate fails on it below that bound, and no step of the
        # reference iteration lowers it, whose error does not blame the
        # operator
        groups, fset = SYMMETRIC
        monkeypatch.setattr(vi_solver, "EPSILON", 1e-16)
        with pytest.raises(SspmConvergenceError) as err:
            sspm_solve(groups, fset, 2.0, PARAMS)
        assert str(err.value) == (
            f"residual {err.value.trace.residual_norms[-1]:.3e} of the exact "
            "equilibrium is not below epsilon=1e-16"
        )
        assert len(err.value.trace) == 1
        with pytest.raises(SspmConvergenceError) as err:
            sspm_iterate(groups, fset, 2.0, PARAMS, epsilon=1e-16)
        message = str(err.value)
        assert message.startswith(
            f"residual {err.value.trace.residual_norms[-1]:.3e} cannot "
            "fall below epsilon=1e-16: "
        )
        assert "rounding error" in message
        assert "not monotone" in message
        assert isinstance(err.value.__cause__, LineSearchError)
        monkeypatch.setattr(vi_solver, "EPSILON", 1e-13)
        x, trace = sspm_solve(groups, fset, 2.0, PARAMS)
        assert len(trace) == 1

    def test_epsilon_below_rounding_in_the_projection_names_the_residual(self):
        # here the reference iteration's line search passes on the exact
        # start's rounding-level residual, and projecting onto the halfspace
        # built from it fails
        groups, fset = make_instance([3, 1, 7], [1, 0, 2], e_plus=10.0, r=PARAMS.r)
        with pytest.raises(SspmConvergenceError) as err:
            sspm_iterate(groups, fset, 3.0, PARAMS, epsilon=1e-16)
        message = str(err.value)
        assert message.startswith(
            f"residual {err.value.trace.residual_norms[-1]:.3e} cannot fall "
            "below epsilon=1e-16: the halfspace built from it cannot be "
            "projected onto (halfspace multiplier search did not settle"
        )
        assert "rounding error swamps the residual" in message
        assert isinstance(err.value.__cause__, ProjectionConvergenceError)
        _, trace = sspm_solve(groups, fset, 3.0, PARAMS)
        assert len(trace) == 1

    def test_iterates_match_pinned_digests(self):
        # any kernel change that moves a single iterate moves x* or the
        # iteration count of some game
        moved = {}
        for seed, expected in PINNED_DIGESTS.items():
            groups, fset, price = pinned_game(seed)
            x, trace = sspm_iterate(groups, fset, price, PARAMS,
                                    clip_start(groups))
            digest = hashlib.sha256(
                x.tobytes() + struct.pack("<q", len(trace))
            ).hexdigest()[:16]
            if digest != expected:
                moved[seed] = digest
        assert not moved

    def test_rejects_empty_groups(self):
        groups = [PvGroup(region=0, m=0, d=0), PvGroup(region=1, m=5, d=2)]
        fset = FeasibleSet(m=[0.0, 5.0], d_total=2.0, e_plus=1.0, r=1.0)
        with pytest.raises(ValueError):
            sspm_solve(groups, fset, 1.0, PARAMS)

    @pytest.mark.parametrize(
        "x0", [[0.5], [0.5, 0.5, 0.5], [0.5, float("nan")], 0.5, [None, 0.5]],
        ids=["short", "long", "nan", "scalar", "null"],
    )
    def test_rejects_malformed_start(self, x0):
        groups, fset = SYMMETRIC
        with pytest.raises(ValueError, match="2 finite entries"):
            sspm_iterate(groups, fset, 2.0, PARAMS, x0)

    def test_rejects_weight_mismatch(self):
        groups, _ = SYMMETRIC
        fset = FeasibleSet(m=[10.0, 11.0], d_total=8.0, e_plus=8.0, r=1.0)
        with pytest.raises(ValueError):
            sspm_solve(groups, fset, 2.0, PARAMS)


@st.composite
def slot_games(draw):
    """A slot game of 1-20 groups of 1-100 vehicles whose hyperplane sits
    at S = 0 (everyone charges), S = sum(m) (nobody does) or in between."""
    n = draw(st.integers(1, 20))
    m = draw(st.lists(st.integers(1, 100), min_size=n, max_size=n))
    d = [draw(st.integers(0, mi)) for mi in m]
    charging = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    groups, fset = make_instance(m, d, e_plus=PARAMS.r * sum(m) * charging,
                                 r=PARAMS.r)
    # the demand floor only gates feasibility; the equilibrium never reads it
    fset.d_total = min(float(sum(d)), fset.S)
    return groups, fset, draw(st.floats(0.0, 20.0))


class TestExactStart:
    """The solver returns the exact equilibrium, and its certificate is the
    reference iteration's first residual check from there, bit for bit."""

    def check(self, groups, fset, price):
        x, trace = sspm_solve(groups, fset, price, PARAMS)
        assert len(trace) == 1
        assert kkt_verify(x, groups, fset, price, PARAMS).worst() <= 1e-12
        ref, ref_trace = sspm_iterate(groups, fset, price, PARAMS)
        assert np.array_equal(x, ref)
        assert trace.residual_norms == ref_trace.residual_norms
        assert (trace.zetas, trace.projection_calls) == (
            ref_trace.zetas, ref_trace.projection_calls)
        return x, trace

    def test_pinned_games_including_the_slow_ones(self):
        for seed in range(32):  # PINNED_DIGESTS' seeds plus 9, 12 and 30
            groups, fset, price = pinned_game(seed)
            x, _ = self.check(groups, fset, price)
            iterated, _ = sspm_iterate(groups, fset, price, PARAMS,
                                       clip_start(groups))
            assert np.max(np.abs(x - iterated)) <= 1e-3, seed

    @settings(max_examples=300, deadline=None)
    @given(game=slot_games())
    def test_generated_games(self, game):
        groups, fset, price = game
        x, _ = self.check(groups, fset, price)
        assert np.all((0.0 <= x) & (x <= 1.0))
        if fset.S <= 0.0 or fset.S >= fset.m_total:
            assert np.all(x == (fset.S > 0.0))

    def test_small_first_step_adds_one_unit_step_check(self):
        # with eta_init = 0.1 the reference iteration's first step is
        # 0.15 < 1, so it confirms the residual at the unit step, the step
        # of the solver's certificate, before it returns the same point
        groups, fset, price = ITERATING
        x, _ = self.check(groups, fset, price)
        ref, trace = sspm_iterate(groups, fset, price, PARAMS, eta_init=0.1)
        assert trace.exit_checks == 1 and trace.projection_calls == [2]
        assert np.array_equal(ref, x)


def multiplier_args(groups, fset, price, params=PARAMS):
    """The arguments ``sspm_solve`` gives ``_equilibrium``."""
    return ([float(g.m) for g in groups], [float(g.d) for g in groups],
            fset.S, params.alpha1, params.alpha2 * price)


def responses_sum(m, d, w, alpha1, a2p):
    """``sum(m x)`` at ``w`` with the float operations of both equilibrium
    loops, which test it against S."""
    x = []
    for mi, di in zip(m, d):
        b = 4.0 * mi - 2.0 * di - a2p - w
        root = math.sqrt(b * b + 8.0 * mi * alpha1)
        y = (b + root) / (4.0 * mi) if b >= 0.0 else 2.0 * alpha1 / (root - b)
        x.append(min(max(2.0 - y, 0.0), 1.0))
    return sum(mi * xi for mi, xi in zip(m, x))


@st.composite
def multiplier_games(draw):
    """``_equilibrium`` arguments at the edges of the game: one group or up
    to twenty, possibly all equal, with d = 0, d = m or between; price 0,
    moderate or large; and S just above 0, just below sum(m), anywhere
    between, or at a root-form switch where the float sum falls."""
    n = draw(st.integers(1, 20))
    if draw(st.booleans()):
        size = draw(st.integers(1, 100))
        m = [size] * n
        d = [draw(st.sampled_from([0, size]) | st.integers(0, size))] * n
    else:
        m = draw(st.lists(st.integers(1, 100), min_size=n, max_size=n))
        d = [draw(st.sampled_from([0, mi]) | st.integers(0, mi)) for mi in m]
    m, d = [float(v) for v in m], [float(v) for v in d]
    a2p = PARAMS.alpha2 * draw(st.sampled_from([0.0, 1e4]) | st.floats(0.0, 20.0))
    total = sum(m)
    if draw(st.booleans()):
        S = draw(st.sampled_from([5e-324, 1e-9, total * (1.0 - 1e-15),
                                  math.nextafter(total, 0.0)])
                 | st.floats(0.0, total))
        return m, d, S, PARAMS.alpha1, a2p
    # Group j's b is 0 at w0: its best response switches root forms
    # between w0 and the next float, and is interior there when
    # 2 m_j < alpha1 < 8 m_j.  Of the alpha1 tried, the first where the
    # float sum falls across the switch puts the float test's pass and
    # fail on both sides of w0, with S the sum at w0.
    j = draw(st.integers(0, n - 1))
    w0 = 4.0 * m[j] - 2.0 * d[j] - a2p
    start = draw(st.floats(0.0, 1.0))
    for k in range(64):
        alpha1 = m[j] * (2.0 + 6.0 * ((start + 0.618034 * k) % 1.0))
        S = responses_sum(m, d, w0, alpha1, a2p)
        if responses_sum(m, d, math.nextafter(w0, math.inf), alpha1, a2p) < S:
            break
    return m, d, S, alpha1, a2p


def solvers_design_games():
    """The 51 games of the benchmark's ``solvers`` workload, with the
    equilibrium's arguments as ``solve-vi`` builds them."""
    sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    docs, _ = workloads.generated_instances(workloads.WORKLOADS["solvers"])
    games = []
    for doc in docs:
        groups, fset = make_instance(doc["m"], doc["d"], doc["e_plus"], r=PARAMS.r)
        games.append(multiplier_args(groups, clamp_demand(fset), doc["price"]))
    return games


class TestEquilibrium:
    """``_equilibrium`` returns the former bisection's bits, in few sweeps."""

    @settings(max_examples=500, deadline=None)
    @given(args=multiplier_games())
    def test_bit_equal_to_bisection(self, args):
        assert _equilibrium(*args) == bisection_equilibrium(*args)

    def test_bit_equal_on_the_solvers_design_games(self):
        games = solvers_design_games()
        assert len(games) == 51
        for args in games:
            assert _equilibrium(*args) == bisection_equilibrium(*args), args

    def test_sweeps_per_game(self, monkeypatch):
        # one sweep takes one square root per group
        roots = []

        class CountingMath:
            def sqrt(self, v):
                roots.append(v)
                return math.sqrt(v)

        monkeypatch.setattr(vi_solver, "math", CountingMath())
        sweeps = []
        for seed in range(200):
            groups, fset, price = pinned_game(seed)
            roots.clear()
            _equilibrium(*multiplier_args(groups, fset, price))
            sweeps.append(len(roots) / len(groups))
        assert sum(sweeps) / len(sweeps) <= 15.0


class TestKktVerify:
    def test_audit_matches_pinned_digests(self):
        moved = {}
        for seed, expected in PINNED_KKT_DIGESTS.items():
            groups, fset, price = pinned_game(seed)
            x, _ = sspm_iterate(groups, fset, price, PARAMS, clip_start(groups))
            report = kkt_verify(x, groups, fset, price, PARAMS)
            digest = hashlib.sha256(
                report.lambda_bar.tobytes()
                + struct.pack(
                    "<4d",
                    report.stationarity_residual,
                    report.complementarity_residual,
                    report.primal_violation,
                    report.dual_violation,
                )
            ).hexdigest()[:16]
            if digest != expected:
                moved[seed] = digest
        assert not moved

    def test_solution_passes(self):
        groups, fset = SYMMETRIC
        x, _ = sspm_solve(groups, fset, 2.0, PARAMS)
        report = kkt_verify(x, groups, fset, 2.0, PARAMS)
        assert report.worst() <= 1e-3

    def test_single_common_multiplier_vector(self):
        groups, fset = SYMMETRIC
        x, _ = sspm_solve(groups, fset, 2.0, PARAMS)
        report = kkt_verify(x, groups, fset, 2.0, PARAMS)
        # one equality multiplier, one demand multiplier, box pairs per group
        assert report.lambda_bar.shape == (2 + 2 * len(groups),)

    def test_perturbed_point_fails(self):
        groups, fset = ASYMMETRIC
        x, _ = sspm_solve(groups, fset, 3.0, PARAMS)
        # stay on the hyperplane: move along the tangent (-2, 1)
        bad = x + np.array([-0.2, 0.1])
        report = kkt_verify(bad, groups, fset, 3.0, PARAMS)
        assert report.stationarity_residual > 0.1 * report.worst() >= 0.0
        assert report.worst() > 1e-2

    def test_singleton_trivial(self):
        groups, fset = SINGLETON
        report = kkt_verify(np.array([0.6]), groups, fset, 3.0, PARAMS)
        assert report.worst() <= 1e-9

    def test_residuals_nonnegative(self):
        groups, fset = ASYMMETRIC
        report = kkt_verify(np.array([0.9, 0.75]), groups, fset, 3.0, PARAMS)
        for v in (
            report.stationarity_residual,
            report.complementarity_residual,
            report.primal_violation,
            report.dual_violation,
        ):
            assert v >= 0.0

