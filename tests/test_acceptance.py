"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here; nothing is deferred to later calibration.

1. equilibrium solver correctness vs a projected-gradient oracle (100 seeded
   instances, match <= 1e-3, residual < 1e-3, < 1 s per instance); the
   solver returns the exact equilibrium, certified by one residual check
   (KKT <= 1e-12, within 1e-3 of the paper's iteration started from
   clip(d/m))
2. common-multiplier verification on every solved instance (<= 1e-3)
3. equilibrium uniqueness from different starts of the paper's iteration
   (<= 1e-3); from 300 more random starts every solve converges
4. projections vs the brute-force active-set oracle (200 instances, <= 1e-6;
   idempotence and nonexpansiveness <= 1e-9)
5. day-ahead program vs vertex enumeration (50 instances, relative 1e-6;
   constraints 1e-6; recursion 1e-9)
6. end-to-end direction check on the bundled scenario (< 60 s)
7. simulation invariants across the run
8. payoff gradient vs finite differences (1e-5) and operator monotonicity
"""

import copy
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from pvjtcs.cli import build_scenario, load_config
from pvjtcs.model import FeasibleSet, GameParams, PvGroup, payoff_functions
from pvjtcs.simulator import run_jtcs, run_tgc
from pvjtcs.transport_scheduler import FleetEngine
from pvjtcs.vi_solver import _dual_scan, kkt_verify, sspm_solve
from pvjtcs.charging_scheduler import (
    ChargingInfeasibleError,
    DayAheadInputs,
    build_lp,
    schedule_charging,
)
from oracles import (
    active_set_projection,
    clip_start,
    enumerate_lp_vertices,
    intersection_core,
    projected_gradient_equilibrium,
    sspm_iterate,
)

REPO = Path(__file__).resolve().parent.parent
MINI_CONFIG = REPO / "scenarios" / "manhattan-mini" / "config.json"

TABLE_PARAMS = GameParams()  # defaults are the calibrated values


def seeded_instances(n=100, seed=20240801):
    rng = np.random.default_rng(seed)
    for trial in range(n):
        I = [2, 3, 5][trial % 3]
        m = rng.integers(1, 101, size=I).astype(float)
        d = np.array([float(rng.integers(0, int(mi) + 1)) for mi in m])
        d_total = float(d.sum())
        cap = TABLE_PARAMS.r * (m.sum() - d_total)
        e_plus = float(rng.uniform(0.0, cap))
        price = float(rng.uniform(1.0, 10.0))
        groups = [PvGroup(region=i, m=int(m[i]), d=int(d[i])) for i in range(I)]
        fset = FeasibleSet(m=m, d_total=d_total, e_plus=e_plus, r=TABLE_PARAMS.r)
        yield trial, groups, fset, price, rng


@pytest.fixture(scope="module")
def solved_instances():
    """Solve the 100 acceptance instances once; criteria 1-3 all use them."""
    out = []
    for trial, groups, fset, price, rng in seeded_instances():
        t0 = time.perf_counter()
        x, trace = sspm_solve(groups, fset, price, TABLE_PARAMS)
        elapsed = time.perf_counter() - t0
        out.append((trial, groups, fset, price, x, trace, elapsed, rng))
    return out


def test_criterion_1_equilibrium_matches_potential_maximizer(solved_instances):
    worst_err = 0.0
    worst_time = 0.0
    for trial, groups, fset, price, x, trace, elapsed, _ in solved_instances:
        assert trace.residual_norms[-1] < 1e-3
        assert elapsed < 1.0, f"instance {trial} took {elapsed:.2f}s"
        m = np.array([float(g.m) for g in groups])
        d = np.array([float(g.d) for g in groups])
        ref = projected_gradient_equilibrium(
            m, d, fset.S, price, TABLE_PARAMS.alpha1, TABLE_PARAMS.alpha2
        )
        err = float(np.max(np.abs(x - ref)))
        assert err <= 1e-3, f"instance {trial}: |x - oracle| = {err:.2e}"
        worst_err = max(worst_err, err)
        worst_time = max(worst_time, elapsed)
    print(
        f"\n[criterion 1] PASS: 100/100 converged, worst |x-oracle| "
        f"{worst_err:.2e} <= 1e-3, worst runtime {worst_time * 1e3:.0f} ms < 1 s"
    )


def test_criterion_1_exact_start_confirmed_in_one_check(solved_instances):
    worst_kkt = worst_gap = 0.0
    for trial, groups, fset, price, x, trace, _, _ in solved_instances:
        assert len(trace) == 1, f"instance {trial}: {len(trace)} iterations"
        kkt = kkt_verify(x, groups, fset, price, TABLE_PARAMS).worst()
        assert kkt <= 1e-12, f"instance {trial}: kkt {kkt:.2e}"
        iterated, _ = sspm_iterate(groups, fset, price, TABLE_PARAMS,
                                   clip_start(groups))
        gap = float(np.max(np.abs(x - iterated)))
        assert gap <= 1e-3, f"instance {trial}: |x - iterated| = {gap:.2e}"
        worst_kkt, worst_gap = max(worst_kkt, kkt), max(worst_gap, gap)
    print(
        f"\n[criterion 1] PASS: 100/100 confirmed in one iteration, worst kkt "
        f"{worst_kkt:.2e} <= 1e-12, worst |x - iterated| {worst_gap:.2e} <= 1e-3"
    )


def test_criterion_2_kkt_verification(solved_instances):
    worst = 0.0
    for trial, groups, fset, price, x, _, _, _ in solved_instances:
        report = kkt_verify(x, groups, fset, price, TABLE_PARAMS)
        assert report.worst() <= 1e-3, f"instance {trial}: kkt {report.worst():.2e}"
        assert report.lambda_bar.shape == (2 + 2 * len(groups),)
        assert np.all(np.isfinite(report.lambda_bar))
        worst = max(worst, report.worst())
    print(f"\n[criterion 2] PASS: worst common-multiplier residual {worst:.2e} <= 1e-3")


def test_criterion_3_uniqueness_from_different_starts(solved_instances):
    worst = 0.0
    for trial, groups, fset, price, x, _, _, rng in solved_instances:
        x0 = rng.uniform(0.0, 1.0, size=len(groups))
        x2, _ = sspm_iterate(groups, fset, price, TABLE_PARAMS, x0)
        gap = float(np.max(np.abs(x - x2)))
        assert gap <= 1e-3, f"instance {trial}: starts disagree by {gap:.2e}"
        worst = max(worst, gap)
    print(f"\n[criterion 3] PASS: worst cross-start disagreement {worst:.2e} <= 1e-3")


def test_criterion_3_random_starts_converge():
    # the paper's solver from 300 random starts: every solve converges to
    # the equilibrium of the default start
    worst = 0.0
    for trial, groups, fset, price, rng in seeded_instances(300, seed=21):
        x0 = rng.uniform(0.0, 1.0, size=len(groups))
        x, trace = sspm_iterate(groups, fset, price, TABLE_PARAMS, x0)
        assert trace.converged, f"instance {trial} did not converge"
        exact, _ = sspm_solve(groups, fset, price, TABLE_PARAMS)
        gap = float(np.max(np.abs(x - exact)))
        assert gap <= 1e-3, f"instance {trial}: starts disagree by {gap:.2e}"
        worst = max(worst, gap)
    print(
        f"\n[criterion 3] PASS: 300/300 random starts converged, worst gap "
        f"{worst:.2e} <= 1e-3"
    )


def project_plane(point, fset):
    """The solver's projection onto the slot feasible set."""
    return np.array(_dual_scan(np.asarray(point).tolist(), list(fset.m), fset.S))


def project_cut(point, fset, normal, anchor):
    """The paper's iteration's projection onto the feasible set intersected
    with the halfspace ``{z : <normal, z - anchor> <= 0}``."""
    return np.array(
        intersection_core(
            np.asarray(point).tolist(),
            list(fset.m),
            fset.S,
            normal.tolist(),
            float(np.dot(normal, anchor)),
        )
    )


def test_criterion_4_projection_oracle_equivalence():
    rng = np.random.default_rng(7291)
    checked_plain = checked_cut = 0
    worst = 0.0
    while checked_plain < 200 or checked_cut < 200:
        n = int(rng.integers(1, 5))
        m = rng.uniform(0.5, 10.0, size=n)
        S = float(rng.uniform(0.0, 1.0)) * float(np.sum(m))
        fset = FeasibleSet(m=m, d_total=0.0, e_plus=(np.sum(m) - S), r=1.0)
        p = rng.uniform(-0.5, 1.5, size=n)
        q = rng.uniform(-0.5, 1.5, size=n)

        if checked_plain < 200:
            ours = project_plane(p, fset)
            ref = active_set_projection(p, m, S)
            worst = max(worst, float(np.max(np.abs(ours - ref))))
            assert worst <= 1e-6
            # idempotence and nonexpansiveness at 1e-9
            again = project_plane(ours, fset)
            assert float(np.max(np.abs(again - ours))) <= 1e-9
            pq = project_plane(q, fset)
            assert (
                float(np.linalg.norm(ours - pq))
                <= float(np.linalg.norm(p - q)) + 1e-9
            )
            checked_plain += 1

        if checked_cut < 200 and n >= 2:
            normal = rng.normal(size=n)
            anchor = rng.uniform(0, 1, size=n)
            try:
                probe = active_set_projection(
                    rng.uniform(0, 1, size=n), m, S, normal=normal, anchor=anchor
                )
            except ValueError:
                continue
            # halfspace {z : <normal, z - anchor> <= 0}
            if float(np.dot(normal, probe - anchor)) > 1e-9:
                continue

            ours = project_cut(p, fset, normal, anchor)
            ref = active_set_projection(p, m, S, normal=normal, anchor=anchor)
            gap = float(np.max(np.abs(ours - ref)))
            worst = max(worst, gap)
            assert gap <= 1e-6
            again = project_cut(ours, fset, normal, anchor)
            assert float(np.max(np.abs(again - ours))) <= 1e-9
            checked_cut += 1
    print(
        f"\n[criterion 4] PASS: 200+200 projections within {worst:.2e} <= 1e-6 "
        "of the active-set oracle; idempotence and nonexpansiveness <= 1e-9"
    )


def test_criterion_5_charging_lp_vs_vertex_enumeration():
    rng = np.random.default_rng(515)
    solved = 0
    worst_rel = 0.0
    while solved < 50:
        params = GameParams(
            J=int(rng.integers(1, 4)),
            c=float(rng.uniform(5.0, 12.0)),
            r=float(rng.uniform(1.0, 3.0)),
            e_min=float(rng.uniform(0.3, 1.2)),
        )
        T = int(rng.integers(1, 5))
        inputs = DayAheadInputs(
            consumed=list(rng.uniform(0.0, 0.5 * params.J * params.r, size=T)),
            demand_counts=[int(rng.integers(0, params.J + 1)) for _ in range(T)],
            prices=list(rng.uniform(0.5, 9.0, size=T)),
            e_init=float(rng.uniform(0.3, 1.0)) * params.J * params.c,
            params=params,
        )
        lp = build_lp(inputs)
        ref_x, ref_obj = enumerate_lp_vertices(
            lp.c, lp.A, lp.senses, lp.b, lp.upper
        )
        if ref_x is None:
            with pytest.raises(ChargingInfeasibleError):
                schedule_charging(inputs)
            continue
        plan = schedule_charging(inputs)
        rel = abs(plan.cost - ref_obj) / max(1.0, abs(ref_obj))
        assert rel <= 1e-6
        worst_rel = max(worst_rel, rel)
        # constraint families at 1e-6, recursion at 1e-9
        for t in range(T):
            cap = max(params.J - inputs.demand_counts[t], 0) * params.r
            assert -1e-6 <= plan.e_plus[t] <= cap + 1e-6
            assert -1e-6 <= plan.e_remaining[t] <= params.J * params.c + 1e-6
            if t >= 1:
                floor = (1.0 + params.rho) * max(
                    inputs.consumed[t], params.J * params.e_min
                )
                assert plan.e_remaining[t] >= floor - 1e-6
            if t + 1 < T:
                drift = plan.e_remaining[t + 1] - (
                    plan.e_remaining[t] - inputs.consumed[t] + plan.e_plus[t]
                )
                assert abs(drift) <= 1e-9
        end = plan.e_remaining[T - 1] - inputs.consumed[T - 1] + plan.e_plus[T - 1]
        assert end >= inputs.e_init - 1e-6
        solved += 1
    print(
        f"\n[criterion 5] PASS: 50 feasible programs within rel {worst_rel:.2e} "
        "<= 1e-6 of vertex enumeration; constraints 1e-6, recursion 1e-9"
    )


@pytest.fixture(scope="module")
def mini_runs():
    scenario = build_scenario(load_config(str(MINI_CONFIG)))
    t0 = time.perf_counter()
    jtcs = run_jtcs(scenario)
    tgc = run_tgc(scenario)
    elapsed = time.perf_counter() - t0
    return scenario, jtcs, tgc, elapsed


def test_criterion_6_end_to_end_direction_check(mini_runs):
    _, jtcs, tgc, elapsed = mini_runs
    assert elapsed < 60.0, f"runs took {elapsed:.1f}s"
    assert jtcs.average_price is not None and tgc.average_price is not None
    assert jtcs.average_price < tgc.average_price
    assert jtcs.total_charged_kwh <= tgc.total_charged_kwh + 1e-9
    served_gap = abs(jtcs.served - tgc.served) / max(tgc.served, 1)
    assert served_gap <= 0.05
    print(
        f"\n[criterion 6] PASS: average price {jtcs.average_price:.3f} < "
        f"{tgc.average_price:.3f} cents/kwh "
        f"({100 * (1 - jtcs.average_price / tgc.average_price):.1f}% lower), "
        f"charged {jtcs.total_charged_kwh:.1f} <= {tgc.total_charged_kwh:.1f} kwh, "
        f"served gap {100 * served_gap:.1f}% <= 5%, runtime {elapsed:.1f}s < 60s"
    )


def test_criterion_7_simulation_invariants(mini_runs, monkeypatch):
    scenario, _, _, _ = mini_runs
    c = scenario.params.c
    full = scenario.params.full_threshold
    orig_run_slot = FleetEngine.run_slot
    orig_dry = FleetEngine.dry_run_demand
    orig_build = FleetEngine.slot_from_dry_run
    checks = {"slots": 0, "infinite": 0, "dry": 0, "built": 0}

    def check_chargers(self, charger_ids):
        for vid in charger_ids:
            veh = self.state.vehicle(vid)
            assert veh.energy <= full, f"fully charged vehicle {vid} sent to charge"

    def check_bounds(self):
        for veh in self.state.vehicles:
            assert -1e-9 <= veh.energy <= c + 1e-9, (
                f"vehicle {veh.id} energy {veh.energy} outside [0, c]"
            )

    def checked_run_slot(self, t, pool_ids):
        # the day-ahead forecast's fleet holds infinite energy
        infinite = all(math.isinf(v.energy) for v in self.state.vehicles)
        stats = orig_run_slot(self, t, pool_ids)
        if infinite:
            checks["infinite"] += 1
        else:
            check_bounds(self)
        checks["slots"] += 1
        return stats

    def checked_build(self, t, eligible_ids, charger_ids, dry, end):
        check_chargers(self, charger_ids)
        stats = orig_build(self, t, eligible_ids, charger_ids, dry, end)
        # no vehicle both transported and charged in the realized slot
        assert charger_ids.isdisjoint(stats.transporting_ids), (
            "activity exclusivity violated"
        )
        check_bounds(self)
        checks["built"] += 1
        return stats

    def checked_dry(self, t, eligible_ids):
        before = copy.deepcopy(self.state)  # shares nothing with the state
        out = orig_dry(self, t, eligible_ids)
        assert self.state == before, "dry run mutated the state"
        checks["dry"] += 1
        return out

    monkeypatch.setattr(FleetEngine, "run_slot", checked_run_slot)
    monkeypatch.setattr(FleetEngine, "dry_run_demand", checked_dry)
    monkeypatch.setattr(FleetEngine, "slot_from_dry_run", checked_build)
    jtcs1 = run_jtcs(scenario)
    tgc1 = run_tgc(scenario)
    monkeypatch.undo()
    # only the one day-ahead forecast skipped the [0, c] check
    assert checks["infinite"] == scenario.T
    # every realized slot of both schemes is executed from its dry run
    assert checks["built"] == 2 * scenario.T

    # identical seeds give bit-identical summaries
    jtcs2 = run_jtcs(scenario)
    tgc2 = run_tgc(scenario)
    assert json.dumps(jtcs1.to_dict(), sort_keys=True) == json.dumps(
        jtcs2.to_dict(), sort_keys=True
    )
    assert json.dumps(tgc1.to_dict(), sort_keys=True) == json.dumps(
        tgc2.to_dict(), sort_keys=True
    )
    print(
        f"\n[criterion 7] PASS: {checks['slots'] - checks['infinite']} slots served "
        f"(dry runs included) and {checks['built']} executed from their dry runs "
        "kept energy in [0, c] with activity exclusivity; "
        f"{checks['dry']} dry runs left the slot start unchanged; "
        "summaries bit-identical across reruns"
    )


def test_criterion_8_gradient_and_monotonicity():
    rng = np.random.default_rng(88)
    worst_rel = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 201))
        d = int(rng.integers(0, m + 1))
        x = float(rng.uniform(0.01, 0.99))
        p = float(rng.uniform(0.0, 20.0))
        u, F = payoff_functions([PvGroup(region=0, m=m, d=d)], p, TABLE_PARAMS)
        exact = -F([x])[0]
        h = 1e-6
        approx = (u([x + h])[0] - u([x - h])[0]) / (2 * h)
        rel = abs(exact - approx) / max(1.0, abs(exact))
        assert rel <= 1e-5
        worst_rel = max(worst_rel, rel)

    worst_inner = np.inf
    for _ in range(1000):
        I = int(rng.integers(1, 6))
        groups = [
            PvGroup(region=i, m=int(rng.integers(1, 101)), d=int(rng.integers(0, 50)))
            for i in range(I)
        ]
        price = float(rng.uniform(0.0, 10.0))
        _, F = payoff_functions(groups, price, TABLE_PARAMS)
        x = rng.uniform(0.0, 1.0, size=I)
        y = rng.uniform(0.0, 1.0, size=I)
        inner = float(np.dot(np.array(F(x.tolist())) - np.array(F(y.tolist())), x - y))
        assert inner >= -1e-9
        worst_inner = min(worst_inner, inner)
    print(
        f"\n[criterion 8] PASS: gradient matches finite differences within "
        f"{worst_rel:.2e} <= 1e-5 on 1000 points; monotonicity inner product "
        f">= {worst_inner:.2e} >= -1e-9 on 1000 pairs"
    )
