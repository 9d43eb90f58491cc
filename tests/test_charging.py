"""Day-ahead charging program and the simplex behind it."""

import dataclasses
import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvjtcs import charging_scheduler
from pvjtcs.charging_scheduler import (
    ChargingInfeasibleError,
    ChargingPlan,
    DayAheadInputs,
    build_lp,
    schedule_charging,
    write_plan_csv,
)
from pvjtcs.model import GameParams
from pvjtcs.simplex import (
    EQ,
    GE,
    LE,
    LinearProgram,
    LpInfeasibleError,
    LpSolution,
    LpUnboundedError,
    solve_lp,
)
from oracles import enumerate_lp_vertices, loop_solve_lp


def toy_params(J=2, c=10.0, r=2.0, e_min=1.0, rho=0.2):
    return GameParams(J=J, c=c, r=r, e_min=e_min, rho=rho)


TOY = DayAheadInputs(
    consumed=[3.0, 1.0],
    demand_counts=[0, 0],
    prices=[1.0, 5.0],
    e_init=6.0,
    params=toy_params(),
)


def lp_as_oracle_args(lp):
    return lp.c, lp.A, lp.senses, lp.b, lp.upper


def lp_optimum(lp):
    """The vertex-enumeration optimum of ``lp``: (x, c.x), or (None, inf)."""
    return enumerate_lp_vertices(*lp_as_oracle_args(lp))


class TestSimplex:
    def test_scalar_floor(self):
        lp = LinearProgram(
            c=[1.0], A=[[1.0]], senses=[GE], b=[3.0], upper=[np.inf]
        )
        sol = solve_lp(lp)
        assert sol.x == pytest.approx([3.0])
        assert lp.c @ sol.x == pytest.approx(lp_optimum(lp)[1]) == 3.0

    def test_classic_two_variable(self):
        # max x+y over x<=2, y<=3, x+y<=4  ==  min -(x+y)
        lp = LinearProgram(
            c=[-1.0, -1.0],
            A=[[1.0, 1.0]],
            senses=[LE],
            b=[4.0],
            upper=[2.0, 3.0],
        )
        sol = solve_lp(lp)
        assert lp.c @ sol.x == pytest.approx(lp_optimum(lp)[1]) == -4.0

    def test_equality_infeasible(self):
        lp = LinearProgram(
            c=[1.0],
            A=[[1.0], [1.0]],
            senses=[EQ, EQ],
            b=[1.0, 2.0],
            upper=[np.inf],
        )
        assert lp_optimum(lp)[0] is None
        with pytest.raises(LpInfeasibleError, match="no feasible point"):
            solve_lp(lp)

    def test_unbounded(self):
        lp = LinearProgram(
            c=[-1.0], A=[[0.0]], senses=[LE], b=[1.0], upper=[np.inf]
        )
        with pytest.raises(LpUnboundedError):
            solve_lp(lp)

    def test_degenerate_tie_objective_unique(self):
        inputs = DayAheadInputs(
            consumed=TOY.consumed,
            demand_counts=TOY.demand_counts,
            prices=[2.0, 2.0],
            e_init=TOY.e_init,
            params=TOY.params,
        )
        lp = build_lp(inputs)
        sol = solve_lp(lp)
        assert lp.c @ sol.x == pytest.approx(lp_optimum(lp)[1], rel=1e-9)

    def test_random_lps_match_vertex_enumeration(self):
        rng = np.random.default_rng(21)
        solved = 0
        while solved < 60:
            n = int(rng.integers(1, 5))
            m_rows = int(rng.integers(1, 4))
            lp = LinearProgram(
                c=rng.uniform(-2.0, 3.0, size=n),
                A=rng.uniform(-2.0, 2.0, size=(m_rows, n)),
                senses=[str(rng.choice([LE, GE, EQ])) for _ in range(m_rows)],
                b=rng.uniform(-2.0, 3.0, size=m_rows),
                upper=rng.uniform(0.5, 4.0, size=n),
            )
            ref_x, ref_obj = lp_optimum(lp)
            if ref_x is None:
                with pytest.raises(LpInfeasibleError):
                    solve_lp(lp)
                continue
            sol = solve_lp(lp)
            assert lp.c @ sol.x == pytest.approx(ref_obj, rel=1e-7, abs=1e-9)
            solved += 1


def lp_outcome(solver, lp):
    """The bits of x and the pivot count, or the exception type with its
    message."""
    try:
        sol = solver(lp)
    except (LpInfeasibleError, LpUnboundedError) as err:
        return type(err), str(err)
    return sol.x.tobytes(), sol.iterations


@st.composite
def small_lps(draw):
    """LPs of up to 5 variables and 5 rows: small integer data (ties,
    degenerate vertices, zero rows) or floats; infeasible and unbounded
    programs included."""
    n = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.integers(min_value=0, max_value=5))
    if draw(st.booleans()):
        value = st.integers(min_value=-3, max_value=3).map(float)
    else:
        value = st.floats(min_value=-3.0, max_value=3.0, allow_subnormal=False)
    c = [draw(value) for _ in range(n)]
    A = np.array([[draw(value) for _ in range(n)] for _ in range(rows)]).reshape(rows, n)
    senses = [draw(st.sampled_from([LE, GE, EQ])) for _ in range(rows)]
    b = [draw(value) * 2.0 for _ in range(rows)]
    upper = [
        draw(st.one_of(st.just(np.inf), st.integers(min_value=0, max_value=4).map(float)))
        for _ in range(n)
    ]
    return LinearProgram(c=c, A=A, senses=senses, b=b, upper=upper)


@st.composite
def day_ahead_inputs(draw):
    """Day-ahead inputs with tied and zero prices, idle slots (zero
    consumption: degenerate reserve rows), on half the days full-demand
    slots (zero caps), on half the days heavy driving (up to 12 kwh a
    vehicle, above a slot's 5 kwh cap), an optional end-of-day target up to
    fleet capacity, and a starting energy from full down to low enough to
    make some programs infeasible."""
    T = draw(st.integers(min_value=1, max_value=24))
    J = draw(st.integers(min_value=2, max_value=30))
    params = toy_params(J=J, c=40.0, r=5.0, e_min=1.0, rho=0.2)
    prices = st.one_of(
        st.just(0.0),
        st.sampled_from([1.0, 2.0, 3.0]),
        st.floats(min_value=0.5, max_value=9.0, allow_subnormal=False),
    )
    heavy = draw(st.booleans())
    consumed = st.one_of(
        st.just(0.0),
        st.floats(
            min_value=0.0, max_value=(12.0 if heavy else 3.0) * J, allow_subnormal=False
        ),
    )
    demand = st.integers(min_value=0, max_value=J)
    if draw(st.booleans()):
        demand = st.one_of(st.just(J), demand)
    reserve = st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=J * params.c)
    )
    full = st.just(1.0)  # a full fleet, whose energy the J*c bound holds down
    return DayAheadInputs(
        consumed=[draw(consumed) for _ in range(T)],
        demand_counts=[draw(demand) for _ in range(T)],
        prices=[draw(prices) for _ in range(T)],
        e_init=draw(full | st.floats(min_value=0.1, max_value=1.0)) * J * params.c,
        params=params,
        terminal_reserve_kwh=draw(reserve),
    )


day_ahead_programs = day_ahead_inputs().map(build_lp)


class TestBulkSimplexMatchesLoop:
    """The bulk tableau kernels take the same pivots as the row-by-row
    reference: bit-equal x, equal pivot counts, the same exception and
    message on infeasible and unbounded programs."""

    @settings(max_examples=300, deadline=None)
    @given(lp=small_lps())
    def test_small_programs(self, lp):
        assert lp_outcome(solve_lp, lp) == lp_outcome(loop_solve_lp, lp)

    @settings(max_examples=120, deadline=None)
    @given(lp=day_ahead_programs)
    def test_day_ahead_programs(self, lp):
        assert lp_outcome(solve_lp, lp) == lp_outcome(loop_solve_lp, lp)


class TestBuildLp:
    def test_variable_and_row_count(self):
        inputs = DayAheadInputs(
            consumed=[1.0, 1.0],
            demand_counts=[0, 0],
            prices=[1.0, 1.0],
            e_init=5.0,
            params=toy_params(J=1),
        )
        lp = build_lp(inputs)
        assert lp.n_vars == 3  # E+[0], E+[1], Er[1]
        assert lp.A.tolist() == [
            [-1.0, 0.0, 1.0],  # recursion: Er[1] - E+[0] = e_init - E-[0]
            [0.0, 0.0, 1.0],  # reserve: Er[1] >= 1.2 * max(E-[1], J*e_min)
            [0.0, 1.0, 1.0],  # terminal: Er[1] + E+[1] >= e_init + E-[1]
            [0.0, 1.0, 1.0],  # ceiling: Er[1] + E+[1] <= J*c + E-[1]
        ]
        assert lp.senses == [EQ, GE, GE, LE]
        assert lp.b.tolist() == [4.0, 1.2, 6.0, 11.0]
        assert lp.c.tolist() == [1.0, 1.0, 0.0]
        assert lp.upper.tolist() == [2.0, 2.0, 10.0]

    def test_zero_consumption_zero_cost(self):
        params = toy_params()
        inputs = DayAheadInputs(
            consumed=[0.0, 0.0, 0.0],
            demand_counts=[0, 0, 0],
            prices=[3.0, 1.0, 2.0],
            e_init=(1.0 + params.rho) * params.J * params.e_min + 1.0,
            params=params,
        )
        plan = schedule_charging(inputs)
        assert plan.cost == pytest.approx(0.0, abs=1e-9)
        assert plan.e_plus == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)

    def test_full_demand_forces_zero_cap(self):
        inputs = DayAheadInputs(
            consumed=[0.0, 0.0],
            demand_counts=[2, 0],
            prices=[1.0, 1.0],
            e_init=8.0,
            params=toy_params(J=2),
        )
        lp = build_lp(inputs)
        assert lp.upper[0] == 0.0
        assert lp.upper[1] == pytest.approx(4.0)


class TestScheduleCharging:
    def test_toy_optimum_charges_early(self):
        plan = schedule_charging(TOY)
        lp = build_lp(TOY)
        ref_x, ref_obj = enumerate_lp_vertices(*lp_as_oracle_args(lp))
        assert plan.cost == pytest.approx(ref_obj, rel=1e-9)
        assert plan.e_plus == pytest.approx([4.0, 0.0], abs=1e-8)
        assert plan.e_remaining == pytest.approx([6.0, 7.0], abs=1e-8)

    def test_recursion_exact(self):
        plan = schedule_charging(TOY)
        for t in range(TOY.T - 1):
            drift = plan.e_remaining[t + 1] - (
                plan.e_remaining[t] - TOY.consumed[t] + plan.e_plus[t]
            )
            assert abs(drift) <= 1e-9

    def test_price_scaling_keeps_argmin(self):
        doubled = DayAheadInputs(
            consumed=TOY.consumed,
            demand_counts=TOY.demand_counts,
            prices=[2.0 * p for p in TOY.prices],
            e_init=TOY.e_init,
            params=TOY.params,
        )
        base = schedule_charging(TOY)
        scaled = schedule_charging(doubled)
        assert scaled.cost == pytest.approx(2.0 * base.cost, rel=1e-9)
        # the base argmin stays optimal under scaled prices
        base_cost_scaled = sum(
            2.0 * p * e for p, e in zip(TOY.prices, base.e_plus)
        )
        assert base_cost_scaled == pytest.approx(scaled.cost, rel=1e-9)

    def test_infeasible_reserve_diagnosed(self):
        params = toy_params(J=1, c=4.0, r=0.5, e_min=3.0)
        inputs = DayAheadInputs(
            consumed=[2.0, 2.0],
            demand_counts=[0, 0],
            prices=[1.0, 1.0],
            e_init=2.0,
            params=params,
        )
        # charging 0.5 kwh in slot 0 leaves 0.5 kwh against a 3.6 kwh floor
        assert inputs.first_unmet_floor() == (1, pytest.approx(3.1))
        with pytest.raises(ChargingInfeasibleError) as err:
            schedule_charging(inputs)
        assert str(err.value) == (
            "day-ahead charging plan infeasible: slot 1 needs 3.6 kwh in reserve "
            "but charging caps leave it 3.1 kwh short"
        )

    def test_first_unmet_reserve_named_alone(self):
        # charging to the caps holds 72.5 kwh after slot 1, then slots 2-5
        # charge nothing: slot 5 enters with 12.5 kwh against its 72 kwh
        # floor, and the end-of-day floor is missed too but not named
        inputs = DayAheadInputs(
            consumed=[5.0, 5.0, 50.0, 5.0, 5.0, 60.0],
            demand_counts=[0, 0, 2, 2, 2, 2],
            prices=[2.0, 3.0, 1.0, 4.0, 1.0, 1.0],
            e_init=60.0,
            params=GameParams(J=2),
        )
        assert inputs.first_unmet_floor() == (5, 59.5)
        with pytest.raises(ChargingInfeasibleError) as err:
            schedule_charging(inputs)
        assert str(err.value) == (
            "day-ahead charging plan infeasible: slot 5 needs 72.0 kwh in reserve "
            "but charging caps leave it 59.5 kwh short"
        )

    def test_end_of_day_floor_missed_alone(self):
        inputs = DayAheadInputs(
            consumed=[20.0, 21.25],
            demand_counts=[2, 0],
            prices=[1.0, 1.0],
            e_init=60.0,
            params=GameParams(J=2),
        )
        # 40 kwh enter slot 1 (floor 25.5 kwh); the day ends at 30 of 60 kwh
        assert inputs.first_unmet_floor() == (2, 30.0)
        with pytest.raises(ChargingInfeasibleError) as err:
            schedule_charging(inputs)
        assert str(err.value) == (
            "day-ahead charging plan infeasible: the end-of-day energy floor "
            "cannot be met (short 30.0 kwh)"
        )
        # with a 20 kwh target every floor is met; the end of the day has
        # the least margin, 10 kwh against slot 1's 14.5
        met = dataclasses.replace(inputs, terminal_reserve_kwh=20.0)
        assert met.first_unmet_floor() == (2, -10.0)
        schedule_charging(met)

    def test_free_last_slot_fills_the_fleet_only_to_capacity(self):
        inputs = DayAheadInputs(
            consumed=[1.0, 1.0],
            demand_counts=[0, 0],
            prices=[1.0, 0.0],
            e_init=90.0,
            params=GameParams(J=2),
        )
        plan = schedule_charging(inputs)
        # slot 1 is free, but the day ends at the fleet's 90 kwh, not above
        assert plan.e_plus == [0.0, 2.0]
        assert plan.e_remaining == [90.0, 89.0]
        assert plan.e_remaining[1] - inputs.consumed[1] + plan.e_plus[1] == 90.0
        assert plan.cost == 0.0

    @settings(max_examples=300, deadline=None)
    @given(inputs=day_ahead_inputs())
    def test_every_level_lies_between_its_floor_and_fleet_capacity(self, inputs):
        try:
            plan = schedule_charging(inputs)
        except ChargingInfeasibleError:
            return
        end = plan.e_remaining[-1] - inputs.consumed[-1] + plan.e_plus[-1]
        top = inputs.params.J * inputs.params.c
        for level, floor in zip(plan.e_remaining[1:] + [end], level_floors(inputs)):
            assert floor - 1e-6 <= level <= top + 1e-6

    @settings(max_examples=300, deadline=None)
    @given(inputs=day_ahead_inputs())
    def test_raises_exactly_when_the_forward_pass_misses_a_floor(self, inputs):
        """The simplex refuses a program when charging to the caps misses a
        floor, and the message names the first floor missed.  Within 1e-6
        kwh of a floor the simplex's own 1e-7 phase-1 tolerance decides,
        so there either verdict is allowed."""
        t, short = inputs.first_unmet_floor()
        try:
            schedule_charging(inputs)
        except ChargingInfeasibleError as err:
            assert short > -1e-6
            message = str(err)
        else:
            assert short < 1e-6
            return
        assert message.startswith("day-ahead charging plan infeasible: ")
        shortfall = f"{max(short, 0.0):.1f} kwh"
        # one floor is named: slot t's reserve or the end of the day
        if t < inputs.T:
            assert f"slot {t} " in message and "end-of-day" not in message
            assert f"{shortfall} short" in message
        else:
            assert "slot" not in message and "end-of-day" in message
            assert f"(short {shortfall})" in message
        assert "[" not in message

    def test_optimum_beats_greedy(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            params = toy_params(
                J=int(rng.integers(1, 4)),
                c=float(rng.uniform(6.0, 15.0)),
                r=float(rng.uniform(1.0, 4.0)),
                e_min=float(rng.uniform(0.3, 1.0)),
            )
            T = int(rng.integers(2, 5))
            e_init = float(rng.uniform(0.6, 0.95)) * params.J * params.c
            inputs = DayAheadInputs(
                consumed=list(rng.uniform(0.0, 0.3 * params.J * params.r, size=T)),
                demand_counts=[int(rng.integers(0, params.J)) for _ in range(T)],
                prices=list(rng.uniform(1.0, 9.0, size=T)),
                e_init=e_init,
                params=params,
            )
            try:
                plan = schedule_charging(inputs)
            except ChargingInfeasibleError:
                continue
            greedy = greedy_plan(inputs)
            if greedy is not None:
                assert plan.cost <= greedy + 1e-6

    def test_random_instances_match_vertex_oracle(self):
        rng = np.random.default_rng(23)
        solved = 0
        while solved < 50:
            inputs = random_inputs(rng)
            lp = build_lp(inputs)
            ref_x, ref_obj = enumerate_lp_vertices(*lp_as_oracle_args(lp))
            if ref_x is None:
                with pytest.raises(ChargingInfeasibleError):
                    schedule_charging(inputs)
                continue
            plan = schedule_charging(inputs)
            assert plan.cost == pytest.approx(ref_obj, rel=1e-6, abs=1e-9)
            solved += 1

    def test_raising_one_price_never_raises_that_slots_charge(self):
        rng = np.random.default_rng(24)
        checked = 0
        while checked < 50:
            inputs = random_inputs(rng)
            try:
                base = schedule_charging(inputs)
            except ChargingInfeasibleError:
                continue
            t = int(rng.integers(0, inputs.T))
            bumped_prices = list(inputs.prices)
            bumped_prices[t] *= 3.0
            bumped_inputs = DayAheadInputs(
                consumed=inputs.consumed,
                demand_counts=inputs.demand_counts,
                prices=bumped_prices,
                e_init=inputs.e_init,
                params=inputs.params,
            )
            bumped = schedule_charging(bumped_inputs)
            # objective comparison is the robust direction check under ties
            base_under_bump = sum(
                p * e for p, e in zip(bumped_prices, base.e_plus)
            )
            assert bumped.cost <= base_under_bump + 1e-6
            checked += 1


def random_inputs(rng) -> DayAheadInputs:
    params = toy_params(
        J=int(rng.integers(1, 4)),
        c=float(rng.uniform(5.0, 12.0)),
        r=float(rng.uniform(1.0, 3.0)),
        e_min=float(rng.uniform(0.3, 1.2)),
    )
    T = int(rng.integers(1, 5))
    return DayAheadInputs(
        consumed=list(rng.uniform(0.0, 0.5 * params.J * params.r, size=T)),
        demand_counts=[int(rng.integers(0, params.J + 1)) for _ in range(T)],
        prices=list(rng.uniform(0.5, 9.0, size=T)),
        e_init=float(rng.uniform(0.3, 1.0)) * params.J * params.c,
        params=params,
    )


def level_floors(inputs: DayAheadInputs) -> list[float]:
    """The floors of levels 1..T, written out from the program's
    definition: the reserve entering each slot after the first, then the
    end-of-day floor."""
    par = inputs.params
    end = inputs.terminal_reserve_kwh
    return [
        (1.0 + par.rho) * max(used, par.J * par.e_min) for used in inputs.consumed[1:]
    ] + [inputs.e_init if end is None else end]


def greedy_plan(inputs: DayAheadInputs) -> float | None:
    """Charge as much as allowed every slot; None if that breaks a floor."""
    par = inputs.params
    e = inputs.e_init
    cost = 0.0
    for t, floor in enumerate(level_floors(inputs)):
        cap = max(par.J - inputs.demand_counts[t], 0) * par.r
        charge = min(cap, par.J * par.c - (e - inputs.consumed[t]))
        charge = max(charge, 0.0)
        e = e - inputs.consumed[t] + charge
        cost += inputs.prices[t] * charge
        if e < floor - 1e-9:
            return None
    return cost


class TestValidationAndExport:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DayAheadInputs(
                consumed=[1.0],
                demand_counts=[0, 0],
                prices=[1.0],
                e_init=1.0,
                params=toy_params(),
            )

    def test_demand_above_fleet(self):
        with pytest.raises(ValueError):
            DayAheadInputs(
                consumed=[1.0],
                demand_counts=[5],
                prices=[1.0],
                e_init=1.0,
                params=toy_params(J=2),
            )

    # each check fails for NaN too
    @pytest.mark.parametrize("field, value, message", [
        ("prices", [1.0, math.inf], "prices must be finite and nonnegative"),
        ("prices", [1.0, math.nan], "prices must be finite and nonnegative"),
        ("prices", [1.0, -3.0], "prices must be finite and nonnegative"),
        ("consumed", [math.nan, 1.0], "consumed must be finite and nonnegative"),
        ("consumed", [3.0, math.inf], "consumed must be finite and nonnegative"),
        ("terminal_reserve_kwh", math.nan, "terminal_reserve_kwh must be finite"),
        ("terminal_reserve_kwh", math.inf, "terminal_reserve_kwh must be finite"),
        # no plan can end the day outside [0, J*c], the fleet's 20 kwh
        ("terminal_reserve_kwh", 20.5, "at most fleet capacity 20.0 kwh, got 20.5"),
        ("terminal_reserve_kwh", -0.5, "nonnegative and at most fleet capacity"),
    ])
    def test_non_finite_value_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(TOY, **{field: value})

    def test_plan_csv(self):
        plan = schedule_charging(TOY)
        buf = io.StringIO()
        write_plan_csv(plan, TOY, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "slot,price,E_minus,E_plus,E_remaining"
        assert len(lines) == TOY.T + 1
        cells = lines[1].split(",")
        assert float(cells[3]) == plan.e_plus[0]

    def test_no_negative_zero_in_a_plan(self, monkeypatch):
        # the simplex may return a zero charge as -0.0
        x = np.array([4.0, -0.0, 7.0])
        monkeypatch.setattr(
            charging_scheduler, "solve_lp", lambda lp: LpSolution(x=x, iterations=0)
        )
        plan = schedule_charging(TOY)
        assert plan.e_plus == [4.0, 0.0]
        assert math.copysign(1.0, plan.e_plus[1]) == 1.0
        buf = io.StringIO()
        write_plan_csv(plan, TOY, buf)
        assert buf.getvalue().splitlines()[2] == "1,5.0,1.0,0.0,7.0"
