"""Feasible-set geometry: preflight clamp, the projection core, the
reference iteration's halfspace projection, oracle equivalence."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvjtcs.model import FeasibleSet, InfeasibleSetError, clamp_demand
from pvjtcs.vi_solver import _dual_scan
from oracles import active_set_projection, intersection_core, linear_scan_dual


def project_plane(point, m, S):
    """Projection onto ``{z in [0,1]^I : sum(m_i z_i) = S}``, as an array."""
    return np.array(_dual_scan([float(v) for v in point], [float(v) for v in m], S))


def project_cut(point, fset, normal, anchor):
    """Projection onto the feasible set and ``{z : <normal, z - anchor> <= 0}``."""
    return np.array(
        intersection_core(
            [float(v) for v in point],
            [float(v) for v in fset.m],
            fset.S,
            [float(v) for v in normal],
            float(np.dot(normal, anchor)),
        )
    )


def violation(z, normal, anchor):
    return float(np.dot(normal, np.asarray(z) - np.asarray(anchor)))


def random_halfspace(rng, n):
    return rng.normal(size=n), rng.uniform(0.0, 1.0, size=n)


class TestClampDemand:
    def test_already_feasible(self):
        fset = FeasibleSet(m=[10, 10], d_total=8, e_plus=8.0, r=1.0)
        out = clamp_demand(fset)
        assert out.e_plus == 8.0

    def test_clamps_to_cap(self):
        fset = FeasibleSet(m=[10, 10], d_total=8, e_plus=20.0, r=1.0)
        out = clamp_demand(fset)
        assert out.e_plus == pytest.approx(12.0)
        assert out.e_plus - fset.e_plus == pytest.approx(-8.0)
        out.check_feasible()

    def test_negative_demand_clamped_to_zero(self):
        fset = FeasibleSet(m=[5], d_total=2, e_plus=-3.0, r=2.0)
        out = clamp_demand(fset)
        assert out.e_plus == 0.0

    def test_unsatisfiable(self):
        with pytest.raises(InfeasibleSetError):
            clamp_demand(FeasibleSet(m=[5], d_total=6, e_plus=0.0, r=1.0))


@pytest.mark.parametrize("field", ["r", "e_plus", "d_total"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_feasible_set_rejects_a_non_finite_value(field, value):
    fields = {"m": [10, 10], "d_total": 8.0, "e_plus": 8.0, "r": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        FeasibleSet(**fields)


class TestBoxHyperplane:
    def test_symmetric_point(self):
        z = project_plane([1.0, 1.0], [1.0, 1.0], 1.0)
        assert z == pytest.approx([0.5, 0.5])

    def test_interior_closed_form(self):
        z = project_plane([0.9, 0.3], [1.0, 1.0], 1.0)
        assert z == pytest.approx([0.8, 0.2], abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            m = rng.uniform(0.5, 50.0, size=n)
            S = float(rng.uniform(0.0, np.sum(m)))
            z = project_plane(rng.uniform(-1.0, 2.0, size=n), m, S)
            z2 = project_plane(z, m, S)
            assert np.max(np.abs(z2 - z)) <= 1e-9

    def test_membership(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            m = rng.uniform(0.5, 50.0, size=n)
            S = float(rng.uniform(0.0, np.sum(m)))
            z = project_plane(rng.uniform(-2.0, 3.0, size=n), m, S)
            assert np.all(z >= 0.0) and np.all(z <= 1.0)
            assert abs(float(m @ z) - S) <= 1e-8 * max(1.0, np.sum(m))

    def test_nonexpansive(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            m = rng.uniform(0.5, 20.0, size=n)
            S = float(rng.uniform(0.0, np.sum(m)))
            x = rng.uniform(-1.0, 2.0, size=n)
            y = rng.uniform(-1.0, 2.0, size=n)
            px = project_plane(x, m, S)
            py = project_plane(y, m, S)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-9

    def test_matches_active_set_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            m = rng.uniform(0.5, 10.0, size=n)
            S = float(rng.uniform(0.0, np.sum(m)))
            p = rng.uniform(-0.5, 1.5, size=n)
            ours = project_plane(p, m, S)
            ref = active_set_projection(p, m, S)
            assert np.max(np.abs(ours - ref)) <= 1e-6


@st.composite
def dual_scan_cases(draw):
    """Points, weights from 1 to 100 and a right-hand side: coordinates
    repeated (equal points and weights give duplicate knots), points on the
    box faces or far outside, S at or next to 0 and sum(m)."""
    coord = st.one_of(
        st.floats(min_value=-3.0, max_value=4.0, allow_subnormal=False),
        st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.25, -1.0, 2.0]),
    )
    weight = st.integers(min_value=1, max_value=100).map(float)
    pairs = draw(
        st.lists(
            st.tuples(coord, weight, st.integers(min_value=1, max_value=3)),
            min_size=1,
            max_size=8,
        )
    )
    point, m = [], []
    for p, w, copies in pairs:
        point += [p] * copies
        m += [w] * copies
    total = sum(m)
    S = draw(
        st.one_of(
            st.floats(min_value=0.0, max_value=total),
            st.sampled_from(
                [
                    0.0,
                    5e-324,
                    1e-12,
                    total,
                    math.nextafter(total, 0.0),
                    total - 1e-12,
                    total - 1.0,
                    1.0,
                ]
            ),
            st.integers(min_value=0, max_value=int(total)).map(float),
        )
    )
    return point, m, S


class TestDualScanMatchesLinearScan:
    @settings(max_examples=400, deadline=None)
    @given(case=dual_scan_cases())
    def test_bit_equal(self, case):
        def bits(z):
            return [struct.pack("<d", v) for v in z]

        assert bits(_dual_scan(*case)) == bits(linear_scan_dual(*case))


class TestProjectFeasible:
    def test_singleton_set(self):
        fset = FeasibleSet(m=[10.0], d_total=0.0, e_plus=4.0, r=1.0)
        for p in ([0.0], [1.0], [0.37]):
            assert project_plane(p, fset.m, fset.S) == pytest.approx([0.6])

    def test_point_on_plane_fixed(self):
        fset = FeasibleSet(m=[10.0, 10.0], d_total=0.0, e_plus=8.0, r=1.0)
        assert project_plane([0.6, 0.6], fset.m, fset.S) == pytest.approx([0.6, 0.6])

    def test_symmetric_corner(self):
        fset = FeasibleSet(m=[10.0, 10.0], d_total=0.0, e_plus=8.0, r=1.0)
        assert project_plane([1.0, 1.0], fset.m, fset.S) == pytest.approx([0.6, 0.6])

    def test_propagates_infeasibility(self):
        # the check sspm_solve runs before any projection
        fset = FeasibleSet(m=[10.0], d_total=9.0, e_plus=15.0, r=1.0)
        with pytest.raises(InfeasibleSetError):
            fset.check_feasible()


class TestProjectIntersection:
    """The reference iteration's halfspace projection
    (``oracles.intersection_core``)."""

    def test_point_inside_is_fixed(self):
        fset = FeasibleSet(m=[10.0, 10.0], d_total=0.0, e_plus=8.0, r=1.0)
        z = project_cut([0.5, 0.7], fset, [1.0, -1.0], [0.0, 0.0])
        assert z == pytest.approx([0.5, 0.7], abs=1e-9)

    def test_zero_normal_reduces_to_feasible_projection(self):
        fset = FeasibleSet(m=[10.0, 10.0], d_total=0.0, e_plus=8.0, r=1.0)
        z = project_cut([1.0, 1.0], fset, [0.0, 0.0], [0.0, 0.0])
        assert z == pytest.approx([0.6, 0.6])

    def test_reference_cut_instance(self):
        # m=(10,10), S=12, cut z1 - z2 <= 0, project (1, 0.2)
        fset = FeasibleSet(m=[10.0, 10.0], d_total=0.0, e_plus=8.0, r=1.0)
        ours = project_cut([1.0, 0.2], fset, [1.0, -1.0], [0.0, 0.0])
        ref = active_set_projection(
            [1.0, 0.2], [10.0, 10.0], 12.0, normal=[1.0, -1.0], anchor=[0.0, 0.0]
        )
        assert np.max(np.abs(ours - ref)) <= 1e-6
        assert violation(ours, [1.0, -1.0], [0.0, 0.0]) <= 1e-8

    def test_halfspace_meeting_the_set_in_one_point(self):
        # captured from the reference iteration from a random start: the
        # halfspace touches the feasible segment only at its vertex
        # (1, 0.888...), where one coordinate is free and the other at a face
        point, m, S = [0.8276419350454474, 1.0], [57.0, 88.0], 135.1755902975905
        g, c = [586.7194422315761, 3575.9612875267167], 3763.456766479227
        ours = np.array(intersection_core(point, m, S, g, c))
        anchor = c * np.array(g) / np.dot(g, g)
        ref = active_set_projection(point, m, S, normal=g, anchor=anchor)
        assert np.max(np.abs(ours - ref)) <= 1e-9
        assert np.max(np.abs(ours - [1.0, 0.8883589806544375])) <= 1e-9

    def test_matches_active_set_oracle(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 5))
            m = rng.uniform(0.5, 10.0, size=n)
            S = float(rng.uniform(0.05, 0.95) * np.sum(m))
            fset = FeasibleSet(m=m, d_total=0.0, e_plus=(np.sum(m) - S) * 1.0, r=1.0)
            normal, anchor = random_halfspace(rng, n)
            # keep only instances whose intersection is provably nonempty
            try:
                probe = active_set_projection(
                    rng.uniform(0, 1, size=n), m, S, normal=normal, anchor=anchor
                )
            except ValueError:
                continue
            if violation(probe, normal, anchor) > 1e-9:
                continue
            p = rng.uniform(-0.5, 1.5, size=n)
            ours = project_cut(p, fset, normal, anchor)
            ref = active_set_projection(p, m, S, normal=normal, anchor=anchor)
            assert np.max(np.abs(ours - ref)) <= 1e-6
            checked += 1

    def test_idempotent_and_members(self):
        rng = np.random.default_rng(12)
        fset = FeasibleSet(m=[3.0, 7.0, 5.0], d_total=0.0, e_plus=6.0, r=1.0)
        normal, anchor = [2.0, -1.0, 0.5], [0.3, 0.5, 0.4]
        for _ in range(50):
            p = rng.uniform(-1.0, 2.0, size=3)
            z = project_cut(p, fset, normal, anchor)
            assert abs(float(np.dot(fset.m, z)) - fset.S) <= 1e-8 * max(1.0, fset.m_total)
            assert violation(z, normal, anchor) <= 1e-8
            z2 = project_cut(z, fset, normal, anchor)
            assert np.max(np.abs(z2 - z)) <= 1e-9
