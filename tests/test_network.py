"""Road graph queries against Bellman-Ford and the stated conventions."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvjtcs.network import (
    RegionMap,
    RoadGraph,
    StationSet,
    distance,
    nearest_station,
    shortest_path,
)
from conftest import make_grid_graph
from oracles import bellman_ford, dict_dijkstra

def line_graph():
    # a(0) -- 1km -- b(1) -- 2km -- c(2), both directions
    nodes = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)}
    edges = [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 2.0), (2, 1, 2.0)]
    return RoadGraph.from_edges(nodes, edges)


def diamond_graph():
    # two equal-length routes 0->3: via 1 (1+2) and via 2 (2+1)
    nodes = {i: (float(i), 0.0) for i in range(4)}
    edges = [
        (0, 1, 1.0), (1, 3, 2.0),
        (0, 2, 2.0), (2, 3, 1.0),
        (1, 0, 1.0), (3, 1, 2.0), (2, 0, 2.0), (3, 2, 1.0),
    ]
    return RoadGraph.from_edges(nodes, edges)


@st.composite
def tie_graphs(draw):
    """A strongly connected graph of 1-12 nodes with ids in any order: a
    ring through the ids in drawn order, extra edges (self-loops among
    them) and parallel copies of the edges.  Lengths come from a small set,
    so equal-length routes are common; 0.1 + 0.2 != 0.3 in floats, so some
    near-equal ones differ in the last bit."""
    n = draw(st.integers(min_value=1, max_value=12))
    ids = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True))
    lengths = st.sampled_from([0.1, 0.2, 0.3, 0.5, 1.0])
    edges = [(a, b, draw(lengths)) for a, b in zip(ids, ids[1:] + ids[:1]) if a != b]
    node = st.sampled_from(ids)
    edges += draw(st.lists(st.tuples(node, node, lengths), max_size=3 * n))
    if edges:
        copies = draw(st.lists(st.tuples(st.sampled_from(edges), lengths), max_size=n))
        edges += [(a, b, w) for (a, b, _), w in copies]
    return RoadGraph.from_edges({nid: (float(nid), 0.0) for nid in ids}, edges)


class TestShortestPath:
    def test_self_path(self):
        g = line_graph()
        assert shortest_path(g, 1, 1) == (0.0, [1])

    def test_line(self):
        g = line_graph()
        dist, path = shortest_path(g, 0, 2)
        assert dist == pytest.approx(3.0)
        assert path == [0, 1, 2]

    def test_diamond_tie_break_deterministic(self):
        g = diamond_graph()
        d1, p1 = shortest_path(g, 0, 3)
        d2, p2 = shortest_path(diamond_graph(), 0, 3)
        assert d1 == d2 == pytest.approx(3.0)
        assert p1 == p2 == [0, 1, 3]  # smaller predecessor id wins

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            shortest_path(line_graph(), 0, 99)

    def test_matches_bellman_ford(self):
        # a random digraph is a RoadGraph exactly when Bellman-Ford reaches
        # every node from every node, and then its distances are Bellman-Ford's
        rng = np.random.default_rng(31)
        accepted = 0
        for _ in range(20):
            n = int(rng.integers(2, 30))
            nodes = {i: (float(i), 0.0) for i in range(n)}
            edges = []
            for u in range(n):
                for v in rng.choice(n, size=min(4, n), replace=False):
                    if int(v) != u:
                        edges.append((u, int(v), float(rng.uniform(0.1, 5.0))))
            refs = {src: bellman_ford((list(range(n)), edges), src) for src in nodes}
            # orphans: the nodes not mutually reachable with node 0
            orphans = [v for v in nodes if np.inf in (refs[0][v], refs[v][0])]
            if orphans:
                message = re.escape(f"orphan nodes {orphans[:20]}")
                with pytest.raises(ValueError, match=message):
                    RoadGraph.from_edges(nodes, edges)
                continue
            g = RoadGraph.from_edges(nodes, edges)
            accepted += 1
            for src, ref in refs.items():
                for v in range(n):
                    dist, path = shortest_path(g, src, v)
                    assert dist == pytest.approx(ref[v], abs=1e-9)
                    assert distance(g, src, v) == dist
                    assert path[0] == src and path[-1] == v
        assert 0 < accepted < 20  # both outcomes are drawn

    @settings(max_examples=300, deadline=None)
    @given(g=tie_graphs())
    def test_equals_the_dict_reference_bit_for_bit(self, g):
        for src in g.nodes:
            dist, pred = dict_dijkstra(g, src)
            assert g.single_source(src)[0] == dist  # exact float equality
            for v in g.nodes:
                path = [v]
                while path[-1] != src:
                    path.append(pred[path[-1]])
                assert shortest_path(g, src, v) == (dist[v], path[::-1])

    def test_triangle_inequality(self):
        g = diamond_graph()
        rng = np.random.default_rng(32)
        for _ in range(50):
            a, b, c = rng.integers(0, 4, size=3)
            dab, _ = shortest_path(g, int(a), int(b))
            dbc, _ = shortest_path(g, int(b), int(c))
            dac, _ = shortest_path(g, int(a), int(c))
            assert dac <= dab + dbc + 1e-9


def random_graph(seed, n=12):
    # random edges over a one-way ring, which makes it strongly connected
    rng = np.random.default_rng(seed)
    nodes = {i: (float(i), 0.0) for i in range(n)}
    edges = [(u, (u + 1) % n, 5.0) for u in range(n)]
    for u in range(n):
        for v in rng.choice(n, size=3, replace=False):
            if int(v) != u:
                edges.append((u, int(v), float(rng.uniform(0.1, 5.0))))
    return RoadGraph.from_edges(nodes, edges)


def one_way_graph():
    # a one-way ring: 0 -> 1 -> 2 -> 0
    nodes = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)}
    return RoadGraph.from_edges(nodes, [(0, 1, 1.0), (1, 2, 0.7), (2, 0, 2.5)])


def outcome(query, g, a, b):
    """The distance bit for bit, or the exception's type and message."""
    try:
        out = query(g, a, b)
    except KeyError as exc:
        return type(exc), str(exc)
    return (out[0] if isinstance(out, tuple) else out).hex()


class TestDistance:
    @pytest.mark.parametrize(
        "make",
        [line_graph, diamond_graph, one_way_graph, make_grid_graph,
         lambda: random_graph(33), lambda: random_graph(34)],
    )
    def test_equals_shortest_path_on_every_pair(self, make):
        g = make()
        for a in g.nodes:
            for b in g.nodes:
                assert outcome(distance, g, a, b) == outcome(shortest_path, g, a, b)

    def test_same_errors_as_shortest_path(self):
        g = one_way_graph()
        cases = [(0, 99), (99, 0), (99, 99)]
        for a, b in cases:
            assert outcome(distance, g, a, b) == outcome(shortest_path, g, a, b)
        kinds = [outcome(distance, g, a, b)[0] for a, b in cases]
        assert kinds == [KeyError] * 3


class TestNearestStation:
    def test_node_is_station(self):
        g = line_graph()
        assert nearest_station(g, 1, StationSet([1, 2])) == (1, 0.0)

    def test_line_choice(self):
        g = line_graph()
        assert nearest_station(g, 1, StationSet([0, 2])) == (0, 1.0)

    def test_tie_smaller_id(self):
        nodes = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)}
        edges = [(1, 0, 1.5), (1, 2, 1.5), (0, 1, 1.5), (2, 1, 1.5)]
        g = RoadGraph.from_edges(nodes, edges)
        assert nearest_station(g, 1, StationSet([2, 0])) == (0, 1.5)


class TestStructures:
    def test_orphans_detected(self):
        nodes = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)}
        with pytest.raises(ValueError, match=r"orphan nodes \[2\]$"):
            RoadGraph.from_edges(nodes, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)])
        assert line_graph().orphan_nodes() == []

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            RoadGraph.from_edges({0: (0.0, 0.0)}, [(0, 7, 1.0)])
        # NaN passes a ``<= 0`` test, and an infinite length is no road either
        for length in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^edge 0->1 length .* not in \(0, inf\)$"):
                RoadGraph.from_edges(
                    {0: (0.0, 0.0), 1: (1.0, 0.0)}, [(0, 1, length), (1, 0, 1.0)]
                )

    def test_station_validation(self):
        g = line_graph()
        StationSet([0, 2]).validate_against(g)
        with pytest.raises(ValueError):
            StationSet([0, 9]).validate_against(g)
        with pytest.raises(ValueError):
            StationSet([])

    def test_region_map(self):
        g = line_graph()
        rm = RegionMap({0: 0, 1: 0, 2: 1})
        rm.validate_against(g)
        assert rm.n_regions == 2
        assert rm.region_of(2) == 1
        with pytest.raises(KeyError):
            rm.region_of(9)
        with pytest.raises(ValueError):
            RegionMap({0: 0, 1: 0}).validate_against(g)

    @pytest.mark.parametrize("regions, message", [
        ({0: 0, 1: 2, 2: 4}, r"region ids must be 0..4 without gaps, missing \[1, 3\]$"),
        # a huge id names the first ten gaps without walking up to it
        ({0: 0, 1: 10**12, 2: 0}, r"0..1000000000000 without gaps, missing \[1, .*, 10\]$"),
        ({0: -1, 1: 0, 2: 0}, "region ids must be nonnegative"),
    ])
    def test_region_ids_without_gaps(self, regions, message):
        with pytest.raises(ValueError, match=message):
            RegionMap(regions).validate_against(line_graph())

    def test_cache_consistency(self):
        g = line_graph()
        d1, _ = shortest_path(g, 0, 2)
        d2, _ = shortest_path(g, 0, 2)  # cached
        assert d1 == d2
