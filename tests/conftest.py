"""Shared scenario-building helpers."""

import pytest

from pvjtcs.model import GameParams, PriceCurve
from pvjtcs.network import RegionMap, RoadGraph, StationSet
from pvjtcs.transport_scheduler import TripRequest
from pvjtcs.network import shortest_path


def make_grid_graph(k: int = 4, edge_km: float = 0.5) -> RoadGraph:
    """k x k grid, both directions on every edge, ids row-major."""
    nodes = {}
    edges = []
    for row in range(k):
        for col in range(k):
            nid = row * k + col
            nodes[nid] = (col * 0.01, row * 0.01)
    for row in range(k):
        for col in range(k):
            nid = row * k + col
            if col + 1 < k:
                edges += [(nid, nid + 1, edge_km), (nid + 1, nid, edge_km)]
            if row + 1 < k:
                edges += [(nid, nid + k, edge_km), (nid + k, nid, edge_km)]
    return RoadGraph.from_edges(nodes, edges)


def make_request(graph, rid, t, origin, dest, passengers=1, earliest=None):
    direct, _ = shortest_path(graph, origin, dest)
    return TripRequest(
        id=rid,
        request_time=float(t),
        earliest_start=float(t if earliest is None else earliest),
        origin=origin,
        destination=dest,
        passengers=passengers,
        direct_km=direct,
    )


@pytest.fixture
def grid_graph():
    return make_grid_graph()


@pytest.fixture
def grid_world(grid_graph):
    """Graph + left/right regions + two stations on a 4x4 grid."""
    regions = RegionMap(
        {nid: (0 if nid % 4 < 2 else 1) for nid in grid_graph.nodes}
    )
    stations = StationSet([0, 15])
    return grid_graph, regions, stations


def default_prices(T: int = 24) -> PriceCurve:
    return PriceCurve([2.0 + (t % 5) for t in range(T)])


def small_params(**overrides) -> GameParams:
    base = dict(J=6)
    base.update(overrides)
    return GameParams(**base)


# km from the anchors of vehicles 0, 1 and 2 to a pickup, each below the
# one before by less than 1e-12: vehicle 2 is the least, so it wins from
# any subset holding it
NEAR_TIE = {0: 1.0, 1: 1.0 - 0.5e-12, 2: 1.0 - 1.5e-12}


def price_idle_insertions(monkeypatch, graph, origin, km_by_anchor):
    """Make an idle vehicle anchored at node n reach ``origin`` in
    ``km_by_anchor[n]`` km: the distance row ``graph.single_source``
    returns for n reads that at ``origin``.  An idle vehicle's insertion
    then costs that plus the trip's own km."""
    original = graph.single_source

    def priced(source):
        row, pred = original(source)
        if source in km_by_anchor:
            row = {**row, origin: km_by_anchor[source]}
        return row, pred

    monkeypatch.setattr(graph, "single_source", priced)
