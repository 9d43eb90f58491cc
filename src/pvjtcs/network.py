"""Road graph: shortest paths and station lookup.

A ``RoadGraph`` is strongly connected, so every known node reaches every
other: a query fails only for a node the graph does not hold.  Distances
come from Dijkstra over a directed weighted edge list; equal-length
alternatives are broken toward the smallest predecessor id so repeated runs
trace identical paths.  Full single-source results are cached per graph, one
row per source node, and kept for the graph's lifetime: a graph has few
nodes and the fleet keeps asking about the same ones.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass
class RoadGraph:
    """Strongly connected directed road network with km edge lengths and
    lon/lat node coords."""

    coords: dict[int, tuple[float, float]]
    adjacency: dict[int, list[tuple[int, float]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for node in self.coords:
            self.adjacency.setdefault(node, [])
        for node, edges in self.adjacency.items():
            if node not in self.coords:
                raise ValueError(f"edge references unknown node {node}")
            for to, length in edges:
                if to not in self.coords:
                    raise ValueError(f"edge {node}->{to} references unknown node")
                if not 0.0 < length < math.inf:  # fails for NaN too
                    raise ValueError(
                        f"edge {node}->{to} length {length} not in (0, inf)"
                    )
            edges.sort()
        orphans = self.orphan_nodes()
        if orphans:
            raise ValueError(
                "service component disconnected; orphan nodes "
                f"{orphans[:20]}{'...' if len(orphans) > 20 else ''}"
            )
        self._sp_cache: dict[int, tuple[dict, dict]] = {}

    @classmethod
    def from_edges(
        cls,
        nodes: dict[int, tuple[float, float]],
        edges: Iterable[tuple[int, int, float]],
    ) -> "RoadGraph":
        adjacency: dict[int, list[tuple[int, float]]] = {}
        for frm, to, length in edges:
            adjacency.setdefault(frm, []).append((to, float(length)))
        return cls(coords=dict(nodes), adjacency=adjacency)

    @property
    def nodes(self) -> list[int]:
        return sorted(self.coords)

    def has_node(self, node: int) -> bool:
        return node in self.coords

    def orphan_nodes(self) -> list[int]:
        """Nodes not mutually reachable with the rest of the graph.

        Empty iff the graph is strongly connected: every node must reach and
        be reached by an arbitrary anchor.
        """
        nodes = self.nodes
        if len(nodes) <= 1:
            return []
        anchor = nodes[0]
        forward = self._reachable(anchor, reverse=False)
        backward = self._reachable(anchor, reverse=True)
        return sorted(set(nodes) - (forward & backward))

    def _reachable(self, source: int, reverse: bool) -> set[int]:
        if reverse:
            adj: dict[int, list[int]] = {v: [] for v in self.coords}
            for u, edges in self.adjacency.items():
                for v, _ in edges:
                    adj[v].append(u)
        else:
            adj = {u: [v for v, _ in edges] for u, edges in self.adjacency.items()}
        seen = {source}
        stack = [source]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def single_source(self, source: int) -> tuple[dict[int, float], dict[int, int]]:
        """Cached Dijkstra: distances and smallest-id predecessors."""
        cached = self._sp_cache.get(source)
        if cached is not None:
            return cached
        if not self.has_node(source):
            raise KeyError(f"unknown node {source}")
        dist: dict[int, float] = {source: 0.0}
        pred: dict[int, int] = {}
        heap: list[tuple[float, int]] = [(0.0, source)]
        done: set[int] = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in self.adjacency[u]:
                nd = d + w
                old = dist.get(v)
                if old is None or nd < old:
                    dist[v] = nd
                    pred[v] = u
                    heapq.heappush(heap, (nd, v))
                elif nd == old and v not in done and pred.get(v, u + 1) > u:
                    pred[v] = u
        self._sp_cache[source] = (dist, pred)
        return dist, pred


@dataclass
class StationSet:
    """Charging station locations (graph node ids)."""

    stations: Sequence[int]

    def __post_init__(self) -> None:
        self.stations = sorted(set(int(s) for s in self.stations))
        if not self.stations:
            raise ValueError("need at least one charging station")

    def __iter__(self):
        return iter(self.stations)

    def __len__(self) -> int:
        return len(self.stations)

    def validate_against(self, graph: RoadGraph) -> None:
        missing = [s for s in self.stations if not graph.has_node(s)]
        if missing:
            raise ValueError(f"stations not in the road graph: {missing}")


@dataclass
class RegionMap:
    """Total map from node id to region id 0..I-1."""

    regions: dict[int, int]

    def __post_init__(self) -> None:
        self.regions = {int(k): int(v) for k, v in self.regions.items()}
        if not self.regions:
            raise ValueError("region map is empty")
        ids = sorted(set(self.regions.values()))
        if ids[0] < 0:
            raise ValueError("region ids must be nonnegative")

    @property
    def n_regions(self) -> int:
        return max(self.regions.values()) + 1

    def region_of(self, node: int) -> int:
        try:
            return self.regions[node]
        except KeyError:
            raise KeyError(f"node {node} has no region assignment") from None

    def validate_against(self, graph: RoadGraph) -> None:
        missing = [v for v in graph.nodes if v not in self.regions]
        if missing:
            raise ValueError(f"nodes without region assignment: {missing[:10]}")


def distance(graph: RoadGraph, frm: int, to: int) -> float:
    """Shortest travel distance in km, which every known node has to every
    other; ``KeyError`` for an unknown node."""
    d = graph.single_source(frm)[0].get(to)  # KeyError for an unknown frm
    if d is None:
        raise KeyError(f"unknown node {to}")
    return d


def shortest_path(graph: RoadGraph, frm: int, to: int) -> tuple[float, list[int]]:
    """``distance`` and the node sequence, ties broken deterministically."""
    d = distance(graph, frm, to)
    pred = graph.single_source(frm)[1]
    path = [to]
    while path[-1] != frm:
        path.append(pred[path[-1]])
    path.reverse()
    return d, path


def nearest_station(
    graph: RoadGraph, node: int, stations: StationSet
) -> tuple[int, float]:
    """Closest station by directed travel distance, which every node has to
    every station; ties to the smallest id."""
    dist, _ = graph.single_source(node)
    d, best = min((dist[s], s) for s in stations)
    return best, d

