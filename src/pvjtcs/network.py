"""Road graph: shortest paths and station lookup.

A ``RoadGraph`` is strongly connected, so every known node reaches every
other: a query fails only for a node the graph does not hold.  Distances
come from Dijkstra over a directed weighted edge list; equal-length
alternatives are broken toward the smallest predecessor id so repeated runs
trace identical paths.  The graph numbers its nodes once, at construction:
a node's position is its rank in id order, and Dijkstra runs over lists
indexed by position.  Because positions follow ids, a comparison of
positions is a comparison of ids, and the heap order and the tie rule are
those of a search over ids.  Full single-source results are cached per
graph, one row per source node, and kept for the graph's lifetime: a graph
has few nodes and the fleet keeps asking about the same ones.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import islice
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
        # edge_km[u][v]: the km a vehicle drives from u to its neighbour v,
        # the shortest of parallel edges (read in reverse, the sorted list
        # writes each head's shortest length last)
        self.edge_km = {
            node: dict(reversed(edges)) for node, edges in self.adjacency.items()
        }
        self._ids = sorted(self.coords)
        self._position = {nid: k for k, nid in enumerate(self._ids)}
        self._out = [
            [(self._position[to], length) for to, length in self.adjacency[nid]]
            for nid in self._ids
        ]
        orphans = self.orphan_nodes()
        if orphans:
            raise ValueError(
                "service component disconnected; orphan nodes "
                f"{orphans[:20]}{'...' if len(orphans) > 20 else ''}"
            )
        self._sp_cache: dict[int, tuple[dict[int, float], list[int]]] = {}

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
        return list(self._ids)

    def has_node(self, node: int) -> bool:
        return node in self.coords

    def orphan_nodes(self) -> list[int]:
        """Nodes not mutually reachable with the rest of the graph.

        Empty iff the graph is strongly connected: every node must reach and
        be reached by an arbitrary anchor, the smallest id.
        """
        if len(self._ids) <= 1:
            return []
        backward: list[list[tuple[int, float]]] = [[] for _ in self._ids]
        for u, edges in enumerate(self._out):
            for v, length in edges:
                backward[v].append((u, length))
        both = zip(self._ids, _reached(self._out), _reached(backward))
        return [nid for nid, there, back in both if not (there and back)]

    def single_source(self, source: int) -> tuple[dict[int, float], list[int]]:
        """Cached Dijkstra from ``source``: the ``{id: km}`` row of every
        node, and each node's predecessor on its path, smallest id among
        equal-length alternatives.

        The search runs over positions: ``dist``, ``pred`` and ``done`` are
        lists, and heap entries are ``(km, position)``.  Positions follow
        ids, so the heap order and the tie rule are those of the same search
        over ids, bit for bit.  The predecessors stay a position list (the
        source's entry is -1), which only ``shortest_path`` reads.
        """
        cached = self._sp_cache.get(source)
        if cached is not None:
            return cached
        s = self._position.get(source)
        if s is None:
            raise KeyError(f"unknown node {source}")
        n = len(self._ids)
        out = self._out
        dist: list[float | None] = [None] * n
        pred = [-1] * n
        done = [False] * n
        dist[s] = 0.0
        heap: list[tuple[float, int]] = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for v, w in out[u]:
                nd = d + w
                old = dist[v]
                if old is None or nd < old:
                    dist[v] = nd
                    pred[v] = u
                    heapq.heappush(heap, (nd, v))
                elif nd == old and not done[v] and pred[v] > u:
                    pred[v] = u
        row = (dict(zip(self._ids, dist)), pred)
        self._sp_cache[source] = row
        return row


def _reached(out: list[list[tuple[int, float]]]) -> list[bool]:
    """Which positions position 0 reaches along the edges ``out[u]``."""
    seen = [False] * len(out)
    seen[0] = True
    stack = [0]
    while stack:
        for v, _ in out[stack.pop()]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


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
    """Map from node id to region id 0..I-1; against a graph it must be
    total, name no other node and hold every id (``validate_against``)."""

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
        """The map must cover exactly the graph's nodes and skip no region
        id: a node mapped nowhere, a mapped id the graph does not hold, or a
        region without nodes is refused."""
        missing = [v for v in graph.nodes if v not in self.regions]
        if missing:
            raise ValueError(f"nodes without region assignment: {missing[:10]}")
        unknown = sorted(v for v in self.regions if not graph.has_node(v))
        if unknown:
            raise ValueError(f"nodes not in the road graph: {unknown[:10]}")
        ids = set(self.regions.values())
        top = max(ids)
        skipped = list(islice((k for k in range(top) if k not in ids), 10))
        if skipped:
            raise ValueError(f"region ids must be 0..{top} without gaps, missing {skipped}")


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
    pred, ids = graph.single_source(frm)[1], graph._ids
    path = []
    k = graph._position[to]
    while k >= 0:
        path.append(ids[k])
        k = pred[k]
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

