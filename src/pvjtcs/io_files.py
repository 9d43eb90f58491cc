"""CSV ingestion and result export.

File formats (all CSV with a header row):

* nodes.csv:    id,lon,lat
* network.csv:  from_id,to_id,length_km   (directed; two rows for two-way)
* stations.csv: node_id
* regions.csv:  node_id,region_id
* trips.csv:    id,request_time,earliest_start,origin_lon,origin_lat,
                dest_lon,dest_lat,passengers
* prices.csv:   hour,price_cents_per_kwh

A node id, trip id or hour (0-23) appears once in its file.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import tempfile
from dataclasses import fields
from typing import Sequence

import numpy as np

from pvjtcs.model import PriceCurve
from pvjtcs.network import RegionMap, RoadGraph, StationSet, distance
from pvjtcs.simulator import RunSummary, SlotMetrics
from pvjtcs.transport_scheduler import TripRequest

LOG = logging.getLogger(__name__)


class DataFormatError(ValueError):
    """A data file failed to parse; the message carries file and line."""


def _rows(path: str, expected_header: Sequence[str]):
    try:
        handle = open(path, newline="")
    except OSError as err:
        raise DataFormatError(f"{path}: {err}") from err
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if [h.strip() for h in header] != list(expected_header):
            raise DataFormatError(
                f"{path}: header {header} does not match {list(expected_header)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            yield lineno, row


def _once(lines: dict, key: int, path: str, lineno: int, what: str) -> None:
    """Record that ``key`` is given on ``lineno``; a key given twice is an
    error naming both lines."""
    if key in lines:
        raise DataFormatError(
            f"{path}:{lineno}: {what} {key} already given on line {lines[key]}"
        )
    lines[key] = lineno


def load_network(nodes_path: str, edges_path: str) -> RoadGraph:
    """Parse node coordinates and directed edges; the graph must be strongly
    connected."""
    nodes: dict[int, tuple[float, float]] = {}
    lines: dict[int, int] = {}
    for lineno, row in _rows(nodes_path, ["id", "lon", "lat"]):
        try:
            nid, xy = int(row[0]), (float(row[1]), float(row[2]))
        except (ValueError, IndexError) as err:
            raise DataFormatError(f"{nodes_path}:{lineno}: {err}") from None
        if not all(map(math.isfinite, xy)):
            raise DataFormatError(f"{nodes_path}:{lineno}: coordinates must be finite")
        _once(lines, nid, nodes_path, lineno, "node")
        nodes[nid] = xy
    edges: list[tuple[int, int, float]] = []
    for lineno, row in _rows(edges_path, ["from_id", "to_id", "length_km"]):
        try:
            frm, to, length = int(row[0]), int(row[1]), float(row[2])
        except (ValueError, IndexError) as err:
            raise DataFormatError(f"{edges_path}:{lineno}: {err}") from None
        if not 0.0 < length < math.inf:  # fails for NaN too
            raise DataFormatError(
                f"{edges_path}:{lineno}: length_km {length} not in (0, inf)"
            )
        edges.append((frm, to, length))
    try:
        return RoadGraph.from_edges(nodes, edges)
    except ValueError as err:
        raise DataFormatError(f"{edges_path}: {err}") from None


def load_stations(path: str, graph: RoadGraph) -> StationSet:
    ids = []
    for lineno, row in _rows(path, ["node_id"]):
        try:
            ids.append(int(row[0]))
        except ValueError as err:
            raise DataFormatError(f"{path}:{lineno}: {err}") from None
    try:
        stations = StationSet(ids)
        stations.validate_against(graph)
    except ValueError as err:
        raise DataFormatError(f"{path}: {err}") from None
    return stations


def load_regions(path: str, graph: RoadGraph) -> RegionMap:
    mapping: dict[int, int] = {}
    lines: dict[int, int] = {}
    for lineno, row in _rows(path, ["node_id", "region_id"]):
        try:
            node, region = int(row[0]), int(row[1])
        except (ValueError, IndexError) as err:
            raise DataFormatError(f"{path}:{lineno}: {err}") from None
        _once(lines, node, path, lineno, "node")
        mapping[node] = region
    try:
        regions = RegionMap(mapping)
        regions.validate_against(graph)
    except ValueError as err:
        raise DataFormatError(f"{path}: {err}") from None
    return regions


_SNAP_BLOCK = 1024  # points per distance matrix


def nearest_nodes(
    graph: RoadGraph, points: Sequence[tuple[float, float]]
) -> list[int]:
    """Euclidean snap of each (lon, lat) point in coordinate space: the node
    with the least ``(x - lon) ** 2 + (y - lat) ** 2``, ties to the smaller
    id.

    A numpy distance matrix, a block of points at a time, keeps for each
    point only the nodes within a relative 1e-9 of its least distance.  A
    point that keeps one node is decided in bulk: that node is its snap.
    The rule itself runs, over the kept nodes in id order, only on points
    that keep two or more near-tied nodes, and on NaN rows, which keep
    every node.  The matrix is only a filter because numpy squares by
    ``x * x``, which differs from ``x ** 2`` in the last bit for some
    doubles, far inside the margin.
    """
    ids = graph.nodes
    coords = [graph.coords[nid] for nid in ids]
    xs, ys = np.array(coords, dtype=float).reshape(-1, 2).T
    id_array = np.array(ids)
    snapped: list[int] = []
    for start in range(0, len(points), _SNAP_BLOCK):
        block = points[start:start + _SNAP_BLOCK]
        lon, lat = np.array(block, dtype=float).reshape(-1, 2).T
        d = (xs[None, :] - lon[:, None]) ** 2 + (ys[None, :] - lat[:, None]) ** 2
        near = ~(d > (d.min(axis=1) * (1.0 + 1e-9))[:, None])
        picks = id_array[near.argmax(axis=1)].tolist()
        for r in np.flatnonzero(near.sum(axis=1) > 1).tolist():
            plon, plat = block[r]
            best, best_d = None, None
            for k in np.flatnonzero(near[r]).tolist():
                x, y = coords[k]
                dk = (x - plon) ** 2 + (y - plat) ** 2
                if best_d is None or dk < best_d:
                    best, best_d = ids[k], dk
            picks[r] = best
        snapped += picks
    return snapped


def load_trips(path: str, filter_km: float, graph: RoadGraph) -> list[TripRequest]:
    """Parse trips in file order, snap endpoints to graph nodes, drop short
    trips.

    Unparseable rows, a non-finite coordinate among them, are skipped with
    a logged count; a file with no usable rows, or two rows with one id, is
    an error.
    """
    header = [
        "id",
        "request_time",
        "earliest_start",
        "origin_lon",
        "origin_lat",
        "dest_lon",
        "dest_lat",
        "passengers",
    ]
    trips: list[TripRequest] = []
    bad = 0
    total = 0
    parsed = []  # (lineno, id, request time, earliest start, passengers)
    lines: dict[int, int] = {}
    ends: list[tuple[float, float]] = []  # origin and destination of each
    for lineno, row in _rows(path, header):
        total += 1
        try:
            head = (lineno, int(row[0]), float(row[1]), float(row[2]), int(row[7]))
            origin_xy = (float(row[3]), float(row[4]))
            dest_xy = (float(row[5]), float(row[6]))
            if not all(map(math.isfinite, origin_xy + dest_xy)):
                raise ValueError("non-finite coordinate")
        except (ValueError, IndexError):
            bad += 1
            LOG.warning("%s:%d: skipping unparseable trip row", path, lineno)
            continue
        _once(lines, head[1], path, lineno, "trip id")
        parsed.append(head)
        ends += [origin_xy, dest_xy]
    nodes = nearest_nodes(graph, ends)
    for k, (lineno, rid, t_req, t_earliest, passengers) in enumerate(parsed):
        origin, dest = nodes[2 * k], nodes[2 * k + 1]
        if origin == dest:
            continue
        try:
            direct = distance(graph, origin, dest)
            if direct < filter_km:
                continue
            trips.append(
                TripRequest(
                    id=rid,
                    request_time=t_req,
                    earliest_start=t_earliest,
                    origin=origin,
                    destination=dest,
                    passengers=passengers,
                    direct_km=direct,
                )
            )
        except ValueError:
            bad += 1
            LOG.warning("%s:%d: skipping unparseable trip row", path, lineno)
    if bad:
        LOG.warning("%s: skipped %d unparseable rows", path, bad)
    if total == 0 or (bad == total):
        raise DataFormatError(f"{path}: no usable trip rows")
    return trips


def load_prices(path: str, T: int, start_hour: int) -> PriceCurve:
    """Hourly prices aligned so slot 0 carries the start hour's price; a day
    of more than 24 slots wraps around the clock."""
    by_hour: dict[int, float] = {}
    lines: dict[int, int] = {}
    for lineno, row in _rows(path, ["hour", "price_cents_per_kwh"]):
        try:
            hour = int(row[0])
            price = float(row[1])
        except (ValueError, IndexError) as err:
            raise DataFormatError(f"{path}:{lineno}: {err}") from None
        if not 0.0 <= price < math.inf:  # fails for NaN too
            raise DataFormatError(
                f"{path}:{lineno}: price must be finite and nonnegative, got {price}"
            )
        if not 0 <= hour < 24:
            raise DataFormatError(f"{path}:{lineno}: hour must lie in 0-23, got {hour}")
        _once(lines, hour, path, lineno, "hour")
        by_hour[hour] = price
    prices = []
    for t in range(T):
        hour = (start_hour + t) % 24
        if hour not in by_hour:
            raise DataFormatError(f"{path}: missing price for hour {hour}")
        prices.append(by_hour[hour])
    return PriceCurve(prices)


def atomic_write(path: str, content: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def slots_csv(summary: RunSummary) -> str:
    """One row per slot: the ``SlotMetrics`` fields in order, each cell its
    value's ``repr``."""
    names = [f.name for f in fields(SlotMetrics)]
    lines = [",".join(names)]
    for s in summary.slots:
        lines.append(",".join(repr(getattr(s, name)) for name in names))
    return "\n".join(lines) + "\n"


def summary_json(summaries: dict[str, RunSummary]) -> str:
    doc = {mode: s.to_dict() for mode, s in summaries.items()}
    if "jtcs" in summaries and "tgc" in summaries:
        j, g = summaries["jtcs"], summaries["tgc"]
        doc["comparison"] = {
            "average_price_ratio": (
                j.average_price / g.average_price
                if j.average_price and g.average_price
                else None
            ),
            "charged_kwh_jtcs_minus_tgc": j.total_charged_kwh - g.total_charged_kwh,
            "payment_cents_jtcs_minus_tgc": (
                j.total_payment_cents - g.total_payment_cents
            ),
            "served_jtcs": j.served,
            "served_tgc": g.served,
        }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
