"""Data ingestion, export round-trips, and the command-line surface."""

import csv
import hashlib
import importlib.util
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvjtcs import cli, io_files, simulator, vi_solver
from pvjtcs.cli import main
from pvjtcs.io_files import (
    DataFormatError,
    load_network,
    load_prices,
    load_regions,
    load_stations,
    load_trips,
    nearest_nodes,
)
from pvjtcs.model import GameParams
from pvjtcs.network import RoadGraph, StationSet
from pvjtcs.transport_scheduler import FleetEngine
from pvjtcs.vi_solver import SspmConvergenceError, SspmTrace, kkt_verify
from oracles import clip_start, scan_nearest_node, sspm_iterate

REPO = Path(__file__).resolve().parent.parent
MINI = REPO / "scenarios" / "manhattan-mini"
# a ``params`` value every subcommand rejects, with its error message
BAD_PARAMS = [
    ({"alpha": 1}, "unknown parameter overrides: ['alpha']"),
    ([1], "params must be a JSON object, not list"),
    ({"seats": "4"}, "parameter seats must be a number, not '4'"),
    ({"alpha1": True}, "parameter alpha1 must be a number, not True"),
    ({"rho": None}, "parameter rho must be a number, not None"),
    ({"rho": float("nan")}, "rho must be positive, got nan"),
    # a step constant of the paper's iteration, which the exact solve lacks
    ({"gamma3": 1.5}, "unknown parameter overrides: ['gamma3']"),
    # a slot is one hour, the step of the hourly prices
    ({"slot_hours": 0.5}, "unknown parameter overrides: ['slot_hours']"),
    # the certificate's bound is a solver constant, not a parameter
    ({"epsilon": 1e-3}, "unknown parameter overrides: ['epsilon']"),
    # a vehicle holds a whole number of passengers
    ({"seats": 2.5}, "seats must be a whole number, got 2.5"),
]
# the solve-vi instance that the console-script check in CI runs
SYMMETRIC_GAME = {"m": [10, 10], "d": [5, 5], "d_total": 8, "e_plus": 8.0,
                  "r": 1.0, "price": 2.0}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def bundled_config(tmp_path, **changes) -> str:
    """A config in ``tmp_path`` for the bundled scenario's files, with
    ``changes`` over the bundled config's settings."""
    config = json.loads((MINI / "config.json").read_text())
    for key in ("nodes", "network", "stations", "regions", "trips", "prices"):
        config[key] = str(MINI / config.get(key, cli.CONFIG_DEFAULTS[key]))
    return write(tmp_path, "c.json", json.dumps({**config, **changes}))


def recording(monkeypatch, module):
    """The list of every ``(args, result)`` of ``module.sspm_solve`` from
    now on, in call order."""
    games = []
    solve = module.sspm_solve

    def record(*args):
        games.append((args, solve(*args)))
        return games[-1][1]

    monkeypatch.setattr(module, "sspm_solve", record)
    return games


@pytest.fixture
def tiny_network(tmp_path):
    nodes = write(
        tmp_path,
        "nodes.csv",
        "id,lon,lat\n0,0.0,0.0\n1,1.0,0.0\n2,2.0,0.0\n",
    )
    edges = write(
        tmp_path,
        "network.csv",
        "from_id,to_id,length_km\n0,1,1.0\n1,0,1.0\n1,2,2.0\n2,1,2.0\n",
    )
    return nodes, edges


class TestLoadNetwork:
    def test_three_row_edge_file(self, tiny_network):
        graph = load_network(*tiny_network)
        assert len(graph.nodes) == 3
        assert graph.adjacency[1] == [(0, 1.0), (2, 2.0)]

    def test_malformed_row_reports_line(self, tmp_path, tiny_network):
        nodes, _ = tiny_network
        bad = write(
            tmp_path, "bad.csv", "from_id,to_id,length_km\n0,1,1.0\n1,zero,1.0\n"
        )
        with pytest.raises(DataFormatError, match="bad.csv:3"):
            load_network(nodes, bad)

    def test_wrong_header(self, tmp_path, tiny_network):
        nodes, _ = tiny_network
        bad = write(tmp_path, "bad.csv", "a,b,c\n0,1,1.0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_network(nodes, bad)

    def test_disconnected_lists_orphans(self, tmp_path, tiny_network):
        nodes, _ = tiny_network
        oneway = write(
            tmp_path, "oneway.csv",
            "from_id,to_id,length_km\n0,1,1.0\n1,0,1.0\n1,2,2.0\n",
        )
        with pytest.raises(DataFormatError, match=r"orphan nodes \[2\]"):
            load_network(nodes, oneway)

    def test_repeated_node_rejected(self, tmp_path, tiny_network):
        _, edges = tiny_network
        nodes = write(
            tmp_path, "twice.csv", "id,lon,lat\n0,0.0,0.0\n1,1.0,0.0\n2,2.0,0.0\n0,5,5\n"
        )
        with pytest.raises(
            DataFormatError, match=r"twice.csv:5: node 0 already given on line 2$"
        ):
            load_network(nodes, edges)

    # NaN passes a ``<= 0`` test, and an infinite length is no road either
    @pytest.mark.parametrize("length", ["nan", "inf", "-inf", "0.0"])
    def test_edge_length_outside_zero_to_infinity_reports_line(
        self, tmp_path, tiny_network, length
    ):
        nodes, _ = tiny_network
        bad = write(
            tmp_path, "bad.csv",
            f"from_id,to_id,length_km\n0,1,1.0\n1,0,{length}\n1,2,2.0\n2,1,2.0\n",
        )
        with pytest.raises(
            DataFormatError, match=rf"bad.csv:3: length_km {length} not in \(0, inf\)$"
        ):
            load_network(nodes, bad)

    # a NaN coordinate on node 0 would draw every trip endpoint to node 0
    @pytest.mark.parametrize("lon, lat", [("nan", "0.0"), ("inf", "0.0"),
                                          ("0.0", "-inf")])
    def test_non_finite_coordinate_reports_line(
        self, tmp_path, tiny_network, lon, lat
    ):
        _, edges = tiny_network
        nodes = write(
            tmp_path, "bad.csv", f"id,lon,lat\n0,{lon},{lat}\n1,1.0,0.0\n2,2.0,0.0\n"
        )
        with pytest.raises(
            DataFormatError, match=r"bad.csv:2: coordinates must be finite"
        ):
            load_network(nodes, edges)

    def test_parallel_edges_and_repeated_stations_allowed(self, tmp_path, tiny_network):
        nodes, edges = tiny_network
        with open(edges, "a") as handle:
            handle.write("0,1,1.5\n")
        graph = load_network(nodes, edges)
        assert graph.adjacency[0] == [(1, 1.0), (1, 1.5)]
        stations = load_stations(write(tmp_path, "s.csv", "node_id\n2\n2\n"), graph)
        assert list(stations) == [2]


class TestLoadStationsRegions:
    def test_station_missing_from_graph(self, tmp_path, tiny_network):
        graph = load_network(*tiny_network)
        path = write(tmp_path, "stations.csv", "node_id\n0\n9\n")
        with pytest.raises(DataFormatError, match="9"):
            load_stations(path, graph)

    def test_node_without_region(self, tmp_path, tiny_network):
        graph = load_network(*tiny_network)
        path = write(tmp_path, "regions.csv", "node_id,region_id\n0,0\n1,0\n")
        with pytest.raises(DataFormatError, match="region"):
            load_regions(path, graph)

    def test_region_node_missing_from_graph(self, tmp_path, tiny_network):
        # a mapped node the graph lacks would raise n_regions to its region
        graph = load_network(*tiny_network)
        path = write(tmp_path, "r.csv",
                     "node_id,region_id\n0,0\n1,0\n2,1\n999,9\n7,9\n")
        with pytest.raises(
            DataFormatError, match=r"r.csv: nodes not in the road graph: \[7, 999\]$"
        ):
            load_regions(path, graph)

    def test_good_files(self, tmp_path, tiny_network):
        graph = load_network(*tiny_network)
        st = load_stations(write(tmp_path, "s.csv", "node_id\n0\n2\n"), graph)
        assert list(st) == [0, 2]
        rm = load_regions(
            write(tmp_path, "r.csv", "node_id,region_id\n0,0\n1,0\n2,1\n"), graph
        )
        assert rm.n_regions == 2

    def test_repeated_region_node_rejected(self, tmp_path, tiny_network):
        graph = load_network(*tiny_network)
        path = write(tmp_path, "r.csv", "node_id,region_id\n0,0\n1,0\n2,1\n1,1\n")
        with pytest.raises(
            DataFormatError, match=r"r.csv:5: node 1 already given on line 3$"
        ):
            load_regions(path, graph)


class TestLoadTrips:
    HEADER = (
        "id,request_time,earliest_start,origin_lon,origin_lat,"
        "dest_lon,dest_lat,passengers\n"
    )

    def test_snaps_and_sorts(self, tmp_path, tiny_network):
        graph = load_network(*tiny_network)
        path = write(
            tmp_path,
            "trips.csv",
            self.HEADER
            + "2,100,100,0.1,0.0,2.1,0.0,1\n"
            + "1,50,60,1.9,0.0,0.05,0.0,2\n",
        )
        trips = load_trips(path, 0.0, graph)
        assert [t.id for t in trips] == [2, 1]  # file order
        assert trips[0].origin == 0 and trips[0].destination == 2
        assert trips[1].origin == 2 and trips[1].destination == 0
        assert trips[0].direct_km == pytest.approx(3.0)
        # the fleet engine, their one reader, releases them by (time, id)
        engine = FleetEngine(
            graph=graph, stations=StationSet([0]), requests=trips, vehicles=[],
            params=GameParams(J=1), start_epoch=0.0, batch_minutes=5.0,
        )
        assert [r.id for r in engine.all_requests] == [1, 2]

    def test_same_node_after_snapping_dropped(self, tmp_path, tiny_network):
        graph = load_network(*tiny_network)
        path = write(
            tmp_path,
            "trips.csv",
            self.HEADER + "1,0,0,0.9,0.0,1.1,0.0,1\n2,0,0,0.0,0.0,2.0,0.0,1\n",
        )
        trips = load_trips(path, 0.0, graph)
        assert [t.id for t in trips] == [2]

    def test_distance_filter(self, tmp_path, tiny_network):
        graph = load_network(*tiny_network)
        path = write(
            tmp_path,
            "trips.csv",
            self.HEADER + "1,0,0,0.0,0.0,1.0,0.0,1\n2,0,0,0.0,0.0,2.0,0.0,1\n",
        )
        assert len(load_trips(path, 0.0, graph)) == 2
        kept = load_trips(path, 2.0, graph)  # 1 km trip dropped
        assert [t.id for t in kept] == [2]

    def test_unparseable_skipped_all_bad_errors(self, tmp_path, tiny_network):
        graph = load_network(*tiny_network)
        mixed = write(
            tmp_path,
            "trips.csv",
            self.HEADER + "x,0,0,0,0,2,0,1\n2,0,0,0.0,0.0,2.0,0.0,1\n",
        )
        assert len(load_trips(mixed, 0.0, graph)) == 1
        all_bad = write(tmp_path, "bad.csv", self.HEADER + "x,0,0,0,0,2,0,1\n")
        with pytest.raises(DataFormatError):
            load_trips(all_bad, 0.0, graph)

    @pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_skipped(self, tmp_path, tiny_network, caplog,
                                           coord):
        graph = load_network(*tiny_network)
        path = write(
            tmp_path,
            "trips.csv",
            self.HEADER + f"1,0,0,0.0,0.0,{coord},0.0,1\n2,0,0,0.0,0.0,2.0,0.0,1\n",
        )
        assert [t.id for t in load_trips(path, 0.0, graph)] == [2]
        assert "trips.csv:2: skipping unparseable trip row" in caplog.text

    def test_repeated_id_rejected(self, tmp_path, tiny_network):
        # the second trip would share the first one's request state and
        # never be served, so the file is refused rather than thinned
        graph = load_network(*tiny_network)
        path = write(
            tmp_path,
            "trips.csv",
            self.HEADER + "1,0,0,0.0,0.0,2.0,0.0,1\n"
            + "2,0,0,2.0,0.0,0.0,0.0,1\n1,9,9,2.0,0.0,0.0,0.0,1\n",
        )
        with pytest.raises(
            DataFormatError, match=r"trips.csv:4: trip id 1 already given on line 2$"
        ):
            load_trips(path, 0.0, graph)


@st.composite
def snap_cases(draw):
    """A graph of 1-12 nodes on a coarse lattice (so equal distances are
    common) or anywhere, with ids in any order, and points on nodes,
    halfway between two nodes, on the lattice or anywhere."""
    coarse = st.integers(-3, 3).map(lambda k: k * 0.25)
    anywhere = st.floats(-2.0, 2.0, allow_nan=False)
    coordinate = coarse | anywhere
    n = draw(st.integers(min_value=1, max_value=12))
    ids = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True))
    coords = {nid: (draw(coordinate), draw(coordinate)) for nid in ids}
    ring = {a: [(b, 1.0)] for a, b in zip(ids, ids[1:] + ids[:1]) if a != b}
    graph = RoadGraph(coords=coords, adjacency=ring)
    at = list(coords.values())
    point = (
        st.sampled_from(at)
        | st.tuples(st.sampled_from(at), st.sampled_from(at)).map(
            lambda ab: ((ab[0][0] + ab[1][0]) / 2, (ab[0][1] + ab[1][1]) / 2))
        | st.tuples(coordinate, coordinate)
        | st.just((math.nan, 0.0))
    )
    return graph, draw(st.lists(point, max_size=30))


class TestNearestNodes:
    @settings(max_examples=300, deadline=None)
    @given(case=snap_cases())
    def test_matches_the_node_scan(self, case):
        graph, points = case
        assert nearest_nodes(graph, points) == [
            scan_nearest_node(graph, lon, lat) for lon, lat in points
        ]

    def test_squares_as_the_rule_does(self):
        # node 1 on the axis and node 0 off it are exactly as far from the
        # origin by ``** 2``, so node 0 wins the tie; squared by ``x * x``,
        # as numpy does, node 1 would look nearer by one unit in the last place
        x, a, b = 0.7845537517371617, 0.45690851008709965, 0.637776765627945
        graph = RoadGraph.from_edges(
            {0: (a, b), 1: (x, 0.0)}, [(0, 1, 1.0), (1, 0, 1.0)]
        )
        assert x * x < a * a + b * b and x ** 2 == a ** 2 + b ** 2
        assert nearest_nodes(graph, [(0.0, 0.0)]) == [0]
        assert scan_nearest_node(graph, 0.0, 0.0) == 0

    def test_bundled_endpoints_across_blocks(self):
        # 400 endpoints, and 3000 jittered ones over three matrix blocks
        graph = load_network(str(MINI / "nodes.csv"), str(MINI / "network.csv"))
        with open(MINI / "trips.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        points = [(float(r[f"{end}_lon"]), float(r[f"{end}_lat"]))
                  for r in rows for end in ("origin", "dest")]
        rng = np.random.default_rng(5)
        lons = [lon for lon, _ in points]
        lats = [lat for _, lat in points]
        points += list(zip(
            rng.uniform(min(lons), max(lons), 3000).tolist(),
            rng.uniform(min(lats), max(lats), 3000).tolist(),
        ))
        assert nearest_nodes(graph, points) == [
            scan_nearest_node(graph, lon, lat) for lon, lat in points
        ]


class TestLoadPrices:
    def make_file(self, tmp_path, hours):
        rows = "\n".join(f"{h},{p}" for h, p in hours)
        return write(tmp_path, "prices.csv", "hour,price_cents_per_kwh\n" + rows + "\n")

    def test_start_hour_alignment(self, tmp_path):
        path = self.make_file(tmp_path, [(h, float(h)) for h in range(24)])
        curve = load_prices(path, 24, 3)
        assert curve[0] == 3.0
        assert curve[21] == 0.0  # wraps midnight
        assert curve[23] == 2.0

    def test_constant_curve(self, tmp_path):
        path = self.make_file(tmp_path, [(h, 4.2) for h in range(24)])
        assert all(p == 4.2 for p in load_prices(path, 24, 3).prices)

    def test_short_file(self, tmp_path):
        path = self.make_file(tmp_path, [(h, 1.0) for h in range(23)])
        with pytest.raises(DataFormatError):
            load_prices(path, 24, 3)

    def test_negative_price(self, tmp_path):
        path = self.make_file(tmp_path, [(h, -1.0) for h in range(24)])
        with pytest.raises(DataFormatError, match="negative"):
            load_prices(path, 24, 0)

    @pytest.mark.parametrize("price", [math.nan, math.inf])
    def test_non_finite_price(self, tmp_path, price):
        hours = [(h, price if h == 1 else 1.0) for h in range(24)]
        path = self.make_file(tmp_path, hours)
        with pytest.raises(DataFormatError, match="prices.csv:3: price must be finite"):
            load_prices(path, 24, 0)

    def test_a_day_longer_than_the_file_wraps(self, tmp_path):
        path = self.make_file(tmp_path, [(h, float(h)) for h in range(24)])
        curve = load_prices(path, 30, 3)
        assert len(curve) == 30
        assert curve[24] == curve[0] == 3.0
        assert curve[29] == 8.0

    def test_repeated_hour_rejected(self, tmp_path):
        path = self.make_file(tmp_path, [(h, 1.0) for h in range(24)] + [(3, 9.0)])
        with pytest.raises(
            DataFormatError, match=r"prices.csv:26: hour 3 already given on line 5$"
        ):
            load_prices(path, 24, 3)

    @pytest.mark.parametrize("hour", [24, 27, -1])
    def test_hour_outside_the_day_rejected(self, tmp_path, hour):
        path = self.make_file(tmp_path, [(h, 1.0) for h in range(24)] + [(hour, 5.0)])
        with pytest.raises(
            DataFormatError, match=rf"prices.csv:26: hour must lie in 0-23, got {hour}$"
        ):
            load_prices(path, 24, 3)


class TestRoundTrip:
    def test_exported_csvs_reparse(self, tmp_path):
        rc = main(
            [
                "run",
                "--config",
                str(MINI / "config.json"),
                "--mode",
                "jtcs",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "summary.json").read_text())
        with open(tmp_path / "slots_jtcs.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(doc["jtcs"]["slots"])
        for row, slot in zip(rows, doc["jtcs"]["slots"]):
            assert int(row["slot"]) == slot["slot"]
            assert float(row["charged_kwh"]) == slot["charged_kwh"]
            assert float(row["fleet_energy_kwh"]) == slot["fleet_energy_kwh"]
        with open(tmp_path / "charging_plan.csv") as handle:
            plan_rows = list(csv.DictReader(handle))
        assert len(plan_rows) == 24
        assert float(plan_rows[0]["E_plus"]) >= 0.0


class TestCliSurface:
    def test_both_mode_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main(
                [
                    "run",
                    "--config",
                    str(MINI / "config.json"),
                    "--seed",
                    "5",
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
        assert (out1 / "summary.json").read_bytes() == (
            out2 / "summary.json"
        ).read_bytes()
        doc = json.loads((out1 / "summary.json").read_text())
        assert "jtcs" in doc and "tgc" in doc and "comparison" in doc

    def test_missing_price_file_nonzero_exit(self, tmp_path, capsys):
        config = json.loads((MINI / "config.json").read_text())
        config["prices"] = "does_not_exist.csv"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        # relative paths resolve against the config file's directory
        for key in ("nodes", "network", "stations", "regions", "trips"):
            (tmp_path / config[key]).write_text((MINI / config[key]).read_text())
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_dump_config(self, capsys):
        rc = main(
            ["run", "--config", str(MINI / "config.json"), "--dump-config"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fleet_size"] == 20
        assert doc["slots"] == 24

    def test_run_games_match_the_reference_iteration(self, tmp_path, monkeypatch):
        # every game of the bundled day: the paper's iteration from the
        # exact equilibrium returns the solver's point and residual, bit for
        # bit, and from clip(d/m) it iterates to the same point
        games = recording(monkeypatch, simulator)
        rc = main(["run", "--config", str(MINI / "config.json"), "--mode", "jtcs",
                   "--out", str(tmp_path)])
        assert rc == 0
        vi_iterations = json.loads(
            (tmp_path / "summary.json").read_text())["jtcs"]["vi_iterations"]
        assert games and sum(vi_iterations) == len(games)
        for args, (x, trace) in games:
            ref, ref_trace = sspm_iterate(*args)
            assert np.array_equal(ref, x)
            assert ref_trace.residual_norms == trace.residual_norms
            iterated, _ = sspm_iterate(*args, clip_start(args[0]))
            assert np.max(np.abs(iterated - x)) <= 1e-3

    def test_handler_is_looked_up_when_main_runs(self, tmp_path, monkeypatch):
        # the parser is built once, but each call runs the module's
        # cmd_<command> of that moment, so a handler replaced after the
        # first call is the one the second call runs
        instance = write(tmp_path, "instance.json", json.dumps(SYMMETRIC_GAME))
        argv = ["solve-vi", "--instance", instance]
        assert main(argv) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_solve_vi", lambda args: calls.append(args) or 7)
        assert main(argv) == 7
        assert [args.instance for args in calls] == [instance]
        assert cli.make_parser() is cli.make_parser()

    def test_solve_vi_subcommand(self, tmp_path, capsys):
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps(SYMMETRIC_GAME))
        rc = main(["solve-vi", "--instance", str(instance)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "x_star" in out and "0.6" in out

    def test_solve_vi_matches_the_reference_iteration(
        self, tmp_path, capsys, monkeypatch
    ):
        # solve-vi prints the point and residual of the paper's iteration
        # from the exact equilibrium, confirmed in one iteration; from a
        # corner the iteration keeps one record per iteration
        games = recording(monkeypatch, cli)
        instance = write(tmp_path, "instance.json", json.dumps(SYMMETRIC_GAME))
        assert main(["solve-vi", "--instance", instance]) == 0
        [(args, _)] = games
        x, trace = sspm_iterate(*args)
        assert capsys.readouterr().out.startswith(
            f"x_star = {np.array2string(x, precision=6)}\n"
            "iterations = 1\n"
            f"final residual = {trace.residual_norms[-1]:.3e}\n"
        )
        assert len(trace) == 1
        iterated, trace = sspm_iterate(*args, [0.0, 1.0])
        k = len(trace)
        assert k > 1 and trace.converged
        assert len(trace.etas) == len(trace.zetas) == len(trace.projection_calls) == k
        assert np.max(np.abs(iterated - x)) <= 1e-3

    @pytest.mark.parametrize("doc", [
        {"m": [57, 88], "d": [37, 42], "e_plus": 55.26230457605344,
         "price": 9.941335290415521,
         "x0": [0.18172899698995248, 0.5137974363206962]},
        {"m": [74, 31], "d": [4, 7], "e_plus": 25.88938140743107,
         "price": 3.714676715749296,
         "x0": [0.05405405405405406, 0.22580645161290322]},
    ], ids=["57-88", "74-31"])
    def test_solve_vi_from_a_caller_supplied_start(self, tmp_path, monkeypatch,
                                                   doc):
        # from these starts the paper's iteration projects onto halfspaces
        # that graze the feasible set (the first one's last halfspace meets
        # it only at the vertex (1, 0.888...)); every multiplier search must
        # settle, on the point solve-vi finds
        games = recording(monkeypatch, cli)
        game = {k: v for k, v in doc.items() if k != "x0"}
        instance = write(tmp_path, "instance.json", json.dumps(game))
        assert main(["solve-vi", "--instance", instance]) == 0
        [(args, (x, _))] = games
        iterated, trace = sspm_iterate(*args, doc["x0"])
        assert trace.converged
        assert kkt_verify(iterated, *args).worst() <= 1e-3
        assert np.max(np.abs(iterated - x)) <= 1e-3

    def test_solve_vi_on_the_line_search_failure_game(self, tmp_path, capsys):
        # 20 small groups from which the paper's iteration once exhausted its
        # backtracking (from clip(d/m) it now takes 80 steps); the exact
        # equilibrium needs no step at all
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps({
            "m": [2, 1, 3, 1, 2, 1, 5, 2, 2, 3, 2, 2, 1, 2, 1, 3, 2, 2, 3, 2],
            "d": [2, 1, 2, 0, 0, 1, 3, 0, 0, 2, 1, 0, 0, 0, 0, 3, 1, 2, 2, 0],
            "e_plus": 8.8563,
            "price": 1.6588,
        }))
        assert main(["solve-vi", "--instance", str(instance)]) == 0
        out = capsys.readouterr().out
        assert "iterations = 1\n" in out
        kkt = float(out.split("kkt worst residual = ")[1].split()[0])
        assert kkt <= 1e-12

    def test_solve_vi_rejects_a_short_start(self, tmp_path, caplog):
        # solve-vi takes no start at all: the key is refused by name
        instance = tmp_path / "instance.json"
        instance.write_text(
            json.dumps({"m": [10, 10], "d": [5, 5], "e_plus": 8.0, "price": 2.0,
                        "x0": [0.5]})
        )
        assert main(["solve-vi", "--instance", str(instance)]) == 1
        assert "unknown instance keys: ['x0']" in caplog.text

    def test_solve_vi_rejects_an_empty_game(self, tmp_path, caplog):
        instance = write(tmp_path, "instance.json", json.dumps(
            {"m": [], "d": [], "e_plus": 8.0, "price": 2.0}))
        assert main(["solve-vi", "--instance", instance]) == 1
        assert "instance key 'm' must list at least one group" in caplog.text

    @pytest.mark.parametrize("d", [[5], [5, 5, 5]], ids=["short", "long"])
    def test_solve_vi_rejects_d_of_another_length(self, tmp_path, caplog, d):
        instance = tmp_path / "instance.json"
        instance.write_text(
            json.dumps({"m": [10, 10], "d": d, "e_plus": 8.0, "price": 2.0})
        )
        assert main(["solve-vi", "--instance", str(instance)]) == 1
        assert "d must hold one entry per group" in caplog.text

    @pytest.mark.parametrize("key, value", [
        ("m", 10),
        ("m", [2.7, 3]),
        ("d", [5, None]),
        ("e_plus", None),
        ("e_plus", math.inf),
        ("price", math.nan),
        ("price", "2.0x"),
        ("r", None),
        # strings and booleans are not numbers
        ("m", ["10", True]),
        ("m", [10, True]),
        ("e_plus", "8.0"),
        ("price", "2.0"),
        ("r", True),
    ])
    def test_solve_vi_rejects_a_bad_field(self, tmp_path, caplog, key, value):
        doc = {"m": [10, 10], "d": [5, 5], "e_plus": 8.0, "price": 2.0, key: value}
        instance = write(tmp_path, "instance.json", json.dumps(doc))
        assert main(["solve-vi", "--instance", instance]) == 1
        assert f"instance key {key!r} has bad value" in caplog.text

    @pytest.mark.parametrize("key, value, message", [
        ("r", math.inf, "r must be finite, got inf"),
        ("d_total", math.nan, "d_total must be finite, got nan"),
        ("x_0", [0.5, 0.5], "unknown instance keys: ['x_0']"),
    ])
    def test_solve_vi_rejects_a_bad_instance(self, tmp_path, caplog, key, value,
                                             message):
        doc = {"m": [10, 10], "d": [5, 5], "e_plus": 8.0, "price": 2.0, key: value}
        instance = write(tmp_path, "instance.json", json.dumps(doc))
        assert main(["solve-vi", "--instance", instance]) == 1
        assert message in caplog.text

    @pytest.mark.parametrize("argv, doc, key", [
        (["solve-vi", "--instance"], {"m": [10, 10], "d": [5, 5], "price": 2.0},
         "instance key 'e_plus'"),
        (["plan-charging", "--inputs"],
         {"consumed": [2.0], "demand_counts": [1], "params": {"J": 2}},
         "inputs key 'prices'"),
    ], ids=["solve-vi", "plan-charging"])
    def test_missing_key_is_named(self, tmp_path, caplog, argv, doc, key):
        path = write(tmp_path, "doc.json", json.dumps(doc))
        assert main(argv + [path]) == 1
        assert f"{key} is missing" in caplog.text

    @pytest.mark.parametrize("key, value", [
        ("consumed", 2.0),
        ("demand_counts", [0, 0.5]),
        ("prices", None),
        ("e_init", [6.0]),
        ("terminal_reserve_kwh", "full"),
        # strings and booleans are not numbers
        ("consumed", ["3.0", 1.0]),
        ("demand_counts", [0, True]),
        ("e_init", "6"),
        ("terminal_reserve_kwh", "1"),
    ])
    def test_plan_charging_rejects_a_bad_field(self, tmp_path, caplog, key, value):
        doc = {"consumed": [3.0, 1.0], "demand_counts": [0, 0], "prices": [1.0, 5.0],
               "e_init": 6.0, "params": {"J": 2, "c": 10.0, "r": 2.0, "e_min": 1.0},
               key: value}
        inputs = write(tmp_path, "inputs.json", json.dumps(doc))
        assert main(["plan-charging", "--inputs", inputs]) == 1
        assert f"inputs key {key!r} has bad value" in caplog.text

    # each of these used to exit 0 with a plan, or end in a traceback
    @pytest.mark.parametrize("key, value, message", [
        ("prices", [2.0, math.inf], "prices must be finite and nonnegative"),
        ("prices", [2.0, math.nan], "prices must be finite and nonnegative"),
        ("prices", [2.0, -3.0], "prices must be finite and nonnegative"),
        ("consumed", [math.nan, 2.0], "consumed must be finite and nonnegative"),
        ("terminal_reserve_kwh", math.nan, "terminal_reserve_kwh must be finite"),
        ("terminal_reserve", 100.0, "unknown inputs keys: ['terminal_reserve']"),
        ("terminal_reserve_kwh", -100.0,
         "terminal_reserve_kwh must be finite, nonnegative and at most fleet capacity"),
        ("params", {"J": 2.5}, "J must be a whole number, got 2.5"),
    ])
    def test_plan_charging_rejects_bad_inputs(self, tmp_path, caplog, key, value,
                                              message):
        doc = {"consumed": [2.0, 2.0], "demand_counts": [1, 1], "prices": [2.0, 3.0],
               "e_init": 80.0, "params": {"J": 2}, key: value}
        inputs = write(tmp_path, "inputs.json", json.dumps(doc))
        assert main(["plan-charging", "--inputs", inputs]) == 1
        assert message in caplog.text

    @pytest.mark.parametrize("params, message", BAD_PARAMS)
    def test_run_rejects_bad_params(self, tmp_path, caplog, params, message):
        cfg = bundled_config(tmp_path, params=params)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert message in caplog.text

    @pytest.mark.parametrize("params, message", BAD_PARAMS)
    def test_solve_vi_rejects_bad_params(self, tmp_path, caplog, params, message):
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps(
            {"m": [10, 10], "d": [5, 5], "e_plus": 8.0, "price": 2.0,
             "params": params}
        ))
        assert main(["solve-vi", "--instance", str(instance)]) == 1
        assert message in caplog.text

    @pytest.mark.parametrize("params, message", BAD_PARAMS)
    def test_plan_charging_rejects_bad_params(self, tmp_path, caplog, params, message):
        inputs = tmp_path / "inputs.json"
        inputs.write_text(json.dumps(
            {"consumed": [3.0, 1.0], "demand_counts": [0, 0], "prices": [1.0, 5.0],
             "e_init": 6.0, "params": params}
        ))
        assert main(["plan-charging", "--inputs", str(inputs)]) == 1
        assert message in caplog.text

    @pytest.mark.parametrize("argv, text", [
        (["solve-vi", "--instance"], "[1, 2]"),
        (["plan-charging", "--inputs"], "[1, 2]"),
        (["run", "--config"], "5"),
    ], ids=["solve-vi", "plan-charging", "run"])
    def test_document_must_be_an_object(self, tmp_path, caplog, argv, text):
        doc = write(tmp_path, "doc.json", text)
        assert main(argv + [doc]) == 1
        assert f"{doc} must hold a JSON object" in caplog.text

    def test_plan_charging_subcommand(self, tmp_path, capsys):
        inputs = tmp_path / "inputs.json"
        inputs.write_text(
            json.dumps(
                {
                    "consumed": [3.0, 1.0],
                    "demand_counts": [0, 0],
                    "prices": [1.0, 5.0],
                    "e_init": 6.0,
                    "params": {"J": 2, "c": 10.0, "r": 2.0, "e_min": 1.0},
                }
            )
        )
        out_csv = tmp_path / "plan.csv"
        rc = main(["plan-charging", "--inputs", str(inputs), "--out", str(out_csv)])
        assert rc == 0
        assert "total cost = 4.000" in capsys.readouterr().out
        assert out_csv.exists()

    def test_plan_charging_null_reserve_sets_no_target(self, tmp_path, capsys):
        # a null terminal_reserve_kwh is as if absent: the day ends at e_init
        doc = {"consumed": [2.0, 2.0], "demand_counts": [1, 1], "prices": [2.0, 3.0],
               "e_init": 80.0, "params": {"J": 2}, "terminal_reserve_kwh": None}
        inputs = write(tmp_path, "inputs.json", json.dumps(doc))
        assert main(["plan-charging", "--inputs", inputs]) == 0
        assert "total cost = 8.000 cents" in capsys.readouterr().out

    def test_infeasible_plan_names_the_first_unmet_floor(self, tmp_path, caplog):
        # the end-of-day floor is missed too; only slot 5's reserve is named
        doc = {"consumed": [5.0, 5.0, 50.0, 5.0, 5.0, 60.0],
               "demand_counts": [0, 0, 2, 2, 2, 2],
               "prices": [2.0, 3.0, 1.0, 4.0, 1.0, 1.0], "e_init": 60.0,
               "params": {"J": 2}}
        inputs = write(tmp_path, "inputs.json", json.dumps(doc))
        assert main(["plan-charging", "--inputs", inputs]) == 1
        assert caplog.messages == [
            "day-ahead charging plan infeasible: slot 5 needs 72.0 kwh in reserve "
            "but charging caps leave it 59.5 kwh short"
        ]

    def test_solver_failure_exits_nonzero(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise SspmConvergenceError("solver gave up", SspmTrace())

        monkeypatch.setattr(cli, "sspm_solve", failing)
        instance = tmp_path / "instance.json"
        instance.write_text(
            json.dumps({"m": [10, 10], "d": [5, 5], "e_plus": 8.0, "price": 2.0})
        )
        assert main(["solve-vi", "--instance", str(instance)]) == 1

    def test_jtcs_run_plans_the_day_once(self, tmp_path, monkeypatch):
        calls = []
        original = simulator.plan_day_ahead

        def counting(scenario, *rest):
            calls.append(scenario)
            return original(scenario, *rest)

        monkeypatch.setattr(simulator, "plan_day_ahead", counting)
        # charging_plan.csv comes from the run's own plan: the command must
        # not plan the day again itself
        monkeypatch.setattr(cli, "plan_day_ahead", counting, raising=False)
        rc = main(["run", "--config", str(MINI / "config.json"), "--mode", "jtcs",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert len(calls) == 1
        assert (tmp_path / "charging_plan.csv").exists()

    # infinity and NaN are rejected too: batches must have a finite length
    @pytest.mark.parametrize("batch_minutes", [0.0, -5.0, math.inf, math.nan])
    def test_nonpositive_batch_rejected(self, tmp_path, batch_minutes):
        cfg = bundled_config(tmp_path, batch_minutes=batch_minutes)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert not (tmp_path / "o").exists()

    # a day of no slots, an hour off the clock of prices.csv, and a trip
    # filter that keeps no trip (infinity) or every trip (NaN)
    @pytest.mark.parametrize("key, value, reason", [
        ("slots", 0, "must be at least 1"),
        ("slots", -2, "must be at least 1"),
        ("start_hour", 24, "must lie in 0-23"),
        ("start_hour", -1, "must lie in 0-23"),
        ("trip_filter_km", math.inf, "not a finite number"),
        ("trip_filter_km", math.nan, "not a finite number"),
    ])
    def test_config_value_out_of_range_rejected(self, tmp_path, caplog, key, value,
                                                reason):
        cfg = bundled_config(tmp_path, **{key: value})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"config key {key!r} has bad value {value!r}: {reason}" in caplog.text
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("fleet_size", None),
        ("slots", [24]),
        ("init_energy_range", 5),
        ("init_energy_range", [30.0]),
        ("seed", "one"),
        ("nodes", 5),
        ("start_hour", 3.2),
        ("slots", 24.9),
        ("fleet_size", 20.7),
        # strings and booleans are not numbers
        ("slots", "24"),
        ("fleet_size", "20"),
        ("fleet_size", True),
        ("seed", "3"),
        ("trip_filter_km", "2.0"),
        ("init_energy_range", ["32", 41.0]),
    ])
    def test_config_value_of_a_wrong_type_rejected(self, tmp_path, caplog, key, value):
        cfg = write(tmp_path, "c.json", json.dumps({key: value}))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"config key {key!r}" in caplog.text
        assert not (tmp_path / "o").exists()

    # a JSON integer too large for a float, wherever a number is read
    @pytest.mark.parametrize("command, doc, named", [
        ("run --config", {"batch_minutes": 10**400}, "config key 'batch_minutes'"),
        ("run --config", {"params": {"rho": 10**400}}, "params key 'rho'"),
        ("solve-vi --instance",
         {"m": [10, 10], "d": [5, 5], "e_plus": 10**400, "price": 2.0},
         "instance key 'e_plus'"),
        ("plan-charging --inputs",
         {"consumed": [2.0], "demand_counts": [1], "prices": [2.0],
          "e_init": 10**400, "params": {"J": 2}}, "inputs key 'e_init'"),
    ], ids=["config", "params", "instance", "inputs"])
    def test_integer_too_large_for_a_float_is_named(self, tmp_path, caplog,
                                                    command, doc, named):
        path = write(tmp_path, "doc.json", json.dumps(doc))
        argv = command.split() + [path]
        if argv[0] == "run":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert f"{named} has bad value 1{'0' * 400}: too large for a float" in (
            caplog.text
        )
        assert not (tmp_path / "o").exists()

    def test_run_config_may_not_set_the_fleet_size_in_params(self, tmp_path, caplog):
        cfg = write(tmp_path, "c.json", json.dumps({"params": {"J": 7}}))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "may not set J" in caplog.text and "'fleet_size'" in caplog.text
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, text, key", [
        ("run --config", '{"fleet_size": 20, "fleet_size": 5}', "fleet_size"),
        ("run --dump-config --config", '{"fleet_size": 20, "fleet_size": 5}',
         "fleet_size"),
        ("run --config", '{"params": {"rho": 0.5, "rho": 2.0}}', "rho"),
        ("solve-vi --instance",
         '{"m": [10, 10], "d": [5, 5], "e_plus": 8.0, "price": 2.0, "price": 9.0}',
         "price"),
        ("plan-charging --inputs",
         '{"consumed": [2.0], "demand_counts": [1], "prices": [2.0], '
         '"e_init": 80.0, "params": {"J": 2, "J": 3}}', "J"),
    ], ids=["config", "dump-config", "params", "instance", "inputs"])
    def test_repeated_json_key_rejected(self, tmp_path, caplog, command, text, key):
        doc = write(tmp_path, "doc.json", text)
        argv = command.split() + [doc]
        if argv[0] == "run":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert f"{doc}: repeated key {key!r}" in caplog.text
        assert not (tmp_path / "o").exists()

    def test_bundled_scenario_with_a_repeated_hour_rejected(self, tmp_path, caplog):
        for name in os.listdir(MINI):
            (tmp_path / name).write_bytes((MINI / name).read_bytes())
        with open(tmp_path / "prices.csv", "a") as handle:
            handle.write("3,9.0\n")
        rc = main(["run", "--config", str(tmp_path / "config.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "prices.csv:26: hour 3 already given on line 5" in caplog.text
        assert not (tmp_path / "o").exists()

    def test_bundled_scenario_with_an_unknown_region_node_rejected(
        self, tmp_path, caplog
    ):
        for name in os.listdir(MINI):
            (tmp_path / name).write_bytes((MINI / name).read_bytes())
        with open(tmp_path / "regions.csv", "a") as handle:
            handle.write("999,9\n")
        rc = main(["run", "--config", str(tmp_path / "config.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "regions.csv: nodes not in the road graph: [999]" in caplog.text
        assert not (tmp_path / "o").exists()

    def test_bundled_scenario_with_a_skipped_region_id_rejected(
        self, tmp_path, caplog
    ):
        # regions 5-8 would hold no node
        for name in os.listdir(MINI):
            (tmp_path / name).write_bytes((MINI / name).read_bytes())
        text = (MINI / "regions.csv").read_text()
        assert "\n0,0\n" in text
        (tmp_path / "regions.csv").write_text(text.replace("\n0,0\n", "\n0,9\n"))
        rc = main(["run", "--config", str(tmp_path / "config.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert ("regions.csv: region ids must be 0..9 without gaps, "
                "missing [5, 6, 7, 8]") in caplog.text
        assert not (tmp_path / "o").exists()

    def test_epsilon_below_rounding_exits_with_its_cause(
        self, tmp_path, caplog, monkeypatch
    ):
        # the bundled day's first game cannot reach a residual of 1e-16
        monkeypatch.setattr(vi_solver, "EPSILON", 1e-16)
        rc = main(["run", "--config", str(MINI / "config.json"), "--mode", "jtcs",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        # the residual is rounding error, so its digits are not pinned
        assert re.search(r"residual \d\.\d{3}e-1\d of the exact equilibrium "
                         r"is not below epsilon=1e-16$", caplog.text, re.M), caplog.text
        assert not (tmp_path / "o").exists()

    def test_epsilon_below_rounding_in_projection_exits_with_its_cause(
        self, tmp_path, caplog, monkeypatch
    ):
        # the paper's iteration passes its line search on this game's
        # rounding-level residual and fails in the halfspace projection
        # (test_vi_solver); solve-vi stops at the certificate on that
        # residual
        monkeypatch.setattr(vi_solver, "EPSILON", 1e-16)
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps({
            "m": [3, 1, 7], "d": [1, 0, 2], "e_plus": 10.0, "price": 3.0,
        }))
        assert main(["solve-vi", "--instance", str(instance)]) == 1
        assert re.search(r"residual \d\.\d{3}e-1\d of the exact equilibrium "
                         r"is not below epsilon=1e-16$", caplog.text, re.M), caplog.text

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"fleet": 3}))
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1


def test_bundled_scenario_files_parse():
    graph = load_network(str(MINI / "nodes.csv"), str(MINI / "network.csv"))
    stations = load_stations(str(MINI / "stations.csv"), graph)
    regions = load_regions(str(MINI / "regions.csv"), graph)
    trips = load_trips(str(MINI / "trips.csv"), 2.0, graph)
    prices = load_prices(str(MINI / "prices.csv"), 24, 3)
    assert len(trips) == 200
    assert regions.n_regions == 5
    assert len(stations) == 5
    assert len(prices) == 24


# SHA-256 of `pvjtcs run` on the bundled scenario at seeds 1-5, both schemes.
# Every output is a pure function of the scenario and the seed, so any
# change to these bytes is a change of behaviour.
PINNED_BUNDLED = {
    1: {
        "summary.json": "7991ffc94adc1169c012a62c04c60e5861e176d09102cd732e77d3e003fdcdad",
        "slots_jtcs.csv": "1bc6ce67a4cd712cae793c95a6ea438eafdeab3acc9979f2f93b274736660490",
        "slots_tgc.csv": "097064711de6fa72b03438f2845d3e98e08619c3c5f4bba940a8f99533e88437",
        "charging_plan.csv": "cd7e9bf33e73b1668ef7e8566f26188f822f32be5108eecf7c7f893c70f49c6b",
    },
    2: {
        "summary.json": "9d5f8136543971f81845bb32168eac249b2ae9a9ff8c068663ec19694653eacc",
        "slots_jtcs.csv": "8663d876d24bd4778fb6ad26ee17095171e83bf77e8699cea3ea2cf8f7405232",
        "slots_tgc.csv": "7224e7855b3f0726e9190a5be2c2ac279734480edc1a38c3f8ba2b8c908e030d",
        "charging_plan.csv": "e6350f5f0cb9b01fc58b5966c0b7e1fdd135267ee4b5b7d2ba1631d00b8a7786",
    },
    3: {
        "summary.json": "3a177d54533b4e08d830aceeae5dbfc2fb2989b7852cb0f41042206cc6a146aa",
        "slots_jtcs.csv": "62dc53fb4acb944a1737d3cf5e2051cde2080fa2967b1eee2ad98d6019deb944",
        "slots_tgc.csv": "cecca61740d1058d1eac8e48565d9323543f5d1ed4bf0a902205296634e6abb2",
        "charging_plan.csv": "aaf013739a30c4fe5ab0fe348870f65da201f1a7a4379b58ce9fede7840a4ec3",
    },
    4: {
        "summary.json": "34fae9ae62d8a87909530e52d008624a8e3d4f254d2545e7565dae48b3af8b7a",
        "slots_jtcs.csv": "e8538157c435538d03ae9db5c297493108234798962ed469c883161bb0f57eac",
        "slots_tgc.csv": "c1821be2e9164f55fc647456053bda87a7b0090bb12733d4cf92aa7116e5b534",
        "charging_plan.csv": "737b92746f73380b30d2b2bca898c732812c4b408e0bb51f0785181bd7846024",
    },
    5: {
        "summary.json": "122070c3cadb13a442335f371de7fc74d341862c630ace010702d0a76c19cbb3",
        "slots_jtcs.csv": "5ce62b40b89e9474818e068659e4ada4810e760c2068831c9402c99ea951ad7d",
        "slots_tgc.csv": "cdd7c28f9354717e001a4551787da4b3be6728714c1a4137ffe59a94d48aa3d8",
        "charging_plan.csv": "4413700618574b56c8b0c728319b3e4ee6321c353cc8fcc1eaa6d7f6e9045bff",
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED_BUNDLED))
def test_bundled_run_outputs_are_pinned(tmp_path, seed):
    rc = main(["run", "--config", str(MINI / "config.json"), "--seed", str(seed),
               "--out", str(tmp_path)])
    assert rc == 0
    pinned = PINNED_BUNDLED[seed]
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in pinned
    }
    assert digests == pinned


def load_generator():
    path = REPO / "scripts" / "make_manhattan_mini.py"
    spec = importlib.util.spec_from_file_location("make_manhattan_mini", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generator_defaults_write_the_bundled_scenario(tmp_path):
    load_generator().main(str(tmp_path))
    bundled = sorted(p.name for p in MINI.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == bundled
    for name in bundled:
        assert (tmp_path / name).read_bytes() == (MINI / name).read_bytes(), name


def test_generator_rows_and_cols_set_the_grid(tmp_path):
    load_generator().main(str(tmp_path), rows=6, cols=4)
    assert len((tmp_path / "nodes.csv").read_text().splitlines()) == 1 + 24
    assert (tmp_path / "trips.csv").read_text() != (MINI / "trips.csv").read_text()


# The same for a generated 2x scenario (40 vehicles, 400 trips), whose plans
# are long enough to exercise multi-stop insertion.
PINNED_2X_SEED_1 = {
    "summary.json": "330af75e79e9630cc449a687048bd4ac3b808a055d5b5006b6c3cd0dcd967389",
    "slots_jtcs.csv": "a404d5282ce8de614728b0becef0a1a5581d7585722a929d731e28760dafd806",
    "slots_tgc.csv": "654aaef5ca0a4d2cebfbaa625c57bf4aca35573b20583fc94b91ef79d4d31be7",
    "charging_plan.csv": "00329531c7adf19587ddc485c52b14e704e31e7501a6fa324c6559294923b394",
}


def test_generated_2x_run_outputs_are_pinned(tmp_path):
    scenario = tmp_path / "scenario"
    load_generator().main(str(scenario), fleet=40, trips=400)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(scenario / "config.json"), "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in PINNED_2X_SEED_1
    }
    assert digests == PINNED_2X_SEED_1
