"""scripts/bench.py: the scale-series harness and the JSON it writes."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def load_bench():
    path = REPO / "scripts" / "bench.py"
    spec = importlib.util.spec_from_file_location("bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_scale_one_repeat(tmp_path):
    bench = load_bench()
    out = tmp_path / "BENCH.json"
    earlier = {"parent": {"repeats": 5, "scales": {}}}
    out.write_text(json.dumps({"host": bench.host(), "runs": earlier}))
    # without --tree: this checkout, labelled "current"
    rc = bench.main(["--scales", "1", "--repeats", "1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"command", "host", "runs"}
    assert set(doc["host"]) == {"cpu_count", "python", "machine"}
    assert doc["runs"]["parent"] == earlier["parent"]  # other labels kept
    run = doc["runs"]["current"]
    assert run["repeats"] == 1 and set(run["scales"]) == {"1x"}
    assert run["interleaved_with"] == []
    one = run["scales"]["1x"]
    assert set(one) == {"rows", "cols", "fleet", "trips", "wall_s", "setup_s",
                        "jtcs_s", "tgc_s", "outputs_sha256"}
    assert (one["rows"], one["cols"]) == (12, 5)  # the bundled grid
    assert (one["fleet"], one["trips"]) == (20, 200)
    assert 0.0 < one["setup_s"] and 0.0 < one["jtcs_s"] and 0.0 < one["tgc_s"]
    assert one["setup_s"] + one["jtcs_s"] + one["tgc_s"] <= one["wall_s"]
    assert len(one["outputs_sha256"]) == 64


def test_refuses_a_file_from_another_host(tmp_path):
    bench = load_bench()
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"host": {"cpu_count": -1}, "runs": {}}))
    with pytest.raises(SystemExit, match="another host"):
        bench.main(["--scales", "1", "--repeats", "1", "--out", str(out)])


def test_trees_interleave_in_child_processes(tmp_path, monkeypatch):
    bench = load_bench()
    out = tmp_path / "BENCH.json"
    rc = bench.main(["--scales", "1", "--repeats", "1", "--tree", f"parent={REPO}",
                     "--tree", f"change={REPO}", "--out", str(out)])
    assert rc == 0
    runs = json.loads(out.read_text())["runs"]
    assert set(runs) == {"parent", "change"}
    assert runs["parent"]["interleaved_with"] == ["change"]
    assert runs["change"]["interleaved_with"] == ["parent"]
    parent, change = runs["parent"]["scales"]["1x"], runs["change"]["scales"]["1x"]
    assert set(parent) == set(change) == {"rows", "cols", "fleet", "trips",
                                          "wall_s", "setup_s", "jtcs_s", "tgc_s",
                                          "outputs_sha256"}
    assert parent["outputs_sha256"] == change["outputs_sha256"]

    # repeats alternate which tree runs first
    order = []

    def fake_child(tree, config, out_dir):
        order.append(tree)
        for name in bench.OUTPUTS:
            (Path(out_dir) / name).parent.mkdir(parents=True, exist_ok=True)
            (Path(out_dir) / name).write_text(tree)
        return {"wall_s": 1.0, "setup_s": 0.1, "jtcs_s": 0.4, "tgc_s": 0.5}

    monkeypatch.setattr(bench, "run_child", fake_child)
    bench.main(["--scales", "1", "--repeats", "3", "--tree", "a=A", "--tree", "b=B",
                "--out", str(tmp_path / "fake.json")])
    assert order == ["A", "B", "B", "A", "A", "B"]


def test_rows_and_cols_set_the_grid(tmp_path, monkeypatch):
    bench = load_bench()
    nodes = []

    def fake_child(tree, config, out_dir):
        nodes.append((Path(config).parent / "nodes.csv").read_text())
        for name in bench.OUTPUTS:
            (Path(out_dir) / name).parent.mkdir(parents=True, exist_ok=True)
            (Path(out_dir) / name).write_text(tree)
        return {"wall_s": 1.0, "setup_s": 0.1, "jtcs_s": 0.4, "tgc_s": 0.5}

    monkeypatch.setattr(bench, "run_child", fake_child)
    out = tmp_path / "BENCH.json"
    rc = bench.main(["--scales", "2", "--repeats", "1", "--rows", "6", "--cols", "4",
                     "--out", str(out)])
    assert rc == 0
    two = json.loads(out.read_text())["runs"]["current"]["scales"]["2x"]
    assert (two["rows"], two["cols"], two["fleet"], two["trips"]) == (6, 4, 40, 400)
    assert len(nodes[0].splitlines()) == 1 + 24  # the scenario's 6 x 4 grid


@pytest.mark.parametrize("args", [["--rows", "4"], ["--cols", "0"]])
def test_grid_too_small_is_refused(tmp_path, args, capsys):
    bench = load_bench()
    with pytest.raises(SystemExit):
        bench.main(args + ["--out", str(tmp_path / "BENCH.json")])
    assert "--rows" in capsys.readouterr().err


def test_tree_without_the_package_is_refused(tmp_path):
    # the child either fails to import pvjtcs or finds another copy
    bench = load_bench()
    with pytest.raises(SystemExit, match=f"run of {tmp_path}"):
        bench.main(["--scales", "1", "--repeats", "1", "--tree", f"empty={tmp_path}",
                    "--out", str(tmp_path / "BENCH.json")])


@pytest.mark.parametrize("args", [
    ["--tree", "noequals"],
    ["--tree", "a=x", "--tree", "a=y"],
])
def test_bad_tree_arguments(tmp_path, args):
    bench = load_bench()
    with pytest.raises(SystemExit):
        bench.main(args + ["--out", str(tmp_path / "BENCH.json")])
