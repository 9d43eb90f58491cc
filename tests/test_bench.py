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
    rc = bench.main(["--scales", "1", "--repeats", "1", "--label", "change",
                     "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"command", "host", "runs"}
    assert set(doc["host"]) == {"cpu_count", "python", "machine"}
    assert doc["runs"]["parent"] == earlier["parent"]  # other labels kept
    run = doc["runs"]["change"]
    assert run["repeats"] == 1 and set(run["scales"]) == {"1x"}
    one = run["scales"]["1x"]
    assert set(one) == {"fleet", "trips", "wall_s", "jtcs_s", "tgc_s",
                        "outputs_sha256"}
    assert (one["fleet"], one["trips"]) == (20, 200)
    assert 0.0 < one["jtcs_s"] and 0.0 < one["tgc_s"]
    assert one["jtcs_s"] + one["tgc_s"] <= one["wall_s"]
    assert len(one["outputs_sha256"]) == 64


def test_refuses_a_file_from_another_host(tmp_path):
    bench = load_bench()
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"host": {"cpu_count": -1}, "runs": {}}))
    with pytest.raises(SystemExit, match="another host"):
        bench.main(["--scales", "1", "--repeats", "1", "--out", str(out)])
