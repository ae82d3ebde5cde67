"""Every committed BENCH_*.json has the shape tools/bench_trajectory.py writes:
the benchmark's workloads, each run correct with no failed replicate, and
the end-to-end and per-layer metrics of BENCHMARK.json with their units."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FILES = sorted(ROOT.glob("BENCH_*.json"))


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_a_trajectory_is_committed():
    assert len(FILES) >= 2


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_trajectory_shape(path):
    bench = json.loads(path.read_text())
    assert path.name == f"BENCH_{bench['label']}.json"
    assert isinstance(bench["seed"], int) and bench["seconds"] > 0
    assert set(bench["machine"]) >= {"cpus", "python", "numpy"}
    assert list(bench["workloads"]) == sorted(w["name"] for w in SPEC["workloads"])
    for name, runs in bench["workloads"].items():
        assert set(runs) == {"trace0", "trace1"}, name
        for trace, section in (("trace0", "end_to_end"), ("trace1", "per_layer")):
            run = runs[trace]
            assert run["correct"] is True and run["failed"] == 0, (name, trace)
            assert run["attempted"] >= 1
            metrics = run["metrics"]
            assert {m: v["unit"] for m, v in metrics.items()} == _units(section), (name, trace)
            assert all(math.isfinite(v["value"]) for v in metrics.values()), (name, trace)
        assert len(runs["trace0"]["metrics"]) == 7
