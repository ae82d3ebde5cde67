"""Tests of the sweep benchmark itself, on a tiny workload.

Run from the repository root with ``python3 -m pytest bench``.  The schema
test checks names, units and types, never timings; the mutation tests
perturb one library output and expect the run to report a failed check.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import graphonfit.harness as harness  # noqa: E402
import sweepbench  # noqa: E402

# n=16 takes the exhaustive alignment branch (k=6), n=40 the greedy one (k=10).
TINY = sweepbench.Workload(
    "tiny",
    dict(graphon_name="cosine", n_list=(16, 40), k_rule="n^0.6", rho_rule="0.3",
         restarts=2, grid=64),
    replicates=2,
)


@pytest.fixture(autouse=True)
def _one_setup(monkeypatch):
    monkeypatch.setattr(sweepbench, "SETUP_REPEATS", 1)


def _spec(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_output_schema(trace, section):
    result = sweepbench.run(TINY, seed=5, seconds=0.0, trace=trace)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 2
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _spec(section)
    assert all(isinstance(m["value"], float) and math.isfinite(m["value"])
               for m in metrics.values())
    json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


def _scaled_risk(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) * (1.0 + 1e-6)


def _swapped_labels(fn):
    def search(*args, **kwargs):
        fit = fn(*args, **kwargs)
        z = fit.assignment.z.copy()
        j = int(next(i for i in range(z.size) if z[i] != z[0]))
        z[0], z[j] = z[j], z[0]
        return dataclasses.replace(
            fit, assignment=dataclasses.replace(fit.assignment, z=z))
    return search


def _unaligned_mse(fn):
    def mse(truth, est, grid=256, alignment="block_permutation_search"):
        return fn(truth, est, grid=grid, alignment="identity") * 1.001
    return mse


@pytest.mark.parametrize("name, wrap", [
    ("normalized_kl_risk", _scaled_risk),
    ("mple_search", _swapped_labels),
    ("graphon_mse", _unaligned_mse),
])
@pytest.mark.parametrize("trace", [False, True])
def test_perturbed_output_fails_a_check(monkeypatch, name, wrap, trace):
    # Both the timed and the recorded sweeps see the perturbed layer, so
    # only the independent checks can tell.
    monkeypatch.setattr(harness, name, wrap(getattr(harness, name)))
    result = sweepbench.run(TINY, seed=5, seconds=0.0, trace=trace)
    assert not result["correct"]
    assert result["failures"]


def test_layer_times_come_from_the_sweep(monkeypatch):
    # A delay added to the sweep's own mple_search shows in its layer time,
    # and the harness names are restored after the traced run.
    delay = 0.05
    search = harness.mple_search

    def slow(*args, **kwargs):
        time.sleep(delay)
        return search(*args, **kwargs)

    monkeypatch.setattr(harness, "mple_search", slow)
    result = sweepbench.run(TINY, seed=5, seconds=0.0, trace=True)
    assert result["correct"], result["failures"]
    assert result["metrics"]["blockmodel.mple_search.per_call_ms"]["value"] >= delay * 1000.0
    assert harness.mple_search is slow


def test_refuses_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
