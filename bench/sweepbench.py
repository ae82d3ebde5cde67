"""Sweep benchmark: replicate throughput, estimate quality and per-layer timings.

A workload is a sweep config without its root seed; the benchmark's seed
becomes ``ExperimentConfig.seed``, so every network the sweep draws follows
from it.  ``trace=0`` runs the sweep's replicates one ``run_replicate`` call
at a time, as ``run_sweep(cfg, jobs=1)`` does, with nothing wrapped, times
a reference kernel between them (``speed.py``) and reports the end-to-end
metrics.  ``trace=1`` runs ``run_sweep(cfg, jobs=1)`` once untraced and once
with each public layer name in ``graphonfit.harness`` rebound to a timer
that also records the call, and reports the per-layer metrics.  Both modes
check the recorded outputs (see ``checks.py``).
"""

from __future__ import annotations

import inspect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
import graphonfit
import graphonfit.harness as harness
from graphonfit.harness import ExperimentConfig, run_replicate, run_sweep
from speed import REF_SECONDS, reference_seconds

HERE = Path(__file__).resolve().parent
SRC = Path(graphonfit.__file__).resolve().parent.parent

# Setups timed in their own interpreter per run; setup_s is their median.
SETUP_REPEATS = 5

SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "from graphonfit.harness import ExperimentConfig\n"
    "ExperimentConfig.from_json(sys.argv[1]).validate()\n"
    "wall = time.perf_counter() - t0\n"
    "from speed import reference_seconds\n"
    "print(wall, reference_seconds())\n"
)

# The public calls run_replicate makes through graphonfit.harness's
# namespace, by the name it calls them and the layer they are timed as.
# graphon_mse is two layers, told apart by its alignment argument.
LAYER_OF = {
    "sample_latents": "sampling.sample_latents",
    "edge_probabilities": "sampling.edge_probabilities",
    "sample_adjacency": "sampling.sample_adjacency",
    "mple_search": "blockmodel.mple_search",
    "build_estimator": "risk.build_estimator",
    "normalized_kl_risk": "risk.normalized_kl_risk",
    "oracle_mple": "blockmodel.oracle_mple",
    "oracle_risk": "risk.oracle_risk",
    "graphon_mse": "risk.graphon_mse",
}
LAYERS = (
    "sampling.sample_latents",
    "sampling.edge_probabilities",
    "sampling.sample_adjacency",
    "blockmodel.mple_search",
    "risk.build_estimator",
    "risk.normalized_kl_risk",
    "blockmodel.oracle_mple",
    "risk.oracle_risk",
    "risk.graphon_mse.identity",
    "risk.graphon_mse.aligned",
)
OTHER = "harness.run_sweep.other"


@dataclass(frozen=True)
class Workload:
    name: str
    # ExperimentConfig fields other than seed and replicates.
    config: dict
    # Replicates per n in one timed pass; a traced pass runs half as many.
    replicates: int

    def sweep_config(self, seed: int, traced: bool = False) -> ExperimentConfig:
        reps = math.ceil(self.replicates / 2) if traced else self.replicates
        return ExperimentConfig(seed=seed, replicates=reps, **self.config)


# Replicate counts keep a timed pass within about 25 s on the reference
# machine; see README.md for what each workload exercises and how the
# counts were chosen.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-sweep",
            dict(graphon_name="cosine", n_list=(200, 400), k_rule="sqrt(n)",
                 rho_rule="0.3", restarts=3, h_max_rule="ceil(2*n/k)", grid=256),
            replicates=4,
        ),
        Workload(
            "ultra-sparse-sweep",
            dict(graphon_name="cosine", n_list=(100,), k_rule="n^0.8",
                 rho_rule="2*log10(n)^4/n", restarts=1, grid=64),
            replicates=12,
        ),
        Workload(
            "small-k-sweep",
            dict(graphon_name="cosine", n_list=(48, 64), k_rule="8",
                 rho_rule="0.3", restarts=3, grid=256),
            replicates=3,
        ),
    )
}

# Runs before any timing so that first-call costs stay out of the numbers.
WARM_UP = ExperimentConfig(graphon_name="cosine", n_list=(24,), k_rule="3",
                           rho_rule="0.3", replicates=1, restarts=1, grid=64)


# ---------------------------------------------------------------------------
# Tracing the sweep from outside the library
# ---------------------------------------------------------------------------


@dataclass
class Call:
    """One recorded layer call: its inputs and its output."""

    layer: str
    # (n, seed) of the replicate the call was made for.
    replicate: tuple
    args: tuple
    out: object


@dataclass
class Tracer:
    """Times and records the layer calls of the sweep while installed.

    ``installed()`` rebinds the names of ``LAYER_OF`` in graphonfit.harness
    to wrappers around whatever they are bound to, and restores them on
    exit; the library itself is not changed.  A replicate's calls start
    with its ``sample_latents(n, seed)`` call, whose arguments name it.
    """

    spans: list = field(default_factory=list)
    calls: list = field(default_factory=list)
    replicate: tuple = ()

    def _wrap(self, name: str, fn):
        layer = LAYER_OF[name]
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if name == "sample_latents":
                self.replicate = tuple(args[:2])
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            t1 = time.perf_counter()
            span = layer
            if name == "graphon_mse":
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                identity = bound.arguments["alignment"] == "identity"
                span = f"{layer}.{'identity' if identity else 'aligned'}"
            self.spans.append({"name": span, "start": t0, "end": t1,
                               "parent": "harness.run_sweep", "replicate": self.replicate})
            self.calls.append(Call(span, self.replicate, args, out))
            return out

        return traced

    @contextmanager
    def installed(self):
        saved = {name: getattr(harness, name) for name in LAYER_OF}
        try:
            for name, fn in saved.items():
                setattr(harness, name, self._wrap(name, fn))
            yield self
        finally:
            for name, fn in saved.items():
                setattr(harness, name, fn)

    def busy(self, name: str) -> list:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def take_calls(self) -> list:
        """The calls recorded so far, which are then dropped."""
        calls, self.calls = self.calls, []
        return calls


@dataclass
class Replicate:
    """One replicate's sweep row and the outputs of its recorded calls."""

    row: object
    truth: object = None
    xi: object = None
    p: object = None
    a: object = None
    fit: object = None
    ofit: object = None
    # (assignment, value) of every oracle_risk call.
    oracle_calls: list = field(default_factory=list)


def group_calls(calls: list, rows: list) -> list:
    """Replicates in row order, each with the calls made for it."""
    reps = []
    for row in rows:
        rep = Replicate(row)
        for call in calls:
            if call.replicate != (row.n, row.seed):
                continue
            if call.layer == "sampling.sample_latents":
                rep.xi = call.out
            elif call.layer == "sampling.edge_probabilities":
                rep.truth, rep.p = call.args[0], call.out
            elif call.layer == "sampling.sample_adjacency":
                rep.a = call.out
            elif call.layer == "blockmodel.mple_search":
                rep.fit = call.out
            elif call.layer == "blockmodel.oracle_mple":
                rep.ofit = call.out
            elif call.layer == "risk.oracle_risk":
                rep.oracle_calls.append((call.args[1], call.out))
        reps.append(rep)
    return reps


def check_replicates(reps: list, cfg: ExperimentConfig) -> list:
    """The independent checks of every ok replicate."""
    out = []
    for rep in reps:
        if rep.row.status != "ok":
            continue
        _, _, h_max = cfg.instantiate(rep.row.n)
        out += [f"n={rep.row.n} seed={rep.row.seed}: {msg}"
                for msg in checks.check_replicate(rep, cfg, h_max)]
    return out


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _row_key(row):
    return replace(row, runtime_ms=0.0)


def _setup_seconds(cfg: ExperimentConfig) -> float:
    """Import graphonfit and validate the config in a fresh interpreter,
    scaled to the reference speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, cfg.to_json()],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    wall, ref = (float(v) for v in done.stdout.split()[-2:])
    return wall * REF_SECONDS / ref


@dataclass
class Pass:
    """One timed pass over a sweep's replicates."""

    rows: list = field(default_factory=list)
    # Replicate wall times as measured, and scaled to the reference speed.
    walls: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    # Reference-kernel times, one before the first replicate and one after each.
    refs: list = field(default_factory=list)


def _timed_pass(cfg: ExperimentConfig) -> Pass:
    """The replicates of ``run_sweep(cfg, jobs=1)``, in its order, with the
    reference kernel timed between them."""
    cfg.validate()
    out = Pass(refs=[reference_seconds()])
    for n in cfg.n_list:
        for rep in range(cfg.replicates):
            t0 = time.perf_counter()
            out.rows.append(run_replicate(cfg, n, rep))
            out.walls.append(time.perf_counter() - t0)
            out.refs.append(reference_seconds())
            out.scaled.append(out.walls[-1] * 2.0 * REF_SECONDS / (out.refs[-2] + out.refs[-1]))
    return out


def _rounds(seconds: float, one_round) -> list:
    """Whole rounds while the next one is expected to end within ``seconds``.

    The first round always runs; its outputs fix the quality metrics.
    """
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one_round())
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            return results


def _rows_differ(label: str, rows: list, reference: list) -> list:
    if [_row_key(r) for r in rows] != [_row_key(r) for r in reference]:
        return [f"{label} rows differ from the first untraced pass"]
    return []


def _per_n_median(cfg: ExperimentConfig, rows: list, values: list) -> float:
    """Median over the ok rows of each n, averaged over n.  Pooling two sizes
    would put the median between two clusters."""
    return float(np.mean([
        statistics.median(v for r, v in zip(rows, values) if r.n == n and r.status == "ok")
        for n in cfg.n_list
    ]))


def end_to_end(workload: Workload, seed: int, seconds: float) -> dict:
    cfg = workload.sweep_config(seed)
    setup = [_setup_seconds(cfg) for _ in range(SETUP_REPEATS)]
    run_sweep(WARM_UP)
    passes = _rounds(seconds, lambda: _timed_pass(cfg))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = passes[0].rows
    rows = [r for p in passes for r in p.rows]
    scaled = [s for p in passes for s in p.scaled]
    failures = checks.check_rows(first, cfg)
    for i, p in enumerate(passes[1:], start=1):
        failures += _rows_differ(f"timed pass {i}", p.rows, first)
    # The first replicate once more, with its layer calls recorded.
    tracer = Tracer()
    with tracer.installed():
        row = run_replicate(cfg, cfg.n_list[0], 0)
    failures += _rows_differ("recorded replicate", [row], first[:1])
    failures += check_replicates(group_calls(tracer.take_calls(), [row]), cfg)

    def quality(metric):
        return _per_n_median(cfg, first, [getattr(r, metric) for r in first])

    metrics = {
        "replicates_per_s": (len(rows) / sum(scaled), "1/s"),
        "replicate_s_p50": (_per_n_median(cfg, rows, scaled), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fitted_risk_median": (quality("fitted_risk"), "nats/edge"),
        "oracle_risk_median": (quality("oracle_risk"), "nats/edge"),
        "mse_aligned_median": (quality("mse_aligned"), "1"),
    }
    raw = {"rows": [r.__dict__ for r in rows], "setup_s": setup,
           "passes": [{"walls": p.walls, "scaled": p.scaled, "refs": p.refs} for p in passes]}
    return _report(rows, failures, metrics, raw)


def layers(workload: Workload, seed: int, seconds: float) -> dict:
    cfg = workload.sweep_config(seed, traced=True)
    run_sweep(WARM_UP)
    tracer = Tracer()
    reps: list = []

    def one_round():
        t0 = time.perf_counter()
        untraced = run_sweep(cfg, jobs=1)
        t1 = time.perf_counter()
        with tracer.installed():
            traced = run_sweep(cfg, jobs=1)
        t2 = time.perf_counter()
        tracer.spans.append({"name": "harness.run_sweep", "start": t1, "end": t2,
                             "parent": None, "replicate": None})
        round_reps = group_calls(tracer.take_calls(), traced.rows)
        failures = checks.check_summary(traced) + check_replicates(round_reps, cfg)
        # Only the search results are kept for the counts; the networks go.
        reps.extend(Replicate(rep.row, fit=rep.fit, ofit=rep.ofit) for rep in round_reps)
        return untraced, traced, t1 - t0, t2 - t1, failures

    rounds = _rounds(seconds, one_round)
    first = rounds[0][0].rows
    failures = checks.check_rows(first, cfg)
    for i, (untraced, traced, _, _, round_failures) in enumerate(rounds):
        failures += round_failures
        failures += _rows_differ(f"traced sweep {i}", traced.rows, first)
        if i:
            failures += _rows_differ(f"untraced sweep {i}", untraced.rows, first)
    rows = [r for _, traced, _, _, _ in rounds for r in traced.rows]

    untraced_s = sum(r[2] for r in rounds)
    traced_s = sum(r[3] for r in rounds)
    metrics = {}
    layer_busy = 0.0
    for name in LAYERS:
        calls = tracer.busy(name)
        busy = sum(calls)
        layer_busy += busy
        metrics[f"{name}.busy_s"] = (busy, "s")
        metrics[f"{name}.per_call_ms"] = (statistics.median(calls) * 1000.0 if calls else 0.0, "ms")
        metrics[f"{name}.share"] = (busy / traced_s, "share")
    # The traced sweeps' wall time outside the layer calls: validation, the
    # cell and seed set-up, the rank assignment, the report rows and the
    # summary.
    other = traced_s - layer_busy
    metrics[f"{OTHER}.busy_s"] = (other, "s")
    metrics[f"{OTHER}.per_call_ms"] = (other / len(rows) * 1000.0, "ms")
    metrics[f"{OTHER}.share"] = (other / traced_s, "share")

    fits = [rep for rep in reps if rep.fit is not None]
    pairs = [rep.row.n * (rep.row.n - 1) / 2 for rep in fits]
    metrics.update({
        "blockmodel.mple_search.swaps": (sum(rep.fit.swap_count for rep in fits), "count"),
        "blockmodel.mple_search.restarts": (sum(rep.fit.restarts_used for rep in fits), "count"),
        "blockmodel.mple_search.ties": (sum(int(rep.fit.ties) for rep in fits), "count"),
        "blockmodel.oracle_mple.ties": (
            sum(int(rep.ofit.ties) for rep in reps if rep.ofit is not None), "count"),
        "blockmodel.fit.saturated_pair_share": (
            sum(rep.fit.stats.saturated_pair_fraction() * m for rep, m in zip(fits, pairs))
            / sum(pairs) if pairs else 0.0, "share"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    })
    raw = {"rows": [r.__dict__ for r in rows], "spans": tracer.spans,
           "untraced_s": untraced_s, "traced_s": traced_s}
    return _report(rows, failures, metrics, raw)


def _report(rows, failures, metrics, raw) -> dict:
    return {
        "correct": not failures,
        "attempted": len(rows),
        "failed": sum(r.status != "ok" for r in rows),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
        "failures": failures,
        "raw": raw,
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    return (layers if trace else end_to_end)(workload, seed, seconds)


def write_raw(path: Path, result: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1, default=str))
