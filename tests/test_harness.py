import ast
import collections
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import graphonfit.harness as harness
from graphonfit import (
    CommunityAssignment,
    ConfigError,
    DomainError,
    Partition,
    sample_latents,
)
from graphonfit.harness import (
    ExperimentConfig,
    balanced_partition,
    oracle_rank_assignment,
    run_replicate,
    run_sweep,
    slope_estimate,
)
from graphonfit.sampling import LatentSample

BENCH_SWEEP = Path(__file__).resolve().parents[1] / "bench" / "sweepbench.py"


def bench_layer_names() -> list:
    """The keys of the benchmark tracer's LAYER_OF, read from its source: the
    names it rebinds in graphonfit.harness to time each layer."""
    for node in ast.parse(BENCH_SWEEP.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYER_OF"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no LAYER_OF assignment in {BENCH_SWEEP}")


def small_config(**overrides):
    base = dict(
        graphon_name="constant",
        n_list=(50,),
        k_rule="2",
        rho_rule="0.3",
        replicates=2,
        restarts=1,
        seed=7,
        grid=64,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestBalancedPartition:
    def test_even_and_remainder(self):
        assert balanced_partition(10, 2).h == (5, 5)
        assert balanced_partition(11, 3).h == (4, 4, 3)
        assert balanced_partition(10, 4).h == (3, 3, 2, 2)


class TestOracleRankAssignment:
    def test_example(self):
        xi = LatentSample(xi=np.array([0.9, 0.1, 0.8, 0.2]), seed=0)
        z = oracle_rank_assignment(xi, Partition((2, 2)))
        assert z.z.tolist() == [2, 1, 2, 1]

    def test_monotone_map_invariance(self):
        # the assignment depends on latents only through their ranks
        xi = sample_latents(30, seed=5)
        squashed = LatentSample(xi=xi.xi**3, seed=0)
        p = Partition((10, 10, 10))
        a = oracle_rank_assignment(xi, p)
        b = oracle_rank_assignment(squashed, p)
        assert np.array_equal(a.z, b.z)

    def test_size_mismatch(self):
        with pytest.raises(ConfigError):
            oracle_rank_assignment(sample_latents(5, seed=0), Partition((2, 2)))


class TestExperimentConfig:
    def test_json_roundtrip(self):
        cfg = small_config()
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_unknown_and_missing_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_json('{"graphon_name": "constant", "bogus": 1}')
        with pytest.raises(ConfigError, match="missing"):
            ExperimentConfig.from_json('{"graphon_name": "constant"}')
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("not json")

    @pytest.mark.parametrize("key, value", [
        ("replicates", True), ("grid", 64.0), ("rho_rule", 0.3), ("n_list", [50, None]),
        ("h_max_rule", 5), ("seed", "7"),
    ])
    def test_ill_typed_value(self, key, value):
        obj = json.loads(small_config().to_json())
        obj[key] = value
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_json(json.dumps(obj))

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError, match="schema_version"):
            small_config(schema_version=99)

    def test_instantiate(self):
        cfg = small_config(k_rule="sqrt(n)", rho_rule="0.5*n^(-0.3)",
                           h_max_rule="ceil(2*n/k)")
        k, rho, h_max = cfg.instantiate(100)
        assert k == 10
        assert rho == pytest.approx(0.5 * 100**-0.3)
        assert h_max == 20

    def test_instantiate_rejects_large_rho(self):
        cfg = small_config(graphon_name="cosine", rho_rule="0.7")  # 0.7*1.5 > 1
        with pytest.raises(ConfigError):
            cfg.instantiate(50)

    def test_validate_rejects_infeasible_cell(self):
        cfg = small_config(k_rule="n", n_list=(50,))
        with pytest.raises(ConfigError):
            cfg.validate()
        with pytest.raises(ConfigError, match="h_min"):
            small_config(h_min=1).validate()

    @pytest.mark.parametrize("key, value", [
        ("grid", 32), ("alignment", "bogus"), ("restarts", 0), ("seed", -1),
    ])
    def test_validate_rejects_option_every_replicate_fails(self, key, value):
        # each value would fail every replicate, so the config fails up front
        with pytest.raises((ConfigError, DomainError), match=key):
            small_config(**{key: value}).validate()

    def test_regime(self):
        assert small_config().regime() == "dense"
        assert small_config(rho_rule="2*log10(n)^4/n").regime() == "ultra_sparse"


class TestRunSweep:
    def test_smoke_and_determinism(self):
        cfg = small_config()
        res = run_sweep(cfg)
        assert len(res.rows) == 2
        assert all(r.status == "ok" for r in res.rows)
        assert all(math.isfinite(r.fitted_risk) for r in res.rows)
        assert all(r.excess_risk == r.fitted_risk - r.oracle_risk for r in res.rows)
        # byte-identical outputs across reruns, modulo the runtime column
        res2 = run_sweep(cfg)

        def strip_runtime(csv):
            idx = csv.splitlines()[0].split(",").index("runtime_ms")
            return [
                [c for i, c in enumerate(line.split(",")) if i != idx]
                for line in csv.splitlines()
            ]

        assert strip_runtime(res.to_csv()) == strip_runtime(res2.to_csv())
        assert res.summary == res2.summary

    def test_csv_seed_is_exact(self):
        res = run_sweep(small_config())
        header, *lines = res.to_csv().splitlines()
        col = header.split(",").index("seed")
        assert [int(line.split(",")[col]) for line in lines] == [r.seed for r in res.rows]
        assert all(r.seed > 10**12 for r in res.rows)  # past what .12g prints exactly

    def test_summary_and_dat(self):
        res = run_sweep(small_config())
        cell = res.summary["50"]
        assert cell["replicates"] == 2 and cell["failures"] == 0
        assert set(cell["fitted_risk"]) == {"median", "q1", "q3"}
        dat = res.to_dat("fitted_risk")
        assert dat.splitlines()[1].startswith("50 ")
        parsed = json.loads(res.summary_json())
        assert parsed["config"]["graphon_name"] == "constant"

    def test_failure_rows_kept(self):
        # rho so small the sampled graph is empty: fit degenerates, row stays
        cfg = small_config(n_list=(6,), k_rule="2", rho_rule="0.0001",
                           replicates=3, seed=1)
        res = run_sweep(cfg)
        assert len(res.rows) == 3
        bad = [r for r in res.rows if r.status != "ok"]
        assert bad, "expected at least one failure row at this density"
        assert all(math.isnan(r.fitted_risk) for r in bad)
        assert res.summary["6"]["failures"] == len(bad)

    def test_process_pool_matches_serial(self):
        cfg = small_config(replicates=3)
        serial, pooled = run_sweep(cfg, jobs=1), run_sweep(cfg, jobs=2)

        def without_runtime(rows):
            return [dataclasses.replace(r, runtime_ms=0.0) for r in rows]

        assert without_runtime(pooled.rows) == without_runtime(serial.rows)
        assert pooled.summary == serial.summary

    def test_run_replicate_matches_sweep_row(self):
        cfg = small_config(replicates=1)
        row = run_replicate(cfg, 50, 0)
        srow = run_sweep(cfg).rows[0]
        assert row.seed == srow.seed
        assert row.loglik == srow.loglik

    def test_scoring_layers_called_by_harness_name(self, monkeypatch):
        # Rebinding these names in graphonfit.harness must reach the calls a
        # replicate makes, so that a tracer can time each layer from outside.
        calls = collections.Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        per_replicate = {
            "sample_latents": 1, "edge_probabilities": 1, "sample_adjacency": 1,
            "mple_search": 1, "build_estimator": 1, "normalized_kl_risk": 1,
            "oracle_mple": 1, "oracle_risk": 2, "graphon_mse": 2,
        }
        names = bench_layer_names()
        assert sorted(names) == sorted(per_replicate)
        assert all(hasattr(harness, name) for name in names)
        for name in names:
            monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
        assert run_replicate(small_config(), 50, 0).status == "ok"
        assert calls == per_replicate

    def test_oracle_search_candidate_equals_oracle_risk(self, monkeypatch):
        # score_replicate divides the oracle search's own divergence by the
        # pair total instead of calling oracle_risk on its assignment again;
        # the two must agree to the last bit, and so must the row's minimum.
        search, risk = harness.oracle_mple, harness.oracle_risk
        searches, risks = [], []

        def recording_search(p, *args, **kwargs):
            searches.append((p, search(p, *args, **kwargs)))
            return searches[-1][1]

        def recording_risk(p, z):
            risks.append(risk(p, z))
            return risks[-1]

        monkeypatch.setattr(harness, "oracle_mple", recording_search)
        monkeypatch.setattr(harness, "oracle_risk", recording_risk)
        cfg = small_config(graphon_name="cosine", n_list=(60, 80), k_rule="sqrt(n)",
                           restarts=2)
        rows = [run_replicate(cfg, n, rep) for n in cfg.n_list for rep in range(cfg.replicates)]
        assert len(searches) == len(rows) == 4
        for row, (p, ofit), others in zip(rows, searches, zip(risks[::2], risks[1::2])):
            candidate = ofit.divergence / harness._pair_total(p)
            assert candidate == risk(p, ofit.assignment)
            assert row.oracle_risk == min(others[0], risk(p, ofit.assignment), others[1])


class TestSlopeEstimate:
    @staticmethod
    def fake_summary(pairs, metric="excess_risk"):
        return {
            str(n): {metric: {"median": m, "q1": m, "q3": m}} for n, m in pairs
        }

    def test_exact_power_law(self):
        s = self.fake_summary([(100, 1.0), (200, 0.5), (400, 0.25)])
        assert slope_estimate(s, "excess_risk") == pytest.approx(-1.0)

    def test_constant(self):
        s = self.fake_summary([(100, 0.7), (200, 0.7), (400, 0.7)])
        assert slope_estimate(s, "excess_risk") == pytest.approx(0.0, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ConfigError):
            slope_estimate(self.fake_summary([(100, 1.0), (200, 0.5)]), "excess_risk")
        with pytest.raises(ConfigError):
            slope_estimate(
                self.fake_summary([(100, 1.0), (200, 0.0), (400, 0.25)]),
                "excess_risk",
            )
