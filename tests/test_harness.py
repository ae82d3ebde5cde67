import dataclasses
import json
import math

import numpy as np
import pytest

from graphonfit import (
    CommunityAssignment,
    ConfigError,
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
