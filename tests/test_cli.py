import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphonfit.cli as cli
import graphonfit.harness as harness
from graphonfit import AdjacencyMatrix, Partition
from graphonfit.cli import main
from graphonfit.risk import kl_taylor_check
from graphonfit.harness import ExperimentConfig, run_replicate


def run(argv):
    return main([str(a) for a in argv])


def sample_args(out, n=30, rho=0.3, graphon="cosine", seed=11, latents=True):
    argv = [
        "sample", "--graphon", graphon, "--n", n, "--rho", rho,
        "--seed", seed, "--out", out,
    ]
    if latents:
        argv.append("--emit-latents")
    return argv


class TestSample:
    def test_writes_edge_list_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "net.txt"
        assert run(sample_args(out)) == 0
        a = AdjacencyMatrix.from_edge_list(out.read_text())
        assert a.n == 30
        sidecar = json.loads((tmp_path / "net.txt.json").read_text())
        assert sidecar["m"] == a.edge_count
        assert len(sidecar["xi"]) == 30
        assert "density=" in capsys.readouterr().out

    def test_byte_identical_rerun(self, tmp_path):
        o1, o2 = tmp_path / "a.txt", tmp_path / "b.txt"
        run(sample_args(o1))
        run(sample_args(o2))
        assert o1.read_bytes() == o2.read_bytes()

    def test_model_violation_exits_3(self, tmp_path, capsys):
        # rho * sup f = 0.7 * 1.5 > 1 for the cosine graphon
        assert run(sample_args(tmp_path / "x.txt", rho=0.7)) == 3
        assert "error" in capsys.readouterr().err

    def test_unknown_graphon_exits_2(self, tmp_path):
        assert run(sample_args(tmp_path / "x.txt", graphon="nope")) == 2


class TestFitEstimateRisk:
    def test_planted_fit_is_exact(self, tmp_path, capsys):
        # two 2-cliques, no cross edges: profile log-likelihood is 0
        edges = tmp_path / "planted.txt"
        edges.write_text("4 2\n0 1\n2 3\n")
        fit = tmp_path / "fit.json"
        assert run(["fit", "--edges", edges, "--k", 2, "--out", fit]) == 0
        obj = json.loads(fit.read_text())
        assert obj["assignment"] == [1, 1, 2, 2]
        assert obj["profile_loglik"] == pytest.approx(0.0, abs=1e-12)
        assert "loglik=" in capsys.readouterr().out

    def test_exhaustive_at_least_as_good(self, tmp_path):
        out = tmp_path / "net.txt"
        run(sample_args(out, n=8, rho=0.4, seed=3))
        f1, f2 = tmp_path / "f1.json", tmp_path / "f2.json"
        assert run(["fit", "--edges", out, "--k", 2, "--out", f1,
                    "--restarts", 1]) == 0
        assert run(["fit", "--edges", out, "--k", 2, "--out", f2,
                    "--exhaustive"]) == 0
        l1 = json.loads(f1.read_text())["profile_loglik"]
        l2 = json.loads(f2.read_text())["profile_loglik"]
        assert l2 >= l1 - 1e-10

    def test_infeasible_constraints_exit_2(self, tmp_path):
        edges = tmp_path / "planted.txt"
        edges.write_text("4 2\n0 1\n2 3\n")
        assert run(["fit", "--edges", edges, "--k", 3,
                    "--out", tmp_path / "f.json"]) == 2

    def test_estimate_and_risk_roundtrip(self, tmp_path, capsys):
        net = tmp_path / "net.txt"
        run(sample_args(net, n=40, rho=0.3, seed=21))
        fit = tmp_path / "fit.json"
        run(["fit", "--edges", net, "--k", 3, "--out", fit])
        est = tmp_path / "est.json"
        assert run(["estimate", "--fit", fit, "--out", est]) == 0
        eobj = json.loads(est.read_text())
        v = np.asarray(eobj["values"])
        assert v.shape == (3, 3) and np.array_equal(v, v.T)
        assert sum(eobj["h"]) == 40

        rep = tmp_path / "risk.json"
        assert run(["risk", "--edges", net, "--sidecar", f"{net}.json",
                    "--fit", fit, "--grid", 64, "--out", rep]) == 0
        robj = json.loads(rep.read_text())
        assert robj["fitted_risk"] >= 0.0
        assert robj["excess_risk"] == pytest.approx(
            robj["fitted_risk"] - robj["oracle_risk"]
        )
        assert robj["mse_aligned"] <= robj["mse_identity"] + 1e-12
        assert "fitted_risk=" in capsys.readouterr().out

    def test_risk_requires_latents(self, tmp_path):
        net = tmp_path / "net.txt"
        run(sample_args(net, latents=False))
        fit = tmp_path / "fit.json"
        run(["fit", "--edges", net, "--k", 2, "--out", fit])
        assert run(["risk", "--edges", net, "--sidecar", f"{net}.json",
                    "--fit", fit, "--out", tmp_path / "r.json"]) == 2

    @pytest.mark.parametrize("option", [["--grid", 32], ["--alignment", "bogus"]],
                             ids=["grid-32", "alignment-bogus"])
    def test_mse_options_checked_before_the_searches(self, tmp_path, monkeypatch, option):
        net, fit = tmp_path / "net.txt", tmp_path / "fit.json"
        run(sample_args(net, n=30, seed=5))
        run(["fit", "--edges", net, "--k", 3, "--out", fit])

        def unreachable(*args, **kwargs):
            raise AssertionError("the oracle search ran before the options were checked")

        monkeypatch.setattr(harness, "oracle_mple", unreachable)
        argv = ["risk", "--edges", net, "--sidecar", f"{net}.json", "--fit", fit,
                "--out", tmp_path / "r.json"]
        assert run(argv + option) == 2
        assert not (tmp_path / "r.json").exists()

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["fit", "--edges", tmp_path / "absent.txt", "--k", 2,
                    "--out", tmp_path / "f.json"]) == 2


def _risk_argv(d, edges="net.txt"):
    return ["risk", "--edges", d / edges, "--sidecar", d / "net.txt.json",
            "--fit", d / "fit.json", "--grid", 64, "--out", d / "r.json"]


_DROP = object()


def _sweep_argv(d):
    return ["sweep", "--config", d / "cfg.json", "--out-dir", d / "o"]


def _fit_bad_argv(d):
    return ["fit", "--edges", d / "bad.txt", "--k", 2, "--out", d / "bad.json"]


class TestMalformedInput:
    # (edits (file, key, new value or _DROP) made before the run, command line);
    # an edit with key None writes the value as the file's whole text
    CASES = {
        "estimate-fit-no-rho_hat": (
            [("fit.json", "rho_hat", _DROP)],
            lambda d: ["estimate", "--fit", d / "fit.json", "--out", d / "e.json"],
        ),
        "risk-fit-no-assignment": ([("fit.json", "assignment", _DROP)], _risk_argv),
        "risk-fit-predates-bounds": (
            [("fit.json", "h_min", _DROP), ("fit.json", "h_max", _DROP)], _risk_argv,
        ),
        "risk-sidecar-no-graphon": ([("net.txt.json", "graphon", _DROP)], _risk_argv),
        "risk-fit-of-other-network": ([], lambda d: _risk_argv(d, edges="other.txt")),
        "sweep-absent-config": (
            [], lambda d: ["sweep", "--config", d / "absent.json", "--out-dir", d / "o"],
        ),
        "sweep-n_list-not-a-list": ([("cfg.json", "n_list", 5)], _sweep_argv),
        "sweep-n_list-string": ([("cfg.json", "n_list", [30, "x"])], _sweep_argv),
        "sweep-n_list-float": ([("cfg.json", "n_list", [30.7])], _sweep_argv),
        "sweep-replicates-string": ([("cfg.json", "replicates", "2")], _sweep_argv),
        "sweep-restarts-float": ([("cfg.json", "restarts", 1.5)], _sweep_argv),
        "sweep-grid-string": ([("cfg.json", "grid", "64")], _sweep_argv),
        "sweep-h_min-1": ([("cfg.json", "h_min", 1)], _sweep_argv),
        "risk-sidecar-seed-string": ([("net.txt.json", "seed", "one")], _risk_argv),
        "risk-sidecar-rho-string": ([("net.txt.json", "rho", "x")], _risk_argv),
        "risk-sidecar-xi-strings": ([("net.txt.json", "xi", ["0.5"] * 30)], _risk_argv),
        "risk-sidecar-xi-short": (
            [("net.txt.json", "xi", [(i + 0.5) / 29 for i in range(29)])], _risk_argv,
        ),
        "sweep-grid-32": ([("cfg.json", "grid", 32)], _sweep_argv),
        "sweep-restarts-0": ([("cfg.json", "restarts", 0)], _sweep_argv),
        "sweep-alignment-bogus": ([("cfg.json", "alignment", "bogus")], _sweep_argv),
        "sweep-seed-negative": ([("cfg.json", "seed", -1)], _sweep_argv),
        "sweep-k-rule-overflow": ([("cfg.json", "k_rule", "2^2^2^2^2")], _sweep_argv),
        "sweep-jobs-0": ([], lambda d: _sweep_argv(d) + ["--jobs", 0]),
        "sweep-dat-metric-unknown": ([], lambda d: _sweep_argv(d) + ["--dat-metric", "bogus"]),
        "sweep-out-dir-is-a-file": (
            [], lambda d: ["sweep", "--config", d / "cfg.json", "--out-dir", d / "net.txt"],
        ),
        "sample-out-missing-dir": ([], lambda d: sample_args(d / "missing" / "x.txt")),
        "sample-seed-negative": ([], lambda d: sample_args(d / "neg.txt", seed=-1)),
        "sample-rho-nan": ([], lambda d: sample_args(d / "nan.txt", rho="nan")),
        "sample-rho-inf": ([], lambda d: sample_args(d / "inf.txt", rho="inf")),
        "fit-seed-negative": (
            [], lambda d: ["fit", "--edges", d / "net.txt", "--k", 3, "--seed", -1,
                           "--out", d / "neg.json"],
        ),
        "risk-fit-seed-negative": ([("fit.json", "seed", -1)], _risk_argv),
        "fit-edges-negative-n": ([("bad.txt", None, "-1 0\n")], _fit_bad_argv),
        "fit-edges-duplicate": ([("bad.txt", None, "3 2\n0 1\n0 1\n")], _fit_bad_argv),
        # numpy refuses both n x n matrices before touching a page: one is too
        # large to allocate, the other too large to index
        "fit-edges-n-3e9": ([("bad.txt", None, "3000000000 0\n")], _fit_bad_argv),
        "fit-edges-n-2to32": ([("bad.txt", None, "4294967296 0\n")], _fit_bad_argv),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exits_2(self, tmp_path, case, capsys):
        run(sample_args(tmp_path / "net.txt", n=30, seed=5))
        run(sample_args(tmp_path / "other.txt", n=30, seed=6))
        run(["fit", "--edges", tmp_path / "net.txt", "--k", 3, "--out", tmp_path / "fit.json"])
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"graphon_name": "constant", "n_list": [30], "k_rule": "2", "rho_rule": "0.3",
             "replicates": 1, "restarts": 1, "grid": 64}
        ))
        edits, argv = self.CASES[case]
        for name, key, value in edits:
            if key is None:
                (tmp_path / name).write_text(value)
                continue
            obj = json.loads((tmp_path / name).read_text())
            if value is _DROP:
                del obj[key]
            else:
                obj[key] = value
            (tmp_path / name).write_text(json.dumps(obj))
        capsys.readouterr()
        assert run(argv(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if case == "risk-fit-predates-bounds":
            assert "re-run fit" in err
        if case.startswith("sample-rho"):
            assert "rho_n" in err
        if case == "risk-sidecar-xi-short":  # normalized_kl_risk's DomainError
            assert "disagree on n" in err
        if case == "fit-edges-duplicate":
            assert "edge (0,1) is listed more than once" in err
        if case.startswith("fit-edges-n-"):
            assert "n=" in err and "too large" in err
        if case == "sweep-dat-metric-unknown":  # refused before the sweep runs
            assert "fitted_risk" in err and not (tmp_path / "o").exists()


class TestRiskMatchesSweep:
    def test_equals_run_replicate_row(self, tmp_path):
        cfg = ExperimentConfig(graphon_name="cosine", n_list=(100,), k_rule="10",
                               rho_rule="0.3", replicates=2, restarts=3, seed=1, grid=64)
        k, _, h_max = cfg.instantiate(100)
        for rep in range(cfg.replicates):
            row = run_replicate(cfg, 100, rep)
            net, fit, out = (tmp_path / f"{name}{rep}" for name in ("net", "fit", "risk"))
            assert run(["sample", "--graphon", cfg.graphon_name, "--n", 100,
                        "--rho", repr(row.rho_n), "--seed", row.seed, "--out", net,
                        "--emit-latents"]) == 0
            assert run(["fit", "--edges", net, "--k", k, "--h-min", cfg.h_min,
                        "--h-max", h_max, "--restarts", cfg.restarts,
                        "--seed", row.seed, "--out", fit]) == 0
            assert run(["risk", "--edges", net, "--sidecar", f"{net}.json", "--fit", fit,
                        "--grid", cfg.grid, "--alignment", cfg.alignment,
                        "--out", out]) == 0
            report = json.loads(out.read_text())
            expected = dataclasses.asdict(row)
            del report["runtime_ms"], expected["runtime_ms"]
            assert report == expected


class TestSweep:
    def test_smoke(self, tmp_path, capsys):
        cfg = {
            "graphon_name": "constant",
            "n_list": [40],
            "k_rule": "2",
            "rho_rule": "0.3",
            "replicates": 2,
            "restarts": 1,
            "seed": 5,
            "grid": 64,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert run(["sweep", "--config", cfg_path, "--out-dir", out_dir,
                    "--dat-metric", "excess_risk"]) == 0
        lines = (out_dir / "results.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 rows
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["summary"]["40"]["replicates"] == 2
        assert (out_dir / "excess_risk.dat").exists()
        assert "2 rows" in capsys.readouterr().out

    def test_bad_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"graphon_name": "constant"}')
        assert run(["sweep", "--config", cfg_path,
                    "--out-dir", tmp_path / "out"]) == 2


GOLDEN = Path(__file__).parent / "data" / "sweep_golden"


def _module_env(**extra):
    """Environment for `python -m graphonfit` that finds this source tree."""
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


def _without_runtime(csv_text):
    rows = [line.split(",") for line in csv_text.splitlines()]
    col = rows[0].index("runtime_ms")
    return "".join(",".join(r[:col] + r[col + 1:]) + "\n" for r in rows)


class TestSweepGoldenOutput:
    """`graphonfit sweep` reproduces committed results.csv (minus runtime_ms)
    and summary.json byte for byte, so a refactor that means to keep outputs
    is checked here rather than by hand.

    Both configs run n = 48 (k = 7: all-pairs swap sweeps and the exhaustive
    k <= 8 alignment) and n = 100 (k = 10: random-pair swap sweeps and the
    greedy alignment), and every replicate runs the oracle search.  Their
    tight size bounds make the searches accept swaps: together, in the fit and
    the oracle search at both sizes.  BLAS is pinned to one thread, as in
    bench/run.py; no bit depends on it, which tests/test_blas_threads.py
    checks.  A change that means to alter outputs regenerates these files
    with the same command and says why in CHANGES.md.
    """

    @pytest.mark.parametrize("name", ["tight", "loose"])
    def test_outputs_equal_committed(self, tmp_path, name):
        done = subprocess.run(
            [sys.executable, "-m", "graphonfit", "sweep",
             "--config", GOLDEN / name / "config.json", "--out-dir", tmp_path],
            env=_module_env(OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        got = _without_runtime((tmp_path / "results.csv").read_text())
        assert got == (GOLDEN / name / "results.csv").read_text()
        summary = (tmp_path / "summary.json").read_bytes()
        assert summary == (GOLDEN / name / "summary.json").read_bytes()


# Run in a fresh interpreter with sys.argv[1:] = net, fit, est: what config
# validation, sample and estimate import, then whether a fit loads scipy.special.
_IMPORT_PATH_SCRIPT = """
import sys
import graphonfit
import graphonfit.harness
from graphonfit import AdjacencyMatrix, cli, mple_search
from graphonfit.harness import ExperimentConfig

net, fit, est = sys.argv[1:]
dense = ExperimentConfig(graphon_name="cosine", n_list=(200, 400), k_rule="sqrt(n)",
                         rho_rule="0.3", replicates=4, restarts=3,
                         h_max_rule="ceil(2*n/k)", grid=256)
ExperimentConfig.from_json(dense.to_json()).validate()
assert cli.main(["sample", "--graphon", "cosine", "--n", "30", "--rho", "0.3",
                 "--seed", "5", "--out", net]) == 0
assert cli.main(["estimate", "--fit", fit, "--out", est]) == 0
heavy = ("scipy", "multiprocessing", "concurrent.futures.process")
print(*[name for name in heavy if name in sys.modules], sep=",")
with open(net) as f:
    mple_search(AdjacencyMatrix.from_edge_list(f.read()), 3, restarts=1)
print("scipy.special" in sys.modules)
"""


class TestImportPath:
    def test_no_scipy_or_multiprocessing_before_a_likelihood(self, tmp_path):
        """Importing graphonfit, validating a config, sample and estimate load
        neither scipy nor a process pool's modules; the first fit loads
        scipy.special."""
        net, fit, est = tmp_path / "net.txt", tmp_path / "fit.json", tmp_path / "est.json"
        assert run(sample_args(net, n=30, seed=4)) == 0
        assert run(["fit", "--edges", net, "--k", 3, "--out", fit]) == 0
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PATH_SCRIPT, net, fit, est],
            env=_module_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        loaded, fitted = done.stdout.splitlines()[-2:]
        assert loaded == ""
        assert fitted == "True"
        assert est.is_file()


class TestSelftest:
    def test_module_entry_point(self):
        # python -m graphonfit runs the same command line as cli.main
        done = subprocess.run([sys.executable, "-m", "graphonfit", "selftest", "--help"],
                              env=_module_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        assert "usage: graphonfit selftest" in done.stdout

    def test_passes(self, capsys):
        assert run(["selftest", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "selftest passed" in out
        assert "profile-likelihood-identity: pass" in out

    def test_injected_fault_exits_4(self, monkeypatch, capsys):
        # a bound 1000x too tight must fail the Taylor-grid check
        def shrunk_bound(p, delta):
            lhs, bound, ok = kl_taylor_check(p, delta)
            return lhs, bound * 1e-3, ok

        monkeypatch.setattr(cli, "kl_taylor_check", shrunk_bound)
        assert run(["selftest"]) == 4
        assert "bernoulli-kl-taylor-grid" in capsys.readouterr().err

    def test_quantile_fault_exits_4(self, monkeypatch, capsys):
        # side="right" sends a rank on a group's upper edge to the next group
        def right_sided(self, ranks):
            return np.searchsorted(self.cum_counts(), ranks, side="right") + 1

        monkeypatch.setattr(Partition, "quantile_of_ranks", right_sided)
        assert run(["selftest"]) == 4
        assert "partition-lattice-containment" in capsys.readouterr().err
