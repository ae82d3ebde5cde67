"""Command-line front end: sample / fit / estimate / risk / sweep / selftest.

Exit codes: 0 success, 2 validation error, 3 runtime model error,
4 internal invariant failure.  All randomness flows through --seed flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .blockmodel import (
    CommunityAssignment,
    FitResult,
    block_stats,
    mple_exhaustive,
    mple_search,
    per_edge_log_likelihood,
    profile_log_likelihood,
)
from .errors import (
    BudgetError,
    ConfigError,
    DomainError,
    GraphonFitError,
    InternalError,
    ModelError,
    parse_json_object,
)
from .graphons import graphon_by_name, random_partition
from .harness import ExperimentConfig, run_sweep, score_replicate
from .risk import build_estimator, kl_taylor_check
from .sampling import (
    AdjacencyMatrix,
    LatentSample,
    _check_seed,
    edge_density,
    edge_probabilities,
    sample_adjacency,
    sample_latents,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MODEL = 3
EXIT_INTERNAL = 4


def _write(path: str, text: str) -> None:
    Path(path).write_text(text)


def cmd_sample(args) -> int:
    _check_seed(args.seed)
    f = graphon_by_name(args.graphon)
    xi = sample_latents(args.n, args.seed)
    p = edge_probabilities(f, xi, args.rho)
    a = sample_adjacency(p, args.seed)
    _write(args.out, a.to_edge_list())
    sidecar = {
        "n": args.n,
        "m": a.edge_count,
        "rho": args.rho,
        "seed": args.seed,
        "graphon": args.graphon,
    }
    if args.emit_latents:
        sidecar["xi"] = xi.xi.tolist()
    _write(args.out + ".json", json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    print(f"wrote {args.out}: n={args.n} m={a.edge_count} density={edge_density(a):.6g}")
    return EXIT_OK


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from None


def cmd_fit(args) -> int:
    _check_seed(args.seed)
    a = AdjacencyMatrix.from_edge_list(_read(args.edges))
    if args.exhaustive:
        fit = mple_exhaustive(a, args.k, h_min=args.h_min, h_max=args.h_max)
    else:
        fit = mple_search(
            a, args.k, h_min=args.h_min, h_max=args.h_max,
            restarts=args.restarts, seed=args.seed,
        )
    _write(args.out, fit.to_json() + "\n")
    print(
        f"loglik={fit.profile_loglik:.12g} "
        f"saturated_fraction={fit.stats.saturated_pair_fraction():.6g}"
    )
    return EXIT_OK


def cmd_estimate(args) -> int:
    fit = FitResult.from_json(_read(args.fit))
    est = build_estimator(fit)
    out = json.loads(est.to_json())
    out["rho_hat"] = fit.rho_hat
    _write(args.out, json.dumps(out, sort_keys=True) + "\n")
    print(f"wrote {args.out}: k={est.partition.k} rho_hat={fit.rho_hat:.6g}")
    return EXIT_OK


# Sidecar keys risk reads, with their JSON types (see errors.parse_json_object).
_SIDECAR_SCHEMA = dict(graphon=str, rho=float, seed=int, xi=[float])


def cmd_risk(args) -> int:
    sidecar = parse_json_object(_read(args.sidecar), args.sidecar, _SIDECAR_SCHEMA,
                                hints={"xi": "re-run sample with --emit-latents"})
    a = AdjacencyMatrix.from_edge_list(_read(args.edges))
    fit = FitResult.from_json(_read(args.fit))
    if not np.array_equal(block_stats(a, fit.assignment).edge_sums, fit.stats.edge_sums):
        raise ConfigError(f"{args.fit} is not a fit of {args.edges}: block edge sums differ")
    truth = graphon_by_name(sidecar["graphon"])
    xi = LatentSample(xi=np.asarray(sidecar["xi"], dtype=float), seed=sidecar["seed"])
    p = edge_probabilities(truth, xi, sidecar["rho"])
    report = score_replicate(truth, xi, p, fit, args.grid, args.alignment)
    _write(args.out, report.to_json() + "\n")
    print(
        f"fitted_risk={report.fitted_risk:.6g} oracle_risk={report.oracle_risk:.6g} "
        f"excess_risk={report.excess_risk:.6g}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = ExperimentConfig.from_json(_read(args.config))
    result = run_sweep(cfg, jobs=args.jobs)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text(result.to_csv())
    (out / "summary.json").write_text(result.summary_json() + "\n")
    if args.dat_metric:
        (out / f"{args.dat_metric}.dat").write_text(result.to_dat(args.dat_metric))
    failures = sum(1 for r in result.rows if r.status != "ok")
    print(f"wrote {out}/results.csv: {len(result.rows)} rows, {failures} failures")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Selftest: reduced-scale invariant suites
# ---------------------------------------------------------------------------


def _check_kl_taylor() -> bool:
    for p100 in range(5, 100, 5):
        p = p100 / 100.0
        m = min(p, 1.0 - p)
        for c in (0.1, 0.5, 0.9):
            for sign in (1.0, -1.0):
                lhs, bound, ok = kl_taylor_check(p, sign * c * m)
                if not ok or lhs > bound * (1 + 1e-12):
                    return False
    return True


def _check_partition_containment(seed: int) -> bool:
    rng = np.random.default_rng(seed)
    for n in (10, 24, 40):
        i = np.arange(1, n + 1)
        for _ in range(25):
            k = int(rng.integers(1, n // 2 + 1))
            part = random_partition(n, k, rng)
            a = part.quantile_of_ranks(i)
            if np.any((a < 1) | (a > k)):
                return False
            cum = np.concatenate([[0], part.cum_counts()])
            # H(a-1) < i/(n+1) <= H(a), cross-multiplied to stay exact.
            if not np.all((cum[a - 1] * (n + 1) < i * n) & (i * n <= cum[a] * (n + 1))):
                return False
    return True


def _check_rho_hat_moment(seed: int) -> bool:
    f = graphon_by_name("cosine")
    n, rho, reps = 60, 0.3, 200
    vals = []
    for r in range(reps):
        xi = sample_latents(n, seed + r)
        p = edge_probabilities(f, xi, rho)
        a = sample_adjacency(p, seed + r)
        vals.append(edge_density(a))
    vals = np.asarray(vals)
    return abs(vals.mean() - rho) <= 4.0 * vals.std(ddof=1) / np.sqrt(reps)


def _check_likelihood_identity(seed: int) -> bool:
    rng = np.random.default_rng(seed)
    for _ in range(20):
        n = int(rng.integers(6, 16))
        k = int(rng.integers(1, n // 3 + 1))
        upper = rng.random((n, n)) < 0.4
        a = np.triu(upper, k=1)
        adj = AdjacencyMatrix(a=(a | a.T).astype(np.uint8))
        labels = np.repeat(np.arange(1, k + 1), random_partition(n, k, rng).h)
        z = CommunityAssignment(z=rng.permutation(labels), k=k)
        if abs(profile_log_likelihood(adj, z) - per_edge_log_likelihood(adj, z)) > 1e-10:
            return False
    return True


def cmd_selftest(args) -> int:
    _check_seed(args.seed)
    checks = [
        ("bernoulli-kl-taylor-grid", _check_kl_taylor),
        ("partition-lattice-containment", lambda: _check_partition_containment(args.seed)),
        ("edge-density-moment", lambda: _check_rho_hat_moment(args.seed)),
        ("profile-likelihood-identity", lambda: _check_likelihood_identity(args.seed)),
    ]
    failed = []
    for name, fn in checks:
        ok = fn()
        if args.verbose:
            print(f"{name}: {'pass' if ok else 'FAIL'}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"selftest failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_INTERNAL
    print("selftest passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="graphonfit",
        description="Sample graphon networks, fit blockmodels, evaluate risks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="sample a network from a catalog graphon")
    sp.add_argument("--graphon", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="edge-list output path")
    sp.add_argument("--emit-latents", action="store_true")
    sp.set_defaults(func=cmd_sample)

    fp = sub.add_parser("fit", help="fit a blockmodel by maximum profile likelihood")
    fp.add_argument("--edges", required=True)
    fp.add_argument("--k", type=int, required=True)
    fp.add_argument("--h-min", type=int, default=2)
    fp.add_argument("--h-max", type=int, default=None)
    fp.add_argument("--restarts", type=int, default=5)
    fp.add_argument("--seed", type=int, default=0)
    fp.add_argument("--exhaustive", action="store_true")
    fp.add_argument("--out", required=True)
    fp.set_defaults(func=cmd_fit)

    ep = sub.add_parser("estimate", help="build the step-graphon estimate from a fit")
    ep.add_argument("--fit", required=True)
    ep.add_argument("--out", required=True)
    ep.set_defaults(func=cmd_estimate)

    rp = sub.add_parser("risk", help="score a fit against the true sampling model")
    rp.add_argument("--edges", required=True)
    rp.add_argument("--sidecar", required=True, help="sample sidecar JSON with latents")
    rp.add_argument("--fit", required=True)
    rp.add_argument("--grid", type=int, default=256)
    rp.add_argument("--alignment", default="block_permutation_search")
    rp.add_argument("--out", required=True)
    rp.set_defaults(func=cmd_risk)

    wp = sub.add_parser("sweep", help="run a Monte Carlo sweep from a config file")
    wp.add_argument("--config", required=True)
    wp.add_argument("--out-dir", required=True)
    wp.add_argument("--jobs", type=int, default=1)
    wp.add_argument("--dat-metric", default=None)
    wp.set_defaults(func=cmd_sweep)

    tp = sub.add_parser("selftest", help="run reduced-scale invariant checks")
    tp.add_argument("--seed", type=int, default=0)
    tp.add_argument("--verbose", action="store_true")
    tp.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ModelError, BudgetError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MODEL
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except GraphonFitError as e:  # pragma: no cover - safety net
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
