"""Config-driven Monte Carlo sweeps over (n, k, rho, graphon, seed).

Each replicate samples a network from the scaled graphon model, fits the
constrained profile-likelihood blockmodel, builds the rescaled step-graphon
estimate, and records a risk report row.  Failure rows (e.g. fully saturated
fits in very sparse cells) are kept with a status column rather than dropped;
an InternalError, which means a bug, stops the sweep instead.
All randomness derives from the config seed through per-replicate
SeedSequence children, so output files are byte-identical across reruns.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from .blockmodel import (
    CommunityAssignment,
    _check_constraints,
    _check_restarts,
    mple_search,
    oracle_mple,
)
from .errors import ConfigError, GraphonFitError, InternalError, parse_json_object
from .graphons import Partition, balanced_partition, graphon_by_name
from .risk import (
    CSV_COLUMNS,
    RiskReport,
    _check_mse_options,
    build_estimator,
    graphon_mse,
    normalized_kl_risk,
    oracle_risk,
)
from .rules import classify_rho_rule, evaluate_rule, k_from_rule, validate_k_rule
from .sampling import (
    LatentSample,
    _check_seed,
    edge_probabilities,
    sample_adjacency,
    sample_latents,
)

__all__ = [
    "ExperimentConfig",
    "SweepResult",
    "run_sweep",
    "score_replicate",
    "slope_estimate",
    "oracle_rank_assignment",
]

SCHEMA_VERSION = 1

_SUMMARY_METRICS = (
    "fitted_risk",
    "oracle_risk",
    "excess_risk",
    "mse_identity",
    "mse_aligned",
    "saturated_fraction",
)


def oracle_rank_assignment(xi: LatentSample, p: Partition) -> CommunityAssignment:
    """Assignment from latent ranks: node i joins quantile(rank(xi_i)/n)."""
    if p.n != xi.n:
        raise ConfigError(f"partition covers {p.n} nodes, sample has {xi.n}")
    labels = p.quantile_of_ranks(xi.ranks())
    return CommunityAssignment(z=labels, k=p.k)


# ExperimentConfig fields with the JSON types from_json accepts.
_CONFIG_SCHEMA = dict(
    graphon_name=str, n_list=[int], k_rule=str, rho_rule=str, replicates=int,
    restarts=int, h_min=int, h_max_rule=(str, None), seed=int, grid=int,
    alignment=str, schema_version=int,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative sweep description; rules are strings over n (and k)."""

    graphon_name: str
    n_list: tuple
    k_rule: str
    rho_rule: str
    replicates: int
    restarts: int = 3
    h_min: int = 2
    h_max_rule: str | None = None
    seed: int = 0
    grid: int = 256
    alignment: str = "block_permutation_search"
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"config schema_version {self.schema_version} unsupported "
                f"(expected {SCHEMA_VERSION})"
            )
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if not self.n_list:
            raise ConfigError("n_list must be nonempty")

    def regime(self) -> str:
        return classify_rho_rule(self.rho_rule)

    def instantiate(self, n: int):
        """Resolve (k, rho, h_max) at a given n, checking preconditions."""
        f = graphon_by_name(self.graphon_name)
        k = k_from_rule(self.k_rule, n)
        rho = evaluate_rule(self.rho_rule, n)
        if not (0.0 < rho and rho * f.upper_bound < 1.0):
            raise ConfigError(
                f"rho rule gives rho={rho:.6g} at n={n}; need 0 < rho*sup f < 1"
            )
        if self.h_max_rule is None:
            h_max = n
        else:
            h_max = int(math.ceil(evaluate_rule(self.h_max_rule, n, k=k) - 1e-9))
        _check_constraints(n, k, self.h_min, h_max)
        return k, rho, h_max

    def validate(self) -> str:
        """Check every cell, the rule growth conditions and the options every
        replicate uses (seed, restarts, grid, alignment); returns the regime."""
        validate_k_rule(self.k_rule)
        _check_seed(self.seed)
        _check_restarts(self.restarts)
        _check_mse_options(self.grid, self.alignment)
        regime = self.regime()
        for n in self.n_list:
            self.instantiate(n)
        return regime

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        defaults = [f.name for f in fields(cls) if f.default is not MISSING]
        return cls(**parse_json_object(text, "config", _CONFIG_SCHEMA, defaults, closed=True))


def _replicate_seed(root_seed: int, n: int, rep: int) -> int:
    ss = np.random.SeedSequence([int(root_seed), int(n), int(rep)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _nan_report(n, k, rho, seed, status) -> RiskReport:
    given = dict(n=n, k=k, rho_n=rho, seed=seed, runtime_ms=0.0, status=status)
    return RiskReport(**{f.name: given.get(f.name, math.nan) for f in fields(RiskReport)})


def score_replicate(truth, xi, p, fit, grid, alignment) -> RiskReport:
    """Risk report of fit (a FitResult) to a network drawn from graphon truth
    at latents xi (a LatentSample) with edge probabilities p, and MSEs on a
    grid x grid lattice.  The oracle search reuses the fit's seed and size
    bounds, so the CLI's risk and a sweep row agree for the same fit."""
    n, k = p.n, fit.assignment.k
    est = build_estimator(fit)
    fitted = normalized_kl_risk(p, fit)

    # Best oracle assignment found among: the latent-rank assignment, a
    # short divergence search seeded from it, and the fitted assignment.
    rank_z = oracle_rank_assignment(xi, balanced_partition(n, k))
    ofit = oracle_mple(p, k, h_min=fit.h_min, h_max=fit.h_max, restarts=1,
                       seed=fit.seed, extra_inits=[rank_z.z - 1])
    oracle = min(oracle_risk(p, rank_z), ofit.risk, oracle_risk(p, fit.assignment))

    mse_id = graphon_mse(truth, est, grid=grid, alignment="identity")
    mse_al = graphon_mse(truth, est, grid=grid, alignment=alignment)
    return RiskReport(
        n=n, k=k, rho_n=p.rho_n, seed=xi.seed,
        fitted_risk=fitted, oracle_risk=oracle, excess_risk=fitted - oracle,
        mse_identity=mse_id, mse_aligned=mse_al,
        saturated_fraction=fit.stats.saturated_pair_fraction(),
        loglik=fit.profile_loglik, runtime_ms=0.0, status="ok",
    )


def run_replicate(cfg: ExperimentConfig, n: int, rep: int) -> RiskReport:
    """Sample, fit, and score one replicate; failures other than an
    InternalError become status rows."""
    k, rho, h_max = cfg.instantiate(n)
    seed = _replicate_seed(cfg.seed, n, rep)
    t0 = time.perf_counter()
    try:
        truth = graphon_by_name(cfg.graphon_name)
        xi = sample_latents(n, seed)
        p = edge_probabilities(truth, xi, rho)
        a = sample_adjacency(p, seed)
        fit = mple_search(a, k, h_min=cfg.h_min, h_max=h_max,
                          restarts=cfg.restarts, seed=seed)
        report = score_replicate(truth, xi, p, fit, cfg.grid, cfg.alignment)
        return replace(report, runtime_ms=(time.perf_counter() - t0) * 1000.0)
    except InternalError:
        raise
    except GraphonFitError as e:
        return _nan_report(n, k, rho, seed, status=type(e).__name__)


@dataclass
class SweepResult:
    config: ExperimentConfig
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        lines.extend(r.csv_row() for r in self.rows)
        return "\n".join(lines) + "\n"

    def summary_json(self) -> str:
        return json.dumps(
            {"config": json.loads(self.config.to_json()), "summary": self.summary},
            indent=2,
            sort_keys=True,
        )

    def to_dat(self, metric: str = "excess_risk") -> str:
        """gnuplot-friendly columns: n, median, q1, q3."""
        lines = [f"# n median_{metric} q1 q3"]
        for n in self.config.n_list:
            s = self.summary[str(n)].get(metric)
            if s is None:
                continue
            lines.append(
                f"{n} {s['median']:.12g} {s['q1']:.12g} {s['q3']:.12g}"
            )
        return "\n".join(lines) + "\n"


def _summarize(cfg: ExperimentConfig, rows: list) -> dict:
    summary = {}
    for n in cfg.n_list:
        cell = [r for r in rows if r.n == n]
        ok = [r for r in cell if r.status == "ok"]
        entry = {
            "replicates": len(cell),
            "failures": len(cell) - len(ok),
        }
        for metric in _SUMMARY_METRICS:
            vals = np.array([getattr(r, metric) for r in ok], dtype=float)
            vals = vals[np.isfinite(vals)]
            if vals.size:
                q1, med, q3 = np.percentile(vals, [25, 50, 75])
                entry[metric] = {
                    "median": float(med),
                    "q1": float(q1),
                    "q3": float(q3),
                }
        summary[str(n)] = entry
    return summary


def run_sweep(cfg: ExperimentConfig, jobs: int = 1) -> SweepResult:
    """Run all (n, replicate) cells in jobs processes (at least 1);
    deterministic given the config seed."""
    if jobs < 1:
        raise ConfigError(f"jobs={jobs} must be >= 1")
    cfg.validate()
    ns, reps = zip(*((n, rep) for n in cfg.n_list for rep in range(cfg.replicates)))
    cfgs = (cfg,) * len(ns)
    if jobs > 1:
        # Imported here: multiprocessing is no cost to a one-process run.
        # scipy.special is loaded before the pool forks its workers, so they
        # inherit it rather than each importing it again.
        from concurrent.futures import ProcessPoolExecutor

        import scipy.special  # noqa: F401

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run_replicate, cfgs, ns, reps, chunksize=1))
    else:
        rows = list(map(run_replicate, cfgs, ns, reps))
    return SweepResult(config=cfg, rows=rows, summary=_summarize(cfg, rows))


def slope_estimate(summary: dict, metric: str) -> float:
    """OLS slope of log(median metric) against log(n) across sweep cells."""
    ns, meds = [], []
    for key, entry in summary.items():
        if metric in entry:
            ns.append(float(key))
            meds.append(entry[metric]["median"])
    if len(ns) < 3:
        raise ConfigError(f"need >= 3 cells with a {metric} median, got {len(ns)}")
    meds = np.asarray(meds)
    if np.any(meds <= 0.0):
        raise ConfigError(f"log-log slope undefined: nonpositive {metric} median")
    order = np.argsort(ns)
    x = np.log(np.asarray(ns)[order])
    y = np.log(meds[order])
    return float(np.polyfit(x, y, 1)[0])
