"""Acceptance gate: end-to-end checks of the package's quantitative claims.

Each test prints exactly one [PASS]/[FAIL] line before asserting, so the
log reads as a checklist.  Tests 7 and 9 share one module-scoped dense
sweep to stay inside their runtime budgets on a single core.
"""

import math
import time

import numpy as np
import pytest

from graphonfit import (
    AdjacencyMatrix,
    CommunityAssignment,
    EdgeProbabilityMatrix,
    bernoulli_kl,
    block_average_graphon,
    edge_density,
    edge_probabilities,
    graphon_by_name,
    graphon_catalog,
    kl_quadratic_bound,
    kl_taylor_check,
    mple_exhaustive,
    mple_search,
    oracle_risk,
    per_edge_log_likelihood,
    profile_log_likelihood,
    sample_adjacency,
    sample_latents,
    stepfunction_error,
    stepfunction_error_bound,
)
from graphonfit.graphons import random_partition
from graphonfit.harness import (
    ExperimentConfig,
    balanced_partition,
    oracle_rank_assignment,
    run_sweep,
    slope_estimate,
)


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num} ({name}): {detail} [{elapsed:.1f}s]")


def test_criterion_1_likelihood_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(6, 31))
        k = int(rng.integers(1, min(4, n // 2) + 1))
        u = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.9), k=1)
        a = AdjacencyMatrix(a=(u | u.T).astype(np.uint8))
        labels = np.repeat(np.arange(1, k + 1), random_partition(n, k, rng).h)
        z = CommunityAssignment(z=rng.permutation(labels), k=k)
        worst = max(
            worst,
            abs(profile_log_likelihood(a, z) - per_edge_log_likelihood(a, z)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, "likelihood identity", ok, f"max deviation {worst:.3g} over 200 instances", elapsed)
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_2_search_matches_exhaustive():
    t0 = time.perf_counter()
    n, k = 8, 2
    p = np.full((n, n), 0.1)
    p[:4, :4] = p[4:, 4:] = 0.9
    np.fill_diagonal(p, 0.0)
    pm = EdgeProbabilityMatrix(p=p, rho_n=0.9)
    hits = 0
    for seed in range(100):
        a = sample_adjacency(pm, seed=seed)
        search = mple_search(a, k, restarts=50, seed=seed)
        exact = mple_exhaustive(a, k)
        if search.profile_loglik >= exact.profile_loglik - 1e-10:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 95 and elapsed < 60.0
    _report(2, "search attains exhaustive optimum", ok, f"{hits}/100 instances", elapsed)
    assert hits >= 95
    assert elapsed < 60.0


def test_criterion_3_density_moments():
    t0 = time.perf_counter()
    f = graphon_by_name("cosine")
    rho, reps = 0.2, 1000
    dens = {}
    for n in (100, 200):
        vals = np.empty(reps)
        for r in range(reps):
            xi = sample_latents(n, seed=3_000_000 + 2 * r + (n == 200))
            pm = edge_probabilities(f, xi, rho)
            vals[r] = edge_density(sample_adjacency(pm, seed=3_000_000 + 2 * r + (n == 200)))
        dens[n] = vals
    mean_err = abs(dens[100].mean() - rho)
    mean_tol = 4.0 * dens[100].std(ddof=1) / math.sqrt(reps)
    var_drop = dens[200].var(ddof=1) < dens[100].var(ddof=1)
    elapsed = time.perf_counter() - t0
    ok = mean_err <= mean_tol and var_drop and elapsed < 120.0
    _report(
        3, "density estimator moments", ok,
        f"|mean-rho|={mean_err:.2e} (tol {mean_tol:.2e}), "
        f"var {dens[100].var(ddof=1):.3e} -> {dens[200].var(ddof=1):.3e}",
        elapsed,
    )
    assert mean_err <= mean_tol
    assert var_drop
    assert elapsed < 120.0


def test_criterion_4_kl_taylor_grid():
    t0 = time.perf_counter()
    bad = 0
    for p100 in range(5, 100, 5):
        p = p100 / 100.0
        m = min(p, 1.0 - p)
        for c in (0.1, 0.5, 0.9):
            for sign in (1.0, -1.0):
                _, _, ok = kl_taylor_check(p, sign * c * m)
                bad += not ok
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 5.0
    _report(4, "KL Taylor envelope grid", ok, f"{bad} grid violations", elapsed)
    assert bad == 0
    assert elapsed < 5.0


def test_criterion_4_kl_quadratic_lower_bound():
    # Asserts the 2*max(f,g) form on all triples and the stated 2f form for f >= g; max(f,g) bounds t(1-t) in D's integral.
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    max_violations = 0
    stated_violations = 0
    stated_violations_f_lt_g = 0
    trials = 10_000
    for _ in range(trials):
        rho = rng.uniform(0.05, 1.0)
        f = rng.uniform(1e-3, (1.0 - 1e-9) / rho)
        g = rng.uniform(1e-3, (1.0 - 1e-9) / rho)
        lhs, _, stated_ok = kl_quadratic_bound(f, g, rho)
        rhs_max = 2.0 * max(f, g) / rho * bernoulli_kl(rho * f, rho * g)
        max_violations += not lhs <= rhs_max * (1 + 1e-12)
        if f >= g:
            stated_violations += not stated_ok
        else:
            stated_violations_f_lt_g += not stated_ok
    elapsed = time.perf_counter() - t0
    ok = max_violations == 0 and stated_violations == 0 and elapsed < 5.0
    _report(
        4, "KL quadratic lower bound", ok,
        f"{max_violations}/{trials} triples violate the 2*max(f,g) form, "
        f"{stated_violations} violate the stated 2f form with f >= g; "
        f"{stated_violations_f_lt_g} stated-form violations with f < g "
        f"(the stated form is false there)",
        elapsed,
    )
    assert max_violations == 0
    assert stated_violations == 0
    assert elapsed < 5.0


def test_criterion_5_stepfunction_envelope():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst_slack = math.inf
    checked = 0
    for name, f in graphon_catalog().items():
        if not math.isfinite(f.holder_M):
            continue
        for _ in range(50):
            n = int(rng.integers(8, 201))
            k = int(rng.integers(1, min(8, n // 2) + 1))
            part = random_partition(n, k, rng)
            fbar = block_average_graphon(f, part)
            err = stepfunction_error(f, fbar, grid=256, norm="sup")
            bound = stepfunction_error_bound(f, part)
            worst_slack = min(worst_slack, bound - err)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst_slack >= -1e-12 and elapsed < 60.0
    _report(
        5, "stepfunction approximation envelope", ok,
        f"{checked} (graphon, partition) pairs, min slack {worst_slack:.3g}",
        elapsed,
    )
    assert worst_slack >= -1e-12
    assert elapsed < 60.0


def test_criterion_6_partition_containment():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    violations = 0
    for n in range(2, 51):
        for _ in range(100):
            k = int(rng.integers(1, n // 2 + 1))
            part = random_partition(n, k, rng)
            labels = part.quantile_of_ranks(np.arange(1, n + 1))
            cum = np.concatenate([[0], np.cumsum(part.h)])
            for i in range(1, n + 1):
                a = labels[i - 1]
                # H(a-1) < i/(n+1) <= H(a), cross-multiplied to stay in integers
                if not (cum[a - 1] * (n + 1) < i * n <= cum[a] * (n + 1)):
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    _report(6, "partition containment", ok, f"{violations} violations for n <= 50", elapsed)
    assert violations == 0
    assert elapsed < 10.0


@pytest.fixture(scope="module")
def dense_sweep():
    cfg = ExperimentConfig(
        graphon_name="cosine",
        n_list=(100, 200, 400),
        k_rule="sqrt(n)",
        rho_rule="0.3",
        replicates=20,
        restarts=3,
        h_max_rule="ceil(2*n/k)",
        seed=79,
        grid=256,
    )
    t0 = time.perf_counter()
    result = run_sweep(cfg)
    return result, time.perf_counter() - t0


def test_criterion_7_dense_excess_risk_rate(dense_sweep):
    result, elapsed = dense_sweep
    meds = [result.summary[str(n)]["excess_risk"]["median"] for n in (100, 200, 400)]
    slope = slope_estimate(result.summary, "excess_risk")
    monotone = meds[0] > meds[1] > meds[2]
    ok = monotone and slope < -0.2 and elapsed < 900.0
    _report(
        7, "dense-regime excess risk rate", ok,
        f"medians {meds[0]:.3g} > {meds[1]:.3g} > {meds[2]:.3g}, slope {slope:.2f}",
        elapsed,
    )
    assert monotone
    assert slope < -0.2
    assert elapsed < 900.0


def test_criterion_8_oracle_rank_risk_decreases():
    t0 = time.perf_counter()
    f = graphon_by_name("cosine")
    rho = 0.3
    wins = 0
    pairs = 50
    for rep in range(pairs):
        risks = {}
        for n in (100, 400):
            k = math.ceil(math.sqrt(n))
            seed = 8_000_000 + 1000 * rep + n
            xi = sample_latents(n, seed)
            pm = edge_probabilities(f, xi, rho)
            z = oracle_rank_assignment(xi, balanced_partition(n, k))
            risks[n] = oracle_risk(pm, z)
        wins += risks[400] < risks[100]
    elapsed = time.perf_counter() - t0
    ok = wins >= 0.8 * pairs and elapsed < 300.0
    _report(8, "oracle rank risk decreases", ok, f"{wins}/{pairs} paired seeds", elapsed)
    assert wins >= 0.8 * pairs
    assert elapsed < 300.0


def test_criterion_9_aligned_mse_consistency(dense_sweep):
    result, elapsed = dense_sweep
    m100 = result.summary["100"]["mse_aligned"]["median"]
    m400 = result.summary["400"]["mse_aligned"]["median"]
    ok = m400 < m100 and elapsed < 900.0
    _report(
        9, "aligned MSE consistency", ok,
        f"median aligned MSE {m100:.3g} (n=100) -> {m400:.3g} (n=400)",
        elapsed,
    )
    assert m400 < m100
    assert elapsed < 900.0


def test_criterion_10_ultra_sparse_saturation():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        graphon_name="cosine",
        n_list=(100,),
        k_rule="n^0.8",
        rho_rule="2*log10(n)^4/n",
        replicates=100,
        restarts=1,
        seed=10,
        grid=64,
    )
    result = run_sweep(cfg)
    rows = result.rows
    ok_rows = [r for r in rows if r.status == "ok"]
    saturated = sum(r.saturated_fraction > 0.0 for r in ok_rows)
    finite = all(
        math.isfinite(v)
        for r in ok_rows
        for v in (
            r.fitted_risk, r.oracle_risk, r.excess_risk,
            r.mse_identity, r.mse_aligned, r.saturated_fraction, r.loglik,
        )
    )
    elapsed = time.perf_counter() - t0
    ok = (
        len(rows) == 100
        and len(ok_rows) == 100
        and saturated > 0
        and finite
        and elapsed < 300.0
    )
    _report(
        10, "ultra-sparse saturation bookkeeping", ok,
        f"{len(ok_rows)}/100 replicates ok, {saturated} with saturated blocks, "
        f"finite outputs: {finite}",
        elapsed,
    )
    assert len(rows) == 100
    assert len(ok_rows) == 100
    assert saturated > 0
    assert finite
    assert elapsed < 300.0
