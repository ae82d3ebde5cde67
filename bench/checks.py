"""Independent checks of one sweep replicate, in plain numpy.

Every quantity here is recomputed from the sampled network, the true edge
probabilities and the fitted labels, without the library's block-sum,
likelihood or alignment code: block sums come from ``np.bincount`` over the
upper-triangle pairs, the step-graphon estimate is rebuilt by a midpoint
lookup on the grid, and the risks are written out term by term.  Each check
returns a list of failure messages; an empty list means the replicate passed.
"""

from __future__ import annotations

import math

import numpy as np

# Relative tolerance between a library value and its independent
# recomputation.  Today's outputs agree within 1e-13; the slack leaves room
# for a change of summation order, not for a different result.
REL_TOL = 1e-9

SUMMARY_METRICS = (
    "fitted_risk",
    "oracle_risk",
    "excess_risk",
    "mse_identity",
    "mse_aligned",
    "saturated_fraction",
)

ROW_VALUES = SUMMARY_METRICS + ("loglik",)

# Random block orders scored directly on the grid for each replicate.
SAMPLED_ORDERS = 16


def rel_dev(value: float, reference: float) -> float:
    scale = max(abs(value), abs(reference), 1e-300)
    return abs(value - reference) / scale


def _close(name: str, value: float, reference: float, out: list) -> None:
    if not rel_dev(value, reference) <= REL_TOL:
        out.append(f"{name}: library {value!r} vs independent {reference!r}")


def _at_most(name: str, value: float, bound: float, out: list) -> None:
    if not value <= bound + REL_TOL * abs(bound):
        out.append(f"{name}: {value!r} exceeds {bound!r}")


def pair_block_sums(w: np.ndarray, labels: np.ndarray, k: int):
    """Sums of w and pair counts over unordered block pairs (k x k, symmetric)."""
    iu, ju = np.triu_indices(labels.size, k=1)
    lo = np.minimum(labels[iu], labels[ju])
    hi = np.maximum(labels[iu], labels[ju])
    flat = lo * k + hi
    sums = np.bincount(flat, weights=w[iu, ju], minlength=k * k).reshape(k, k)
    counts = np.bincount(flat, minlength=k * k).reshape(k, k).astype(float)
    sums = sums + np.triu(sums, 1).T
    counts = counts + np.triu(counts, 1).T
    return sums, counts


def per_edge_loglik(adj: np.ndarray, labels: np.ndarray, k: int) -> float:
    """sum_{i<j} log P(A_ij | theta) at the block averages of A under labels."""
    sums, counts = pair_block_sums(adj, labels, k)
    theta = sums / counts
    iu, ju = np.triu_indices(labels.size, k=1)
    t = theta[labels[iu], labels[ju]]
    edge = adj[iu, ju] == 1
    # An edge lies in a block with theta > 0 and a non-edge in one with
    # theta < 1, so both logs are finite.
    return float(np.log(t[edge]).sum() + np.log1p(-t[~edge]).sum())


def bernoulli_divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(p || q) elementwise for p, q strictly inside (0, 1)."""
    return p * np.log(p / q) + (1.0 - p) * np.log((1.0 - p) / (1.0 - q))


def normalized_kl(p: np.ndarray, adj: np.ndarray, labels: np.ndarray, k: int):
    """(sum D(p_ij || Abar) / sum p_ij over unsaturated pairs, saturated share)."""
    sums, counts = pair_block_sums(adj, labels, k)
    saturated = (sums == 0) | (sums == counts)
    iu, ju = np.triu_indices(labels.size, k=1)
    zi, zj = labels[iu], labels[ju]
    keep = ~saturated[zi, zj]
    pe = p[iu, ju][keep]
    theta = (sums / counts)[zi, zj][keep]
    risk = float(bernoulli_divergence(pe, theta).sum() / pe.sum())
    share = float(1.0 - keep.sum() / keep.size)
    return risk, share


def oracle_divergence(p: np.ndarray, labels: np.ndarray, k: int) -> float:
    """sum_{i<j} D(p_ij || block mean of p), natural log."""
    sums, counts = pair_block_sums(p, labels, k)
    iu, ju = np.triu_indices(labels.size, k=1)
    pbar = (sums / counts)[labels[iu], labels[ju]]
    return float(bernoulli_divergence(p[iu, ju], pbar).sum())


def rank_labels(xi: np.ndarray, k: int) -> np.ndarray:
    """0-based labels: the i-th smallest latent joins the balanced group of rank i."""
    n = xi.size
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    labels = np.empty(n, dtype=np.int64)
    labels[np.argsort(xi, kind="stable")] = np.repeat(np.arange(k), sizes)
    return labels


def grid_mse(truth_grid: np.ndarray, h: np.ndarray, values: np.ndarray, order) -> float:
    """Mean squared error on the midpoint grid with blocks laid out in ``order``.

    Midpoint (j + 1/2)/m lies in block a when H_{a-1} < x <= H_a, with
    H_a = (h_1 + ... + h_a)/n; the comparison runs in exact integers.
    """
    m = truth_grid.shape[0]
    order = np.asarray(order)
    hs = h[order]
    cum = np.cumsum(hs)
    n = int(cum[-1])
    j = np.arange(m)
    cell = ((2 * j[:, None] + 1) * n > 2 * m * cum[None, :-1]).sum(axis=1)
    v = values[np.ix_(order, order)]
    est = v[np.ix_(cell, cell)]
    return float(((truth_grid - est) ** 2).mean())


# The recorded calls the checks read: the sampled network, its edge
# probabilities, and the two searches.
RECORDED = ("xi", "p", "a", "fit", "ofit")


def check_replicate(rep, cfg, h_max: int) -> list:
    """All independent checks of one recorded replicate against its row."""
    missing = [name for name in RECORDED if getattr(rep, name) is None]
    if missing:
        return [f"no recorded call for {missing}"]
    out = []
    row = rep.row
    n, k = row.n, row.k
    p = rep.p.p
    adj = rep.a.a.astype(np.float64)
    labels = rep.fit.assignment.z - 1
    iu, ju = np.triu_indices(n, k=1)

    # The sampled network is consistent with its edge probabilities.
    edges = float(adj[iu, ju].sum())
    mean = float(p[iu, ju].sum())
    sd = math.sqrt(float((p[iu, ju] * (1.0 - p[iu, ju])).sum()))
    if abs(edges - mean) > 5.0 * sd:
        out.append(f"edge count {edges:.0f} is more than 5 sd from sum p = {mean:.1f}")

    # Size constraints hold for the fit and the oracle search.
    for name, z in (("fit", rep.fit.assignment), ("oracle", rep.ofit.assignment)):
        sizes = np.bincount(z.z - 1, minlength=k)
        if z.k != k or sizes.size != k or sizes.min() < cfg.h_min or sizes.max() > h_max:
            out.append(f"{name} group sizes {sizes.tolist()} outside [{cfg.h_min}, {h_max}]")

    # Likelihood, fitted risk and saturation bookkeeping from the labels.
    loglik = per_edge_loglik(adj, labels, k)
    _close("profile log-likelihood", rep.fit.profile_loglik, loglik, out)
    _close("row loglik", row.loglik, loglik, out)
    risk, share = normalized_kl(p, adj, labels, k)
    _close("fitted_risk", row.fitted_risk, risk, out)
    _close("saturated_fraction", row.saturated_fraction, share, out)

    # Every oracle_risk call is the oracle divergence of its assignment, and
    # the row's oracle risk is the least of the method's candidates: the
    # latent-rank assignment, the oracle search and the fitted labels.
    total_p = float(p[iu, ju].sum())
    for z, lib in rep.oracle_calls:
        _close("oracle_risk call", lib, oracle_divergence(p, z.z - 1, k) / total_p, out)
    candidates = {
        "rank": rank_labels(rep.xi.xi, k),
        "oracle_mple": rep.ofit.assignment.z - 1,
        "fit": labels,
    }
    _close("oracle_mple divergence", rep.ofit.divergence,
           oracle_divergence(p, candidates["oracle_mple"], k), out)
    _close("oracle_risk = min of candidates", row.oracle_risk,
           min(oracle_divergence(p, z, k) for z in candidates.values()) / total_p, out)
    if row.excess_risk != row.fitted_risk - row.oracle_risk:
        out.append("excess_risk != fitted_risk - oracle_risk")

    # Aligned MSE from a step graphon rebuilt from the fit.
    h = np.bincount(labels, minlength=k)
    sums, counts = pair_block_sums(adj, labels, k)
    values = (sums / counts) / (edges / len(iu))
    g = (np.arange(cfg.grid) + 0.5) / cfg.grid
    truth_grid = rep.truth(g[:, None], g[None, :])
    identity = grid_mse(truth_grid, h, values, np.arange(k))
    _close("mse_identity", row.mse_identity, identity, out)
    _at_most("mse_aligned vs mse_identity", row.mse_aligned, row.mse_identity, out)
    degree = np.argsort(values @ (h / n), kind="stable")
    _at_most("mse_aligned vs degree sort", row.mse_aligned,
             grid_mse(truth_grid, h, values, degree), out)
    rng = np.random.default_rng(row.seed)
    for _ in range(SAMPLED_ORDERS):
        order = rng.permutation(k)
        _at_most(f"mse_aligned vs order {order.tolist()}", row.mse_aligned,
                 grid_mse(truth_grid, h, values, order), out)
    return out


def check_summary(result) -> list:
    """The sweep summary's quartiles equal np.percentile of its rows."""
    out = []
    for n in result.config.n_list:
        cell = [r for r in result.rows if r.n == n]
        ok = [r for r in cell if r.status == "ok"]
        entry = result.summary[str(n)]
        if entry["replicates"] != len(cell) or entry["failures"] != len(cell) - len(ok):
            out.append(f"n={n}: summary counts {entry['replicates']}/{entry['failures']}")
        for metric in SUMMARY_METRICS:
            vals = np.array([getattr(r, metric) for r in ok], dtype=float)
            vals = vals[np.isfinite(vals)]
            if not vals.size:
                continue
            if metric not in entry:
                out.append(f"n={n}: summary lacks {metric}")
                continue
            q1, med, q3 = np.percentile(vals, [25, 50, 75])
            for key, ref in (("q1", q1), ("median", med), ("q3", q3)):
                _close(f"n={n} {metric} {key}", entry[metric][key], float(ref), out)
    return out


def check_rows(rows, cfg) -> list:
    """Properties every ok row of a sweep must have."""
    out = []
    seeds = [r.seed for r in rows]
    if len(set(seeds)) != len(seeds):
        out.append("replicate seeds repeat")
    for r in rows:
        if r.status != "ok":
            continue
        k, rho, _ = cfg.instantiate(r.n)
        tag = f"n={r.n} seed={r.seed}"
        if (r.k, r.rho_n) != (k, rho):
            out.append(f"{tag}: cell (k={r.k}, rho={r.rho_n}) != ({k}, {rho})")
        values = [getattr(r, name) for name in ROW_VALUES]
        if not all(math.isfinite(v) for v in values):
            out.append(f"{tag}: non-finite value in {values}")
            continue
        if r.excess_risk != r.fitted_risk - r.oracle_risk:
            out.append(f"{tag}: excess_risk != fitted_risk - oracle_risk")
        _at_most(f"{tag}: mse_aligned vs mse_identity", r.mse_aligned, r.mse_identity, out)
        if not (0.0 <= r.saturated_fraction < 1.0):
            out.append(f"{tag}: saturated_fraction {r.saturated_fraction}")
        if not (r.fitted_risk > 0.0 and r.oracle_risk > 0.0 and r.loglik < 0.0):
            out.append(f"{tag}: risk or log-likelihood has the wrong sign")
    return out
