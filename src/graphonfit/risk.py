"""Risk functionals for block-average graphon estimators.

Covers the normalized KL risk (with saturated-block exclusion), the oracle
risk of the best block-constant approximation, excess risk, the aligned
mean-squared error of the estimated graphon, and the Bernoulli-KL Taylor
expansion checks used by the selftest suite.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .blockmodel import (
    CommunityAssignment,
    FitResult,
    bernoulli_kl,
    oracle_divergence,
)
from .errors import DomainError, ModelError
from .graphons import Graphon, StepGraphon, midpoint_grid
from .sampling import EdgeProbabilityMatrix

__all__ = [
    "GraphonEstimate",
    "RiskReport",
    "build_estimator",
    "normalized_kl_risk",
    "oracle_risk",
    "graphon_mse",
    "kl_taylor_check",
    "kl_quadratic_bound",
    "CSV_COLUMNS",
]


@dataclass(frozen=True)
class GraphonEstimate:
    """Step-graphon estimate: fitted block averages rescaled by 1/rho_hat."""

    step: StepGraphon
    rho_hat: float
    source_fit: FitResult

    def __call__(self, x, y):
        return self.step(x, y)


def build_estimator(fit: FitResult) -> GraphonEstimate:
    """Assemble the estimated graphon from a fit: heights = averages / rho_hat.

    Blocks are laid out on the unit interval in fitted-label order with widths
    h_a / n; node order within blocks is immaterial for the step function.
    """
    if fit.rho_hat <= 0.0:
        raise ModelError("estimator undefined for an empty graph (rho_hat = 0)")
    part = fit.assignment.induced_partition()
    values = fit.stats.averages / fit.rho_hat
    return GraphonEstimate(
        step=StepGraphon(part, values), rho_hat=fit.rho_hat, source_fit=fit
    )


def normalized_kl_risk(p: EdgeProbabilityMatrix, fit: FitResult) -> float:
    """sum D(p_ij || Abar_{z_i z_j}) / sum p_ij over pairs in unsaturated blocks."""
    z = fit.assignment
    if z.n != p.n:
        raise DomainError("assignment and probability matrix disagree on n")
    zi = z.z - 1
    theta = fit.stats.averages[zi[:, None], zi[None, :]]
    unsat = ~fit.stats.saturated[zi[:, None], zi[None, :]]
    iu = np.triu_indices(p.n, k=1)
    mask = unsat[iu]
    if not mask.any():
        raise ModelError("all blocks saturated; normalized risk undefined")
    pe = p.p[iu][mask]
    qe = theta[iu][mask]
    num = (
        xlogy(pe, pe) + xlogy(1.0 - pe, 1.0 - pe)
        - xlogy(pe, qe) - xlogy(1.0 - pe, 1.0 - qe)
    ).sum()
    return float(num / pe.sum())


def oracle_risk(p: EdgeProbabilityMatrix, z: CommunityAssignment) -> float:
    """Normalized divergence of p from its best block-constant fit under z."""
    iu = np.triu_indices(p.n, k=1)
    return oracle_divergence(p, z) / float(p.p[iu].sum())


@dataclass(frozen=True)
class RiskReport:
    """One replicate's risk summary; maps 1:1 onto a results-CSV row."""

    n: int
    k: int
    rho_n: float
    seed: int
    fitted_risk: float
    oracle_risk: float
    excess_risk: float
    mse_identity: float
    mse_aligned: float
    saturated_fraction: float
    loglik: float
    runtime_ms: float
    status: str = "ok"

    def to_json(self) -> str:
        return json.dumps(self.__dict__)

    def csv_row(self) -> str:
        cells = []
        for name in CSV_COLUMNS:
            v = getattr(self, name)
            cells.append(v if isinstance(v, str) else f"{v:.12g}")
        return ",".join(cells)


CSV_COLUMNS = (
    "n",
    "k",
    "rho_n",
    "seed",
    "fitted_risk",
    "oracle_risk",
    "excess_risk",
    "mse_identity",
    "mse_aligned",
    "saturated_fraction",
    "loglik",
    "runtime_ms",
    "status",
)


# ---------------------------------------------------------------------------
# Aligned mean-squared error
# ---------------------------------------------------------------------------


# Prefix cells per scored stack, (k+1)^2 per order: each array stays near 256 KiB.
_BATCH_CELLS = 1 << 15


def _mse_for_orders(
    orders: np.ndarray, est: StepGraphon, s1: np.ndarray, s2_total: float, grid: int
) -> np.ndarray:
    """MSE of each row of a (B, k) stack of block orders, in O(k^2) per order
    from s1, the zero-padded 2-d prefix sum of the truth grid.  Cell sums keep
    the association ((a - b) - c) + d and each order's products are summed along
    a contiguous last axis, so a value has the same bits alone or in any stack.
    """
    b, k = orders.shape
    h = np.asarray(est.partition.h, dtype=np.int64)
    right = np.cumsum(h[orders], axis=1) / h.sum()
    cuts = np.zeros((b, k + 1), dtype=np.intp)
    # side='right' sends a midpoint sitting exactly on a block edge to the
    # lower block, matching the step-graphon quantile convention.
    cuts[:, 1:] = np.searchsorted(midpoint_grid(grid), right, side="right")
    p = np.take(s1, (cuts * (grid + 1))[:, :, None] + cuts[:, None, :])
    cell1 = p[:, 1:, 1:] - p[:, :-1, 1:]
    cell1 -= p[:, 1:, :-1]
    cell1 += p[:, :-1, :-1]
    counts = np.diff(cuts, axis=1).astype(float)
    v = np.take(est.values, (orders * k)[:, :, None] + orders[:, None, :])
    cell1 *= v
    v *= v
    v *= counts[:, :, None] * counts[:, None, :]
    sq = s2_total - 2.0 * cell1.reshape(b, -1).sum(axis=1) + v.reshape(b, -1).sum(axis=1)
    mse = sq / (grid * grid)
    # prefix-sum cancellation can leave a tiny negative residue at exact fits
    return np.where(mse > 0.0, mse, 0.0)


def _swap_descent(order: np.ndarray, score, window_cap: int) -> float:
    """First-improvement descent: scan pairs a < b row-major, take the first swap
    lowering the MSE by more than 1e-15, rescan until a scan takes none.  Each
    window of upcoming swaps is scored against one order, so the swap taken is
    the one a pair-at-a-time scan takes.  A window doubles (up to window_cap)
    after holding no such swap and halves after one is taken.
    """
    pa, pb = np.triu_indices(order.size, k=1)
    cur = float(score(order[None])[0])
    improved = True
    while improved:
        improved = False
        i, width = 0, 1
        while i < pa.size:
            a, b = pa[i : i + width], pb[i : i + width]
            rows = np.arange(a.size)
            cands = np.repeat(order[None], a.size, axis=0)
            cands[rows, a], cands[rows, b] = order[b], order[a]
            vals = score(cands)
            hits = np.flatnonzero(vals < cur - 1e-15)
            if hits.size:
                j = hits[0]
                order, cur, improved = cands[j], float(vals[j]), True
                i += j + 1
                width = max(1, width // 2)
            else:
                i += a.size
                width = min(2 * width, window_cap)
    return cur


def graphon_mse(
    truth: Graphon,
    est: GraphonEstimate | StepGraphon,
    grid: int = 256,
    alignment: str = "block_permutation_search",
) -> float:
    """Grid mean-squared error between the truth and a step-graphon estimate.

    The measure-preserving alignment class is restricted to permutations of
    the estimate's block intervals, so the value upper-bounds the idealized
    infimum.  'identity' skips alignment; 'degree_sort' orders blocks by
    their size-weighted marginal mean; 'block_permutation_search' minimizes
    over block orders: all k! in chunks for k <= 8, else first-improvement
    swap descent (_swap_descent) from the identity and degree-sorted orders.
    All paths score orders with one kernel, in stacks of at most _BATCH_CELLS
    cells; that chunk size bounds the memory the search adds.
    """
    if grid < 64:
        raise DomainError("grid must be >= 64")
    step = est.step if isinstance(est, GraphonEstimate) else est
    k = step.partition.k
    tg = truth.grid_values(grid)
    s1 = np.zeros((grid + 1, grid + 1))
    s1[1:, 1:] = tg.cumsum(axis=0).cumsum(axis=1)
    s2_total = float((tg**2).cumsum(axis=0).cumsum(axis=1)[-1, -1])

    def score(orders: np.ndarray) -> np.ndarray:
        return _mse_for_orders(orders, step, s1, s2_total, grid)

    if alignment == "identity":
        return float(score(np.arange(k)[None])[0])

    h = np.asarray(step.partition.h, dtype=float)
    marginal = step.values @ (h / h.sum())
    degree_order = np.argsort(marginal, kind="stable")
    if alignment == "degree_sort":
        return float(score(degree_order[None])[0])
    if alignment != "block_permutation_search":
        raise DomainError(f"unknown alignment {alignment!r}")

    batch = max(1, _BATCH_CELLS // (k + 1) ** 2)
    if k <= 8:
        perms = itertools.permutations(range(k))
        best = math.inf
        while chunk := list(itertools.islice(perms, batch)):
            best = min(best, float(score(np.array(chunk)).min()))
        return best
    return min(_swap_descent(start, score, batch) for start in (np.arange(k), degree_order))


# ---------------------------------------------------------------------------
# Bernoulli KL Taylor-expansion diagnostics
# ---------------------------------------------------------------------------


def kl_taylor_check(p: float, delta: float):
    """Check the second-order expansion of the Bernoulli KL divergence.

    With q = delta^2 / (2 p (1-p)) and r = |delta| / min(p, 1-p), verifies

        |D(p || p+delta) - q|  <=  q * (2/3) r (1-r)^-3
        |D(p+delta || p) - q|  <=  q * r * (1 + (2/3)(1+2r)(1-r)^-3)

    Returns (lhs, bound, ok) for the worse of the two inequalities, where lhs
    and bound are the absolute deviation and its envelope.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"p={p} outside (0,1)")
    m = min(p, 1.0 - p)
    if abs(delta) >= m:
        raise DomainError(f"|delta|={abs(delta)} must be < min(p, 1-p)={m}")
    quad = delta * delta / (2.0 * p * (1.0 - p))
    if delta == 0.0:
        return 0.0, 0.0, True
    r = abs(delta) / m
    d_fwd = bernoulli_kl(p, p + delta)
    d_rev = bernoulli_kl(p + delta, p)
    lhs_fwd = abs(d_fwd - quad)
    lhs_rev = abs(d_rev - quad)
    bound_fwd = quad * (2.0 / 3.0) * r / (1.0 - r) ** 3
    bound_rev = quad * r * (1.0 + (2.0 / 3.0) * (1.0 + 2.0 * r) / (1.0 - r) ** 3)
    ok = lhs_fwd <= bound_fwd * (1 + 1e-12) and lhs_rev <= bound_rev * (1 + 1e-12)
    # Report the pair with the least slack.
    if bound_fwd - lhs_fwd <= bound_rev - lhs_rev:
        return lhs_fwd, bound_fwd, ok
    return lhs_rev, bound_rev, ok


def kl_quadratic_bound(f: float, g: float, rho: float):
    """Evaluate the claimed bound |f-g|^2 <= 2 f rho^-1 D(rho f || rho g).

    Returns (lhs, rhs, ok).  Both rho*f and rho*g must lie in (0,1).

    The stated form is false when f < g: at (f, g, rho) = (0.2, 0.8, 1) it
    gives 0.36 > 0.3327, and ``ok`` is False.  Two forms do hold: the stated
    one whenever f >= g, and |f-g|^2 <= 2 max(f,g) rho^-1 D(rho f || rho g)
    everywhere.  Both follow from D(p || q) = int_p^q (t-p) / (t(1-t)) dt
    with t(1-t) <= max(p, q).  This function keeps the stated form.
    """
    if not (0.0 < rho * f < 1.0 and 0.0 < rho * g < 1.0):
        raise DomainError("rho*f and rho*g must lie in (0,1)")
    lhs = (f - g) ** 2
    rhs = 2.0 * f / rho * bernoulli_kl(rho * f, rho * g)
    return lhs, rhs, lhs <= rhs * (1 + 1e-12)
