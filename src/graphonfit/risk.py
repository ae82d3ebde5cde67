"""Risk functionals for block-average graphon estimators.

Covers the normalized KL risk (with saturated-block exclusion), the oracle
risk of the best block-constant approximation, excess risk, the aligned
mean-squared error of the estimated graphon, and the Bernoulli-KL Taylor
expansion checks used by the selftest suite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .blockmodel import (
    _BATCH_CELLS,
    CommunityAssignment,
    FitResult,
    _first_improvement,
    _pair_divergence,
    _Workspace,
    bernoulli_kl,
    oracle_divergence,
)
from .errors import DomainError, ModelError
from .graphons import Graphon, StepGraphon, midpoint_grid
from .sampling import EdgeProbabilityMatrix

__all__ = [
    "RiskReport",
    "build_estimator",
    "normalized_kl_risk",
    "oracle_risk",
    "graphon_mse",
    "kl_taylor_check",
    "kl_quadratic_bound",
    "CSV_COLUMNS",
]


def build_estimator(fit: FitResult) -> StepGraphon:
    """Assemble the estimated graphon from a fit: heights = averages / rho_hat.

    Blocks are laid out on the unit interval in fitted-label order with widths
    h_a / n; node order within blocks is immaterial for the step function.
    """
    if fit.rho_hat <= 0.0:
        raise ModelError("estimator undefined for an empty graph (rho_hat = 0)")
    part = fit.assignment.induced_partition()
    return StepGraphon(part, fit.stats.averages / fit.rho_hat)


def normalized_kl_risk(p: EdgeProbabilityMatrix, fit: FitResult) -> float:
    """sum D(p_ij || Abar_{z_i z_j}) / sum p_ij over pairs in unsaturated blocks."""
    z = fit.assignment
    if z.n != p.n:
        raise DomainError("assignment and probability matrix disagree on n")
    # every group has >= 2 members, so every block holds a node pair
    if fit.stats.saturated.all():
        raise ModelError("all blocks saturated; normalized risk undefined")
    divergence, mass = _pair_divergence(p, z, fit.stats.averages, ~fit.stats.saturated)
    return divergence / mass


def _pair_total(p: EdgeProbabilityMatrix) -> float:
    """sum of p_ij over the pairs i < j: the oracle risk's denominator."""
    iu = np.triu_indices(p.n, k=1)
    return float(p.p[iu].sum())


def oracle_risk(p: EdgeProbabilityMatrix, z: CommunityAssignment) -> float:
    """Normalized divergence of p from its best block-constant fit under z."""
    return oracle_divergence(p, z) / _pair_total(p)


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
        """Floats to 12 significant digits; ints (the seed among them) exactly."""
        values = (getattr(self, name) for name in CSV_COLUMNS)
        return ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in values)


CSV_COLUMNS = tuple(f.name for f in fields(RiskReport))


# ---------------------------------------------------------------------------
# Aligned mean-squared error
# ---------------------------------------------------------------------------


def _mse_for_orders(
    orders: np.ndarray, est: StepGraphon, s1: np.ndarray, s2_total: float, grid: int,
    work: _Workspace,
) -> np.ndarray:
    """MSE of each row of a (B, k) stack of block orders, in O(k^2) per order
    from s1, the zero-padded 2-d prefix sum of the truth grid.  Cell sums keep
    the association ((a - b) - c) + d and each order's products are summed along
    a contiguous last axis, so a value has the same bits alone or in any stack.

    Its (B, k+1, k+1) and (B, k, k) arrays go into work, which the caller
    keeps for all its stacks, not fresh arrays (see blockmodel._BATCH_CELLS).
    """
    b, k = orders.shape
    h = np.asarray(est.partition.h, dtype=np.int64)
    right = np.cumsum(h[orders], axis=1) / h.sum()
    cuts = np.zeros((b, k + 1), dtype=np.intp)
    # side='right' sends a midpoint sitting exactly on a block edge to the
    # lower block, matching the step-graphon quantile convention.
    cuts[:, 1:] = np.searchsorted(midpoint_grid(grid), right, side="right")
    index = np.add((cuts * (grid + 1))[:, :, None], cuts[:, None, :],
                   out=work("index", (b, k + 1, k + 1), np.intp))
    # mode="clip" writes into out directly (the default mode buffers it);
    # every index is in range, so the values are the same.
    p = s1.take(index, out=work("corners", (b, k + 1, k + 1)), mode="clip")
    cell1 = np.subtract(p[:, 1:, 1:], p[:, :-1, 1:], out=work("cross", (b, k, k)))
    cell1 -= p[:, 1:, :-1]
    cell1 += p[:, :-1, :-1]
    counts = np.diff(cuts, axis=1).astype(float)
    index = np.add((orders * k)[:, :, None], orders[:, None, :],
                   out=work("index", (b, k, k), np.intp))
    v = est.values.take(index, out=work("square", (b, k, k)), mode="clip")
    cell1 *= v
    v *= v
    # the corners are spent, so their buffer takes the count products
    v *= np.multiply(counts[:, :, None], counts[:, None, :], out=work("corners", (b, k, k)))
    sq = s2_total - 2.0 * cell1.reshape(b, -1).sum(axis=1) + v.reshape(b, -1).sum(axis=1)
    mse = sq / (grid * grid)
    # prefix-sum cancellation can leave a tiny negative residue at exact fits
    return np.where(mse > 0.0, mse, 0.0)


def _best_order_mse(
    step: StepGraphon, s1: np.ndarray, s2_total: float, grid: int, work: _Workspace
) -> float:
    """The least _mse_for_orders value over all k! block orders, from a screen
    over a table of cell terms and an exact confirmation of its near-minima.

    Table.  _mse_for_orders sums, for each cell (i, j) of an order, the terms
    x = cell1 * v and y = v^2 * (count_i * count_j), and its squared error is
    (s2_total - 2 sum x) + sum y.  A cell's terms depend only on its two blocks
    and on their start widths, the summed sizes of the blocks placed before
    them.  So they are tabulated once over pairs of (block, start) keys, with
    every subset sum of the other blocks' sizes as a start, by the kernel's
    own expressions: the same cuts and the association ((a - b) - c) + d.
    Each tabulated term has the kernel's bits; only the summation order
    differs.

    Screen.  Orders are built as a prefix tree, one subtree per leading block.
    Placing a block adds its diagonal term y - 2x and, for each block placed
    before it, the pair's two off-diagonal terms in one table entry.

    Bound.  The kernel's squared error and the screened one, q, each add the
    same 2k^2 + 1 numbers (s2_total, every -2x and every y; doubling is exact)
    in some tree of additions.  Each is therefore within gamma(2k^2) * B of
    the real sum, where gamma(m) = m u / (1 - m u), u = 2^-53, and B is
    s2_total plus the order's sum of 2|x| + y (Higham 2002, section 4.2).  Each
    pair of blocks meets in exactly one cell of an order, so B is at most
    s2_total plus, summed over ordered block pairs, the pair's largest 2|x| + y
    over all its keys.  For k <= 8, e = 4 (k^2 + 1) u B then bounds |q - exact|,
    with room for the rounding of B and of the threshold below.

    Confirm.  With q* the least screened value, the order of least exact value
    has q <= exact min + e <= exact(argmin q) + e <= q* + 2e.  So the least
    _mse_for_orders value over the orders with q <= q* + 2e is, bit for bit,
    the least over all k! orders; the clamp and the division by grid^2 that
    follow the squared error are monotone.
    """
    k = step.partition.k
    h = np.asarray(step.partition.h, dtype=np.int64)
    placed = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    width = placed @ h
    starts = [np.unique(width[placed[:, a] == 0]) for a in range(k)]
    nkeys = [s.size for s in starts]
    first = np.cumsum([0] + nkeys[:-1])
    blk = np.repeat(np.arange(k), nkeys)
    # keymap[a, mask]: the key of block a placed after the blocks in mask,
    # for every mask without a
    keymap = np.stack([first[a] + np.searchsorted(starts[a], width) for a in range(k)])
    start = np.concatenate(starts)
    mid = midpoint_grid(grid)
    lo = np.searchsorted(mid, start / h.sum(), side="right")
    hi = np.searchsorted(mid, (start + h[blk]) / h.sum(), side="right")
    count = (hi - lo).astype(float)

    def terms(i, j):
        """The kernel's x and y for the cells with row key i and column key j."""
        x = s1[hi[i], hi[j]] - s1[lo[i], hi[j]]
        x -= s1[hi[i], lo[j]]
        x += s1[lo[i], lo[j]]
        y = step.values[blk[i], blk[j]]
        x *= y
        y *= y
        y *= count[i] * count[j]
        return x, y

    keys = np.arange(blk.size)
    x, y = terms(keys, keys)
    diag = y - 2.0 * x
    # pair[i, j]: the four off-diagonal terms of keys i and j.  Row chunks
    # hold at most _BATCH_CELLS / k cells, so their temporaries stay small.
    pair, largest = np.empty((keys.size, keys.size)), np.empty((keys.size, k))
    rows = max(1, _BATCH_CELLS // (k * keys.size))
    for r in range(0, keys.size, rows):
        i = keys[r:r + rows, None]
        x, y = terms(i, keys)
        largest[r:r + rows] = np.maximum.reduceat(2.0 * np.abs(x) + y, first, axis=1)
        x *= -2.0
        x += y
        xt, yt = terms(keys, i)
        xt *= -2.0
        xt += yt
        x += xt
        pair[r:r + rows] = x
    bound = s2_total + float(np.maximum.reduceat(largest, first).sum())
    e = 4.0 * (k * k + 1) * (np.finfo(float).eps / 2) * bound

    best, kept = math.inf, []
    for lead in range(k):
        # per node of the current level: the placed blocks as a bit mask, the
        # blocks not yet placed, the keys placed so far (one array per
        # position) and the screened sum of their terms
        mask = np.array([1 << lead])
        free = np.delete(np.arange(k), lead)[None]
        path = [keymap[lead, :1]]
        q = diag[path[0]]
        for left in range(k - 1, 0, -1):
            # a node's children place, in turn, each of its `left` free blocks
            node = np.repeat(np.arange(q.size), left)
            b = free.ravel()
            new = keymap[b, mask[node]]
            q = q[node] + diag[new]
            path = [col[node] for col in path]
            for col in path:
                q += pair[col, new]
            path.append(new)
            mask = mask[node] | (1 << b)
            others = np.array([np.delete(np.arange(left), t) for t in range(left)])
            free = free[:, others].reshape(b.size, left - 1)
        q = s2_total + q
        best = min(best, float(q.min()))
        # best only falls, so this keeps a superset of the final candidates
        keep = q <= best + 2.0 * e
        kept.append((q[keep], blk[np.column_stack([col[keep] for col in path])]))
    q, orders = (np.concatenate(part) for part in zip(*kept))
    orders = orders[q <= best + 2.0 * e]
    batch = max(1, _BATCH_CELLS // (k + 1) ** 2)
    return min(float(_mse_for_orders(orders[i:i + batch], step, s1, s2_total, grid, work).min())
               for i in range(0, len(orders), batch))


_ALIGNMENTS = ("identity", "degree_sort", "block_permutation_search")


def _check_mse_options(grid: int, alignment: str) -> None:
    """graphon_mse's rules for its options; a sweep config is held to them too."""
    if grid < 64:
        raise DomainError("grid must be >= 64")
    if alignment not in _ALIGNMENTS:
        raise DomainError(f"unknown alignment {alignment!r}")


def graphon_mse(
    truth: Graphon,
    step: StepGraphon,
    grid: int = 256,
    alignment: str = "block_permutation_search",
) -> float:
    """Grid mean-squared error between the truth and a step-graphon estimate.

    The measure-preserving alignment class is restricted to permutations of
    the estimate's block intervals, so the value upper-bounds the idealized
    infimum.  'identity' skips alignment; 'degree_sort' orders blocks by
    their size-weighted marginal mean; 'block_permutation_search' minimizes
    over block orders: all k! for k <= 8 (see _best_order_mse), else swap
    descent from the identity and degree-sorted orders.  A descent scans the
    pairs a < b row-major with blockmodel._first_improvement, takes the first
    swap that lowers the MSE by more than 1e-15, and rescans until a scan
    takes none.  Every value returned or compared comes from one kernel,
    _mse_for_orders, in stacks of at most _BATCH_CELLS cells, all written
    into one workspace per call.
    """
    _check_mse_options(grid, alignment)
    k = step.partition.k
    tg = truth.grid_values(grid)
    s1 = np.zeros((grid + 1, grid + 1))
    s1[1:, 1:] = tg.cumsum(axis=0).cumsum(axis=1)
    # Column sums, then their running sum: the additions, in order, of the
    # corner of a 2-d cumulative sum, without its two grid x grid arrays.
    s2_total = float(np.cumsum((tg**2).sum(axis=0))[-1])
    del tg  # the search needs only the prefix sums; free the grid before it
    work = _Workspace()

    def score(orders: np.ndarray) -> np.ndarray:
        return _mse_for_orders(orders, step, s1, s2_total, grid, work)

    if alignment == "identity":
        return float(score(np.arange(k)[None])[0])

    h = np.asarray(step.partition.h, dtype=float)
    marginal = step.values @ (h / h.sum())
    degree_order = np.argsort(marginal, kind="stable")
    if alignment == "degree_sort":
        return float(score(degree_order[None])[0])

    if k <= 8:
        return _best_order_mse(step, s1, s2_total, grid, work)
    batch = max(1, _BATCH_CELLS // (k + 1) ** 2)
    pa, pb = np.triu_indices(k, k=1)

    def descend(order: np.ndarray) -> float:
        cur = float(score(order[None])[0])

        def take_first(lo: int, hi: int) -> int:
            nonlocal order, cur
            a, b = pa[lo:hi], pb[lo:hi]
            rows = np.arange(a.size)
            cands = np.repeat(order[None], a.size, axis=0)
            cands[rows, a], cands[rows, b] = order[b], order[a]
            vals = score(cands)
            hits = np.flatnonzero(vals < cur - 1e-15)
            if hits.size == 0:
                return -1
            j = hits[0]
            order, cur = cands[j], float(vals[j])
            return lo + j

        while _first_improvement(pa.size, batch, take_first):
            pass
        return cur

    return min(descend(start) for start in (np.arange(k), degree_order))


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
    # From the gap, not from rho*f and rho*g: those round to one float when
    # f and g are an ulp apart, and the divergence would read 0 < lhs.
    rhs = 2.0 * f / rho * _kl_from_gap(rho * g, rho * (f - g))
    return lhs, rhs, lhs <= rhs * (1 + 1e-12)


def _log1pmx(x: float) -> float:
    """log(1 + x) - x, x > -1, without the cancellation of the plain form."""
    if abs(x) >= 0.25:
        return math.log1p(x) - x
    # sum_{j>=2} (-1)^(j+1) x^j / j: each term is under a quarter of the one
    # before, so 30 terms reach 0.25^28 < 1e-16 of the first.
    total, power = 0.0, -x * x
    for j in range(2, 32):
        total += power / j
        power *= -x
    return total


def _kl_from_gap(q: float, d: float) -> float:
    """D(q+d || q) for q and q+d in (0,1), accurate to relative rounding even
    when |d| is far below q.  The linear parts of p log(p/q) and
    (1-p) log((1-p)/(1-q)) sum to d^2 / (q(1-q)); the rest is log1p(x) - x."""
    p = q + d
    return d * d / (q * (1.0 - q)) + p * _log1pmx(d / q) + (1.0 - p) * _log1pmx(-d / (1.0 - q))
