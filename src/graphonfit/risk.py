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
from typing import NamedTuple

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


def _cell_sums(s1: np.ndarray, lo, hi, lo2, hi2) -> np.ndarray:
    """The truth-grid sums over the cells [lo, hi) x [lo2, hi2) from s1, the
    zero-padded 2-d prefix sum, by flat takes (2-4 times faster than 2-d
    fancy indexing) and the association ((a - b) - c) + d that every cell
    sum of the alignment search keeps."""
    s1, lo, hi = s1.ravel(), lo * s1.shape[1], hi * s1.shape[1]
    x = s1.take(hi + hi2)
    x -= s1.take(lo + hi2)
    x -= s1.take(hi + lo2)
    x += s1.take(lo + lo2)
    return x


# Largest _IntervalTable, in cells (m^2 <= 2^18, at most 512 intervals and
# 2 MiB).  The benchmark's ultra-sparse fits (n 100, k 40, grid 64) reach
# 181-242 intervals; its dense fits at grid 256 reach 1,497-2,816, whose
# tables would cost more to build than their search saves.
_TABLE_CELLS = 1 << 18


class _IntervalTable(NamedTuple):
    """What _mse_for_orders gathers for the m grid intervals that a block
    of some order can occupy.

    h holds the block sizes; ids[first[a] + s] is the interval of block a
    when the blocks before it hold s nodes; count[i] is the number of
    midpoints in interval i; cells[i * m + j] is the truth-grid sum over
    intervals i and j.
    """

    h: np.ndarray
    first: np.ndarray
    ids: np.ndarray
    count: np.ndarray
    cells: np.ndarray


def _interval_table(step: StepGraphon, s1: np.ndarray, cut: np.ndarray) -> _IntervalTable | None:
    """step's _IntervalTable over the truth prefix sums s1, or None when it
    would hold more than _TABLE_CELLS cells.

    With N nodes, a block of width w placed after s nodes covers the
    midpoints from cut[s] to cut[s + w], s = 0..N - w: the cuts
    _mse_for_orders takes, from the same array (see graphon_mse).
    """
    h = np.asarray(step.partition.h, dtype=np.int64)
    total, grid = cut.size - 1, s1.shape[0] - 1
    # one row of starts per distinct width.  bincount and a mask in place of
    # np.unique and np.sort, whose code pages alone add 0.75 MB of RSS.
    has = np.bincount(h) > 0
    ends = np.arange(total + 1) + np.flatnonzero(has)[:, None]
    key = cut * (grid + 1) + cut[np.minimum(ends, total)]
    seen = np.zeros((grid + 1) ** 2, dtype=bool)
    seen[key[ends <= total]] = True
    reach = np.flatnonzero(seen)
    m = reach.size
    if m * m > _TABLE_CELLS:
        return None
    lo, hi = np.divmod(reach, grid + 1)
    # in row chunks of at most 4,096 cells, so that the gathers' chunk-sized
    # temporaries stay small beside the table
    cells = np.empty((m, m))
    rows = max(1, 4096 // m)
    for r in range(0, m, rows):
        cells[r:r + rows] = _cell_sums(s1, lo[r:r + rows, None], hi[r:r + rows, None], lo, hi)
    first = (np.cumsum(has)[h] - 1) * (total + 1)
    return _IntervalTable(h, first, np.searchsorted(reach, key).ravel(),
                          (hi - lo).astype(float), cells.ravel())


def _mse_for_orders(
    orders: np.ndarray, est: StepGraphon, s1: np.ndarray, s2_total: float, cut: np.ndarray,
    work: _Workspace, table: _IntervalTable | None = None,
) -> np.ndarray:
    """MSE of each row of a (B, k) stack of block orders, in O(k^2) per order.

    An order's k x k cell sums come from s1, the zero-padded 2-d prefix sum
    of the truth grid, as (k+1)^2 corners at its block edges' cuts (see
    graphon_mse) and three difference passes, or, given the call's table
    (see _interval_table), as one gather from it.
    Both paths take each cell sum from the same s1 values with the association
    ((a - b) - c) + d, so they give the same bits.  Each order's products
    are summed along a contiguous last axis, so a value has the same bits
    alone or in any stack.

    Its stack-sized arrays go into work, which the caller keeps for all its
    stacks, not fresh arrays (see blockmodel._BATCH_CELLS).
    """
    b, k = orders.shape
    grid = s1.shape[0] - 1
    index = np.add((orders * k)[:, :, None], orders[:, None, :],
                   out=work("index", (b, k, k), np.intp))
    v = est.values.take(index, out=work("square", (b, k, k)), mode="clip")
    if table is None:
        h = np.asarray(est.partition.h, dtype=np.int64)
        cuts = np.zeros((b, k + 1), dtype=np.intp)
        cuts[:, 1:] = cut[np.cumsum(h[orders], axis=1)]
        index = np.add((cuts * (grid + 1))[:, :, None], cuts[:, None, :],
                       out=work("index", (b, k + 1, k + 1), np.intp))
        # mode="clip" writes into out directly (the default mode buffers it);
        # every index is in range, so the values are the same.
        p = s1.take(index, out=work("corners", (b, k + 1, k + 1)), mode="clip")
        cell1 = np.subtract(p[:, 1:, 1:], p[:, :-1, 1:], out=work("cross", (b, k, k)))
        cell1 -= p[:, 1:, :-1]
        cell1 += p[:, :-1, :-1]
        counts = np.diff(cuts, axis=1).astype(float)
    else:
        hb = table.h[orders]
        ends = np.cumsum(hb, axis=1)
        ids = table.ids[table.first[orders] + (ends - hb)]
        index = np.add((ids * table.count.size)[:, :, None], ids[:, None, :],
                       out=work("index", (b, k, k), np.intp))
        cell1 = table.cells.take(index, out=work("cross", (b, k, k)), mode="clip")
        counts = table.count[ids]
    cell1 *= v
    x = cell1.reshape(b, -1).sum(axis=1)
    # the cell sums are spent, so their buffer takes the count products
    np.multiply(counts[:, :, None], counts[:, None, :], out=cell1)
    v *= v
    v *= cell1
    sq = s2_total - 2.0 * x + v.reshape(b, -1).sum(axis=1)
    mse = sq / (grid * grid)
    # prefix-sum cancellation can leave a tiny negative residue at exact fits
    return np.where(mse > 0.0, mse, 0.0)


def _best_order_mse(
    step: StepGraphon, s1: np.ndarray, s2_total: float, cut: np.ndarray, work: _Workspace
) -> float:
    """The least _mse_for_orders value over all k! block orders, from a screen
    over a table of cell terms and an exact confirmation of its near-minima.

    Table.  _mse_for_orders sums, for each cell (i, j) of an order, the terms
    x = cell1 * v and y = v^2 * (count_i * count_j), and its squared error is
    (s2_total - 2 sum x) + sum y.  A cell's terms depend only on its two blocks
    and on their start widths, the summed sizes of the blocks placed before
    them.  So they are computed once, as m = y - 2x, for each pair of (block,
    start) keys, with every subset sum of the other blocks' sizes as a start,
    by the kernel's own expressions: the same cuts and the association
    ((a - b) - c) + d.  x and y have the kernel's bits; only the summation
    order differs.  The table pair = m + m^T is then formed in m's place,
    one square tile at a time, so that no second K x K array is made.

    Screen.  Orders are built as a prefix tree, one subtree per leading block.
    Placing a block adds its diagonal term y - 2x and, for each block placed
    before it, the pair's two off-diagonal terms in one table entry, all by
    flat takes, with each placed key multiplied by K, the number of keys.

    Bound.  The kernel's squared error and the screened one, q, each add the
    same 2k^2 + 1 numbers (s2_total, every -2x and every y; doubling is exact)
    in different trees of additions: q adds each cell's y and -2x first, then
    a pair's two cells, then block by block.  The bound for any such tree
    (Higham 2002, section 4.2) puts each within gamma(2k^2) * B of the real
    sum, where gamma(m) = m u / (1 - m u), u = 2^-53, and B is s2_total plus
    the order's sum of 2|x| + y.  Each pair of blocks meets in exactly one
    cell of an order, so B is at most s2_total plus, summed over ordered
    block pairs, the pair's largest 2|x| + y over all its keys.  For k <= 8,
    e = 4 (k^2 + 1) u B then bounds |q - exact|, with room for the rounding
    of B and of the threshold below.

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
    # keymap[a << k | mask]: the key of block a placed after the blocks in
    # mask, for every mask without a
    keymap = np.concatenate([first[a] + np.searchsorted(starts[a], width) for a in range(k)])
    start = np.concatenate(starts)
    lo, hi = cut[start], cut[start + h[blk]]
    count = (hi - lo).astype(float)
    size, values = blk.size, step.values.ravel()

    # m[i, j]: the kernel's y - 2x for the cell of row key i and column key
    # j, each computed once.  Row chunks hold at most _BATCH_CELLS / k
    # cells, so their temporaries stay small.
    m, largest = np.empty((size, size)), np.empty((size, k))
    rows = max(1, _BATCH_CELLS // (k * size))
    for r in range(0, size, rows):
        i = slice(r, r + rows)
        x = _cell_sums(s1, lo[i, None], hi[i, None], lo, hi)
        y = values.take(blk[i, None] * k + blk)
        x *= y
        y *= y
        y *= count[i, None] * count
        largest[i] = np.maximum.reduceat(2.0 * np.abs(x) + y, first, axis=1)
        x *= -2.0
        x += y
        m[i] = x
    diag = m.diagonal().copy()
    # pair[i, j] = m[i, j] + m[j, i]: the four off-diagonal terms of keys i
    # and j, formed in m's place one square tile at a time
    for r in range(0, size, 64):
        for c in range(r, size, 64):
            upper, lower = m[r:r + 64, c:c + 64], m[c:c + 64, r:r + 64]
            upper += lower.T
            lower[...] = upper.T
    pair = m.ravel()
    bound = s2_total + float(np.maximum.reduceat(largest, first).sum())
    e = 4.0 * (k * k + 1) * (np.finfo(float).eps / 2) * bound

    # others[left][t]: the positions of a node's `left` free blocks but t
    others = [np.arange(left - 1) + (np.arange(left - 1) >= np.arange(left)[:, None])
              for left in range(k + 1)]
    best, kept = math.inf, []
    for lead in range(k):
        # per node of the current level: the placed blocks as a bit mask, the
        # blocks not yet placed, the keys placed so far, each times size (one
        # array per position) and the screened sum of their terms
        mask = np.array([1 << lead])
        free = others[k][lead:lead + 1]
        new = keymap[lead << k:(lead << k) + 1]
        q, path = diag.take(new), [new * size]
        for left in range(k - 1, 0, -1):
            # a node's children place, in turn, each of its `left` free
            # blocks; on the last level a node's one child keeps its index
            node = np.repeat(np.arange(q.size), left) if left > 1 else slice(None)
            b = free.ravel()
            mask = mask[node]
            new = keymap.take((b << k) | mask)
            q = q[node]
            q += diag.take(new)
            path = [col[node] for col in path]
            for col in path:
                q += pair.take(col + new)
            path.append(new * size)
            mask |= 1 << b
            free = free.take(others[left], axis=1).reshape(b.size, left - 1)
        q = s2_total + q
        best = min(best, float(q.min()))
        # best only falls, so this keeps a superset of the final candidates
        keep = q <= best + 2.0 * e
        kept.append((q[keep], blk[np.column_stack([col[keep] for col in path]) // size]))
    q, orders = (np.concatenate(part) for part in zip(*kept))
    orders = orders[q <= best + 2.0 * e]
    batch = max(1, _BATCH_CELLS // (k + 1) ** 2)
    return min(float(_mse_for_orders(orders[i:i + batch], step, s1, s2_total, cut, work).min())
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
    takes none.  Its first window is one pair wide; rescans keep the widths
    and stop by the rules of blockmodel._lockstep.  Every value returned
    or compared comes from one kernel, _mse_for_orders, in stacks of at most
    _BATCH_CELLS cells, all written into one workspace per call.  The
    descent's stacks gather their cell sums from one _interval_table per
    call when its m^2 cells fit _TABLE_CELLS, as at n 100 on grid 64, and
    otherwise from prefix-sum corners, as for dense fits on grid 256.  The
    input alone picks the path, and both give the same bits.  The table, the
    corners and the k <= 8 screen all cut the grid's midpoints at one array
    per call, cut[s] for a block edge after s of the n nodes.  The truth's
    read-only prefix sums come from truth.prefix_sums(grid), which builds
    them once per grid and keeps them on the truth, so a replicate's two
    calls, and every replicate of one catalog graphon, share them.
    """
    _check_mse_options(grid, alignment)
    k = step.partition.k
    s1, s2_total = truth.prefix_sums(grid)
    n = sum(step.partition.h)
    # side='right' sends a midpoint sitting exactly on a block edge to the
    # lower block, matching the step-graphon quantile convention.
    cut = np.searchsorted(midpoint_grid(grid), np.arange(n + 1) / n, side="right")
    work = _Workspace()
    table = None

    def score(orders: np.ndarray) -> np.ndarray:
        return _mse_for_orders(orders, step, s1, s2_total, cut, work, table)

    if alignment == "identity":
        return float(score(np.arange(k)[None])[0])

    h = np.asarray(step.partition.h, dtype=float)
    # A k-vector gemv.  OpenBLAS runs it on one thread below 9,216 cells
    # (k <= 96), so its bits do not depend on the thread count
    # (tests/test_blas_threads.py).  A numpy sum would change its last bits,
    # and with them the order of near-tied blocks and mse_aligned.
    marginal = step.values @ (h / h.sum())
    degree_order = np.argsort(marginal, kind="stable")
    if alignment == "degree_sort":
        return float(score(degree_order[None])[0])

    if k <= 8:
        return _best_order_mse(step, s1, s2_total, cut, work)
    # score reads table when called, so from here on it gathers from it
    table = _interval_table(step, s1, cut)
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

        _first_improvement(pa.size, batch, take_first, repeat=True)
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
