"""Blockmodel likelihood algebra and constrained profile-likelihood search.

The profile log-likelihood of an assignment z, with block parameters maximized
out at the sample block averages, can be written per unordered block pair as

    term(s, m) = s*log(s) + (m - s)*log(m - s) - m*log(m)

where m is the number of node pairs in the block and s the sum of the weight
matrix over those pairs (0*log0 := 0).  Saturated blocks (s in {0, m})
contribute exactly zero.  The same expression with the true edge-probability
matrix as weights differs from the negated oracle divergence sum
sum_{i<j} D(p_ij || pbar) only by a z-independent constant, so a single search
engine handles both the data fit and the oracle fit.

The local search uses single-node relabels plus pairwise label swaps
(Kernighan-Lin style), multi-restart.  Each move has one builder of the block
rows it would change, one scorer prices a window of either move from cached
block sums (swaps in closed form, no trial and rollback), and one writer
applies the chosen move; each sweep takes the first improving move in scan
order.  0/1 weights read their terms from an x*log(x) table.  What only a
move changes is cached and refreshed where a move is applied: the terms' row
sums, the pair-count pieces that depend only on the group sizes (with their
pc*log(pc)) and the move mask, and, for 0/1 weights, each node's exact
integer weight into each group.  The incremental state, caches included, is
verified against a from-scratch recomputation after every restart.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import (
    BudgetError,
    ConfigError,
    DomainError,
    InternalError,
    SaturatedBlockError,
    parse_json_object,
)
from .graphons import Partition, balanced_partition
from .sampling import AdjacencyMatrix, EdgeProbabilityMatrix, _check_seed, edge_density, make_rng

__all__ = [
    "CommunityAssignment",
    "BlockStats",
    "FitResult",
    "OracleFit",
    "block_stats",
    "bernoulli_kl",
    "profile_log_likelihood",
    "per_edge_log_likelihood",
    "blockmodel_log_likelihood",
    "mple_search",
    "mple_exhaustive",
    "oracle_block_means",
    "oracle_mple",
    "count_admissible_assignments",
]

_SEARCH_STREAM = 3
_TIE_TOL = 1e-10
_SEARCH_TOL = 1e-10  # least gain a search move must make
_MAX_SWEEPS = 200  # relabel-then-swap sweeps per local search
_VERIFY_RTOL = 1e-8  # incremental objective against a recomputation
# Cells per batched stack, here and in risk.graphon_mse.  A stack's arrays
# then take about 256 KiB each, near glibc's mmap threshold: allocated afresh
# per call, their pages went back to the operating system at every free and
# were faulted in again at the next call.  So the kernels write them into a
# _Workspace that their caller keeps across calls.
_BATCH_CELLS = 1 << 15


class _Workspace:
    """Named flat work arrays for the batched kernels, each grown to the
    largest size asked of it and never shrunk.

    work(name, shape, dtype) returns the leading cells of array `name` as a
    contiguous array of that shape, so a short stack has the layout it would
    have alone.  Its contents are garbage until written and are overwritten
    by the next request for the same name, so a caller uses such a view
    before that request and keeps none.
    Views are kept per shape: small windows are called often enough that
    slicing and reshaping anew costs a measurable share of them.
    """

    def __init__(self):
        self._flat = {}
        self._views = {}

    def __call__(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        view = self._views.get((name, shape))
        if view is None:
            size = math.prod(shape)
            flat = self._flat.get(name)
            if flat is None or flat.size < size:
                flat = self._flat[name] = np.empty(size, dtype)
                # drop the views that would keep the smaller array alive
                self._views = {key: v for key, v in self._views.items() if key[0] != name}
            view = self._views[name, shape] = flat[:size].reshape(shape)
        return view


# ---------------------------------------------------------------------------
# Assignments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommunityAssignment:
    """Labels z_i in {1..k} for n nodes; every group must have >= 2 members."""

    z: np.ndarray
    k: int

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.int64)
        if z.ndim != 1 or z.size < 2:
            raise DomainError("assignment needs a 1-d label vector of length >= 2")
        if self.k < 1:
            raise DomainError(f"k={self.k} must be >= 1")
        if np.any((z < 1) | (z > self.k)):
            raise DomainError(f"labels must lie in 1..{self.k}")
        sizes = np.bincount(z, minlength=self.k + 1)[1:]
        if np.any(sizes < 2):
            raise DomainError(f"every group needs >= 2 members, sizes {tuple(sizes)}")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return self.z.size

    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.z, minlength=self.k + 1)[1:]

    def canonical_form(self) -> "CommunityAssignment":
        """Relabel groups in order of first occurrence (1, 2, ...)."""
        return CommunityAssignment(z=_canonical_labels(self.z) + 1, k=self.k)

    def induced_partition(self) -> Partition:
        return Partition(tuple(int(s) for s in self.group_sizes()))

    def decompose(self):
        """Write z_i as quantile(pi_i / n) for the induced partition.

        Returns (partition, pi) where pi is a permutation of 1..n assigning
        each node a slot inside its group's contiguous rank interval.
        """
        p = self.induced_partition()
        cum = np.concatenate([[0], p.cum_counts()])
        next_slot = cum[:-1].copy()
        pi = np.empty(self.n, dtype=np.int64)
        for i, label in enumerate(self.z):
            next_slot[label - 1] += 1
            pi[i] = next_slot[label - 1]
        return p, pi


def _check_constraints(n: int, k: int, h_min: int, h_max: int) -> None:
    if h_min < 2:
        raise ConfigError(f"h_min={h_min} must be >= 2")
    if h_max < h_min:
        raise ConfigError(f"h_max={h_max} < h_min={h_min}")
    if k * h_min > n or k * h_max < n:
        raise ConfigError(
            f"no partition of n={n} into k={k} groups with sizes in [{h_min}, {h_max}]"
        )


def _check_restarts(restarts: int) -> None:
    if restarts < 1:
        raise ConfigError(f"restarts={restarts} must be >= 1")


# ---------------------------------------------------------------------------
# Block statistics and likelihoods
# ---------------------------------------------------------------------------


def _pair_counts(h: np.ndarray) -> np.ndarray:
    h = h.astype(np.float64)
    pc = np.outer(h, h)
    np.fill_diagonal(pc, h * (h - 1) / 2.0)
    return pc


def _block_weight_sums(w: np.ndarray, z0: np.ndarray, k: int) -> np.ndarray:
    """k x k matrix of weight sums per unordered pair block; z0 is 0-based."""
    onehot = np.zeros((z0.size, k))
    onehot[np.arange(z0.size), z0] = 1.0
    m = onehot.T @ w @ onehot
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, np.diag(m) / 2.0)
    return m


def _terms(s: np.ndarray, pc: np.ndarray, out=None, tmp=None, pcl=None) -> np.ndarray:
    """s log s + (pc - s) log(pc - s) - pc log pc with s clipped to [0, pc].
    out (which may be s) and tmp, arrays of s's shape, take the result and
    the one intermediate, so that the call allocates nothing.  pcl, if
    given, holds pc log pc."""
    s = np.clip(s, 0.0, pc, out=out)
    d = np.subtract(pc, s, out=tmp)
    t = xlogy(s, s, out=s)
    t += xlogy(d, d, out=d)
    t -= xlogy(pc, pc, out=d) if pcl is None else pcl
    return t


def _total_from_terms(t: np.ndarray) -> float:
    return float((t.sum() + np.trace(t)) / 2.0)


@dataclass(frozen=True)
class BlockStats:
    """Per-block pair counts, edge sums, averages, and saturation mask."""

    pair_counts: np.ndarray
    edge_sums: np.ndarray
    averages: np.ndarray
    saturated: np.ndarray

    @property
    def k(self) -> int:
        return self.pair_counts.shape[0]

    @classmethod
    def from_sums(cls, edge_sums: np.ndarray, pair_counts: np.ndarray) -> "BlockStats":
        """Stats of blocks with these edge sums and pair counts; a block is
        saturated when its sum is 0 or its pair count."""
        saturated = (edge_sums == 0.0) | (edge_sums == pair_counts)
        return cls(pair_counts, edge_sums, edge_sums / pair_counts, saturated)

    def saturated_pair_fraction(self) -> float:
        """Fraction of node pairs (not blocks) sitting in saturated blocks."""
        iu = np.triu_indices(self.k)
        total = self.pair_counts[iu].sum()
        return float(self.pair_counts[iu][self.saturated[iu]].sum() / total)


def block_stats(a: AdjacencyMatrix, z: CommunityAssignment) -> BlockStats:
    if z.n != a.n:
        raise DomainError(f"assignment covers {z.n} nodes, adjacency has {a.n}")
    z0 = z.z - 1
    h = z.group_sizes()
    pc = _pair_counts(h)
    sums = _block_weight_sums(a.a.astype(np.float64), z0, z.k)
    return BlockStats.from_sums(np.rint(sums), pc)  # exact integers for binary adjacency


def _kl_terms(p, q) -> np.ndarray:
    """Elementwise Bernoulli D(p || q), 0 log 0 := 0, in the two-term form: a
    sum of four x*log(y) terms cancels most of its digits when p is near q."""
    p = np.asarray(p, dtype=np.float64)
    r1 = np.divide(p, q, out=np.ones_like(p), where=p > 0.0)
    r0 = np.divide(1.0 - p, 1.0 - q, out=np.ones_like(p), where=p < 1.0)
    return xlogy(p, r1) + xlogy(1.0 - p, r0)


def bernoulli_kl(p: float, q: float) -> float:
    """KL divergence of Bernoulli(p) from Bernoulli(q), natural log."""
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"p={p} outside [0,1]")
    if not (0.0 < q < 1.0):
        raise SaturatedBlockError(f"divergence from Bernoulli(q={q}) is infinite")
    return float(_kl_terms(p, q))


def profile_log_likelihood(a: AdjacencyMatrix, z: CommunityAssignment) -> float:
    """Block-form profile log-likelihood; saturated blocks contribute zero."""
    stats = block_stats(a, z)
    return _total_from_terms(_terms(stats.edge_sums, stats.pair_counts))


def per_edge_log_likelihood(a: AdjacencyMatrix, z: CommunityAssignment) -> float:
    """Per-edge-sum form: sum over i<j of the Bernoulli log-mass at A_ij.

    Algebraically identical to the block form because the per-edge entropy of
    a 0/1 value is zero.
    """
    stats = block_stats(a, z)
    theta = stats.averages[z.z[:, None] - 1, z.z[None, :] - 1]
    adj = a.a.astype(np.float64)
    contrib = xlogy(adj, theta) + xlogy(1.0 - adj, 1.0 - theta)
    iu = np.triu_indices(a.n, k=1)
    return float(contrib[iu].sum())


def blockmodel_log_likelihood(
    a: AdjacencyMatrix, z: CommunityAssignment, theta: np.ndarray
) -> float:
    """Log-likelihood at an arbitrary symmetric block parameter matrix theta."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (z.k, z.k):
        raise DomainError(f"theta must be {z.k}x{z.k}")
    if np.any((theta < 0.0) | (theta > 1.0)):
        raise DomainError("theta entries must lie in [0,1]")
    stats = block_stats(a, z)
    ll = xlogy(stats.edge_sums, theta) + xlogy(stats.pair_counts - stats.edge_sums, 1.0 - theta)
    return _total_from_terms(ll)


# ---------------------------------------------------------------------------
# Incremental search engine
# ---------------------------------------------------------------------------


# Row and column group-size offsets of the size pieces: the pair counts of
# the current blocks (swap stacks), and of a relabel stack's leave rows,
# shared join block and column-a fix (see _ProfileState._refresh_sizes).
_PIECE_SHIFTS = np.array([[[0], [-1], [1], [-1]], [[0], [0], [0], [1]]])
_EXCLUDED = np.array([0.0, -np.inf])  # a move mask cell, by whether it is excluded


class _ProfileState:
    """Mutable search state maximizing the block-pair term sum over labelings.

    Works for any symmetric nonnegative weight matrix with zero diagonal:
    binary adjacency gives the profile log-likelihood, true probabilities give
    the (negated, shifted) oracle divergence objective.  For integer weights
    an x*log(x) table xlx gives the same terms by lookup.

    A move between groups a and b changes only rows and columns a and b of
    the block sums e, the pair counts and the terms t.  A builder per move
    (relabel_rows, swap_rows) stacks its candidate rows, one scorer (score)
    prices them, and one writer (write) makes the chosen candidate's rows the
    state's and applies the move, so the state holds the rows that were
    scored.  Stacks go into a _Workspace, which a caller may share between
    states (see _BATCH_CELLS).

    What only a move changes is cached, and write refreshes it: the row
    sums of t (every move); the size pieces, pair-count rows that depend
    only on the group sizes h, with their pc log pc, and the move mask
    (every relabel; a swap keeps h); and, for 0/1 weights (xlx given), each
    node's weight into each group, nbr, by +-w[i] for every node that moves.
    Exact integer counts keep their bits however they are summed; real
    weights are summed afresh per window.  Each cache holds the bits a
    window would compute from the current state, so scores do not depend
    on what is cached.
    """

    def __init__(self, w: np.ndarray, z0: np.ndarray, k: int, xlx: np.ndarray | None = None,
                 work: _Workspace | None = None):
        self.w = w
        self.n = w.shape[0]
        self.k = k
        self.xlx = xlx
        self.work = _Workspace() if work is None else work
        self.z = z0.copy()
        self.h = np.bincount(z0, minlength=k).astype(np.int64)
        # Bounds for the move mask; _local_search sets its own (see limit).
        self.h_min, self.h_max = 1, self.n
        # [pair counts, pc log pc] x [pairs, leave, join, fix], and the mask
        self.sizes = np.empty((2, 4, k, k))
        self.mask = np.empty((k, k))
        self._within = np.arange(self.n + 2) * np.arange(-1, self.n + 1) // 2  # x (x - 1) / 2
        self._refresh_sizes()
        self.e = _block_weight_sums(w, z0, k)
        self.t = self._terms(self.e, self.sizes[0, 0], np.empty((k, k)))
        self.row_sums = self.t.sum(axis=1)
        self.total = _total_from_terms(self.t)
        self.nbr = None
        if xlx is not None:
            self.nbr = np.bincount((np.arange(self.n)[:, None] * k + self.z).ravel(),
                                   w.ravel(), self.n * k).reshape(self.n, k)

    def limit(self, h_min: int, h_max: int) -> None:
        """Mask relabels that leave a group below h_min or above h_max."""
        self.h_min, self.h_max = h_min, h_max
        self._refresh_sizes()

    def _refresh_sizes(self, mask: bool = True) -> None:
        """Rebuild the size pieces and, if mask, the move mask from h.

        With rows, cols = _PIECE_SHIFTS, piece p holds (h[x] + rows[p]) *
        (h[y] + cols[p]) at (x, y), and f (f - 1) / 2 for the row factor f
        on the diagonal of all but the fix: the current pair counts (swap
        stacks); leave[a], the pair counts of group a's row after a node
        leaves it; join[b], those of group b's row after a node joins it;
        and fix[a, b], the cross cell (b, a) of that join row when the node
        comes from a.  All are exact integers, so every way of computing
        them gives the same bits.  The mask is -inf where a relabel from
        group a to b (row a, column b) stays put or breaks the bounds, else
        0.
        """
        h, k = self.h, self.k
        rows, cols = h + _PIECE_SHIFTS
        counts = self.work("counts", (4, k, k), np.intp)
        np.multiply(rows[:, :, None], cols[:, None, :], out=counts)
        self._within.take(rows[:3], out=counts.reshape(4, k * k)[:3, :: k + 1])
        pc, logs = self.sizes
        pc[...] = counts
        if self.xlx is None:
            xlogy(pc, pc, out=logs)
        else:
            self.xlx.take(counts, out=logs)
        if mask:
            # a bool index takes _EXCLUDED[0] or [1]
            np.add.outer(_EXCLUDED.take(h <= self.h_min), _EXCLUDED.take(h >= self.h_max),
                         out=self.mask)
            self.mask.reshape(k * k)[:: k + 1] = -np.inf

    def _terms(self, s: np.ndarray, pc: np.ndarray, out: np.ndarray, pcl=None) -> np.ndarray:
        """The terms of _terms, written into out (which may be s); pcl, if
        given, holds pc log pc."""
        tmp = self.work("tmp", s.shape)
        if self.xlx is None:
            return _terms(s, pc, out=out, tmp=tmp, pcl=pcl)
        # Integer s and pc: the same values as _terms, clip included.
        both = self.work("indices", (2, *s.shape), np.intp)
        pci, si = both[0], both[1]
        pci[...] = pc  # an unsafe cast, as astype's
        si[...] = s
        np.minimum(si, pci, out=si)
        np.maximum(si, 0, out=si)
        # mode="clip" writes into out directly (the default mode buffers it);
        # every index is in range, so the values are the same.
        xlx = self.xlx
        t = xlx.take(si, out=out, mode="clip")
        t += xlx.take(np.subtract(pci, si, out=si), out=tmp, mode="clip")
        t -= xlx.take(pci, out=tmp, mode="clip") if pcl is None else pcl
        return t

    def _neighbor_weights(self, nodes: np.ndarray) -> np.ndarray:
        """Weight of each node into each current group, shape (len(nodes), k)."""
        if self.nbr is not None:
            return self.nbr[nodes]
        m = nodes.size
        rows = self.work("rows", (m, self.n), np.intp)
        np.add(np.arange(m)[:, None] * self.k, self.z, out=rows)
        wn = self.w.take(nodes, axis=0, out=self.work("wrows", (m, self.n)), mode="clip")
        return np.bincount(rows.ravel(), wn.ravel(), m * self.k).reshape(m, self.k)

    def relabel_rows(self, nodes: np.ndarray, cnt: np.ndarray) -> tuple:
        """Stack (s, pc, pc log pc) for moving each node, with neighbour
        weights cnt, out of its group a: row 0 is group a after the node
        leaves and row 1 + b group b after it joins (meaningless for b = a).
        Row 0's cell b still counts the node in a; write fixes it.  Rows do
        not depend on the rest of the stack."""
        k = self.k
        r = np.arange(nodes.size)
        a = self.z[nodes]
        stacks = self.work("stacks", (3, nodes.size, k + 1, k))
        s, sized = stacks[0], stacks[1:]
        np.subtract(self.e[a], cnt, out=s[:, 0])
        np.add(self.e, cnt[:, None, :], out=s[:, 1:])
        s[r, 1:, a] -= cnt
        pieces = self.sizes
        sized[:, :, 0] = pieces[:, 1, a]
        sized[:, :, 1:] = pieces[:, 2, None]
        # r and a around a slice put the node axis first
        sized[:, r, 1:, a] = pieces[:, 3, a].swapaxes(0, 1)
        return s, sized[0], sized[1]

    def swap_rows(self, ii: np.ndarray, jj: np.ndarray) -> tuple:
        """Stack (s, pc, pc log pc) for exchanging the labels of each pair
        i = ii[p] (group a) and j = jj[p] (group b != a): row 0 is group a's
        row after the swap, e[a] + d, and row 1 group b's, e[b] - d, where d
        is the weight j brings to a row minus the weight i takes from it.
        Both rows hold the new cross cell (a, b); pair counts do not change.
        """
        r = np.arange(ii.size)
        a, b = self.z[ii], self.z[jj]
        ci, cj = np.split(self._neighbor_weights(np.concatenate([ii, jj])), 2)
        wij = self.w[ii, jj]
        cj[r, a] -= wij
        ci[r, b] -= wij
        d = cj - ci
        ab = np.array([a, b]).T
        s = self.e[ab]
        s[:, 0] += d
        s[:, 1] -= d
        s[r, 0, b] = s[r, 1, a] = self.e[a, b] - d[r, a] + d[r, b]
        pc, pcl = self.sizes[:, 0][:, ab]
        return s, pc, pcl

    def score(self, s: np.ndarray, pc: np.ndarray, pcl: np.ndarray, a: np.ndarray,
              b=None) -> np.ndarray:
        """Objective change of each candidate of a stack.

        The change is (sum row 0 - row 0[b]) + sum row b - (old row sums of a
        and b) + t[a, b]: the (a, b) cross term sits in both rows, so only
        row b's copy counts.  b holds each stack's one group b (a swap); with
        b None, candidate c joins group c (a relabel window), and row 0[b] is
        row 0 itself, not a gather.  Returns deltas of shape (N, m - 1).
        """
        terms = self._terms(s, pc, self.work("terms", s.shape), pcl)
        sums = terms.sum(axis=2)
        t, row_sums = self.t, self.row_sums
        if b is None:
            at_b, sums_b, t_ab = terms[:, 0], row_sums, t[a]
        else:
            r = np.arange(a.size)
            at_b, sums_b, t_ab = terms[r, 0, b, None], row_sums[b, None], t[a, b, None]
        return (sums[:, :1] - at_b) + sums[:, 1:] - row_sums[a][:, None] - sums_b + t_ab

    def write(self, i: int, b: int, s: np.ndarray, pc: np.ndarray, delta: float,
              j: int | None = None) -> None:
        """Apply a chosen move: node i leaves its group a for group b and,
        for a swap, node j leaves b for a.  The candidate's rows s[0], s[1],
        with pair counts pc[0], pc[1], become rows a and b (s and pc are
        overwritten), its delta is added to the total, and the caches
        follow."""
        a = self.z[i]
        # Columns are written after rows, so row 0's cell b lands at (b, a):
        # make it the cross cell that row b holds and score counted.
        s[0, b], pc[0, b] = s[1, a], pc[1, a]
        e, t = self.e, self.t
        e[a], e[b] = s
        e[:, a], e[:, b] = s
        rows = self._terms(s, pc, s)
        t[a], t[b] = rows
        t[:, a], t[:, b] = rows
        self.row_sums = t.sum(axis=1)
        self.total += delta
        self.z[i] = b
        moved = self.w[i]  # the weight group a loses and b gains, per node
        if j is None:
            h = self.h
            h[a] -= 1
            h[b] += 1
            # Row a or column b of the mask flips only as a or b reaches a
            # bound, column a or row b only as it leaves one.
            self._refresh_sizes(h[a] in (self.h_min, self.h_max - 1)
                                or h[b] in (self.h_min + 1, self.h_max))
        else:
            self.z[j] = a
            moved = moved - self.w[j]
        if self.nbr is not None:
            self.nbr[:, a] -= moved
            self.nbr[:, b] += moved

    def verify(self) -> None:
        fresh = _ProfileState(self.w, self.z, self.k, self.xlx, self.work)
        fresh.limit(self.h_min, self.h_max)
        scale = max(1.0, abs(fresh.total))
        if abs(fresh.total - self.total) > _VERIFY_RTOL * scale:
            raise InternalError(
                f"incremental objective {self.total!r} drifted from "
                f"recomputed {fresh.total!r}"
            )
        exact = np.array_equal
        checks = {
            "group sizes": exact(fresh.h, self.h),
            "block sums": np.allclose(fresh.e, self.e, rtol=0, atol=1e-6),
            "block terms": np.allclose(fresh.t, self.t, rtol=1e-10, atol=1e-8),
            "term row sums": exact(self.t.sum(axis=1), self.row_sums),
            "neighbour counts": self.nbr is None or exact(fresh.nbr, self.nbr),
            "size pieces": exact(fresh.sizes, self.sizes),
            "move mask": exact(fresh.mask, self.mask),
        }
        for name, ok in checks.items():
            if not ok:
                raise InternalError(f"incremental {name} drifted from recomputation")


def _contiguous_labels(order: np.ndarray, sizes) -> np.ndarray:
    z0 = np.empty(order.size, dtype=np.int64)
    z0[order] = np.repeat(np.arange(len(sizes)), sizes)
    return z0


def _first_improvement(count: int, cap: int, take_first) -> bool:
    """Scan moves 0..count-1 in order, taking every one that improves.

    take_first(lo, hi) scores moves lo..hi-1 against the current state, applies
    the first improving one and returns its index, or returns -1.  Resuming
    right after it takes exactly the moves of a one-at-a-time scan.  The window
    doubles (up to cap) after a window with no taker and halves after a taker.
    """
    lo, width, taken = 0, 1, False
    while lo < count:
        hi = min(lo + width, count)
        hit = take_first(lo, hi)
        if hit < 0:
            lo, width = hi, min(2 * width, cap)
        else:
            lo, width, taken = hit + 1, max(1, width // 2), True
    return taken


def _local_search(state: _ProfileState, h_min: int, h_max: int, rng: np.random.Generator) -> int:
    """Greedy ascent with relabel and swap moves; returns accepted swap count."""
    n, k = state.n, state.k
    cap = max(1, _BATCH_CELLS // max(k * k, 2 * n))
    swaps = 0
    state.limit(h_min, h_max)

    def take_relabel(lo: int, hi: int) -> int:
        nodes = np.arange(lo, hi)
        a = state.z[lo:hi]
        s, pc, pcl = state.relabel_rows(nodes, state._neighbor_weights(nodes))
        deltas = state.score(s, pc, pcl, a)
        deltas += state.mask[a]
        best = deltas.argmax(axis=1)
        gain = deltas[np.arange(hi - lo), best]
        hits = np.flatnonzero(gain > _SEARCH_TOL)
        if hits.size == 0:
            return -1
        t = hits[0]
        i, b = lo + t, best[t]
        rows = [0, 1 + b]
        state.write(i, b, s[t, rows], pc[t, rows], float(gain[t]))
        return i

    def swap_sweep() -> bool:
        if n <= 80:
            pairs = np.column_stack(np.triu_indices(n, k=1))
        else:
            pairs = rng.integers(0, n, size=(4 * n, 2))

        def take_swap(lo: int, hi: int) -> int:
            nonlocal swaps
            ii, jj = pairs[lo:hi, 0], pairs[lo:hi, 1]
            live = np.flatnonzero(state.z[ii] != state.z[jj])
            if live.size == 0:
                return -1
            ii, jj = ii[live], jj[live]
            s, pc, pcl = state.swap_rows(ii, jj)
            deltas = state.score(s, pc, pcl, state.z[ii], state.z[jj])[:, 0]
            hits = np.flatnonzero(deltas > _SEARCH_TOL)
            if hits.size == 0:
                return -1
            t = hits[0]
            j = jj[t]
            state.write(ii[t], state.z[j], s[t], pc[t], float(deltas[t]), j)
            swaps += 1
            return lo + live[t]

        return _first_improvement(len(pairs), cap, take_swap)

    # Relabel moves are cheap, so iterate them to a fixed point; swap sweeps
    # are the escape hatch for size-constrained configurations and only run
    # once relabeling is stuck.
    for _ in range(_MAX_SWEEPS):
        if _first_improvement(n, cap, take_relabel):
            continue
        if not swap_sweep():
            break
    return swaps


def _maximize_profile(
    w: np.ndarray,
    k: int,
    h_min: int,
    h_max: int,
    restarts: int,
    seed: int,
    extra_inits: list | None = None,
    xlx: np.ndarray | None = None,
):
    """Multi-restart local search; returns (z0, total, swaps, ties, searches run)."""
    n = w.shape[0]
    _check_constraints(n, k, h_min, h_max)
    _check_restarts(restarts)
    rng = make_rng(seed, _SEARCH_STREAM)
    sizes = balanced_partition(n, k).h
    degrees = w.sum(axis=1)

    inits = []
    order = np.argsort(-degrees, kind="stable")
    inits.append(_contiguous_labels(order, sizes))
    for z0 in extra_inits or []:
        inits.append(np.asarray(z0, dtype=np.int64))
    while len(inits) < restarts:
        inits.append(_contiguous_labels(rng.permutation(n), sizes))

    best_total = -np.inf
    best_canon = None
    best_swaps = 0
    ties = False
    work = _Workspace()
    for z0 in inits:
        state = _ProfileState(w, z0, k, xlx, work)
        swaps = _local_search(state, h_min, h_max, rng)
        state.verify()
        canon = _canonical_labels(state.z)
        if state.total > best_total + _TIE_TOL:
            best_total, best_canon, best_swaps = state.total, canon, swaps
            ties = False
        elif state.total > best_total - _TIE_TOL:
            if not np.array_equal(canon, best_canon):
                ties = True
                if tuple(canon) < tuple(best_canon):
                    best_canon, best_swaps = canon, swaps
                    best_total = max(best_total, state.total)
    return best_canon, best_total, best_swaps, ties, len(inits)


def _canonical_labels(z0: np.ndarray) -> np.ndarray:
    mapping = {}
    out = np.empty(z0.size, dtype=np.int64)
    for i, label in enumerate(z0):
        out[i] = mapping.setdefault(int(label), len(mapping))
    return out


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------

_ENUMERATION_BUDGET = 10**6


def count_admissible_assignments(n: int, k: int, h_min: int, h_max: int) -> int:
    """Number of set partitions of n items into k blocks with bounded sizes.

    Recursion on the block containing the smallest remaining item, so each
    unordered partition (canonical assignment) is counted exactly once.
    """
    _check_constraints(n, k, h_min, h_max)
    cache = {}

    def rec(m: int, j: int) -> int:
        if j == 0:
            return 1 if m == 0 else 0
        if m < j * h_min or m > j * h_max:
            return 0
        key = (m, j)
        if key not in cache:
            cache[key] = sum(
                math.comb(m - 1, s - 1) * rec(m - s, j - 1)
                for s in range(h_min, min(h_max, m) + 1)
            )
        return cache[key]

    return rec(n, k)


def _enumerate_canonical(n: int, k: int, h_min: int, h_max: int):
    """Yield all canonical (first-occurrence-ordered) label vectors, lex order."""
    z = np.zeros(n, dtype=np.int64)
    sizes = np.zeros(k, dtype=np.int64)

    def feasible(t: int, used: int) -> bool:
        remaining = n - t
        deficit = int(np.maximum(h_min - sizes[:used], 0).sum()) + (k - used) * h_min
        capacity = int((h_max - sizes[:used]).sum()) + (k - used) * h_max
        return deficit <= remaining <= capacity

    def rec(t: int, used: int):
        if t == n:
            if used == k:
                yield z.copy()
            return
        limit = min(used + 1, k)
        for label in range(limit):
            opens = label == used
            if not opens and sizes[label] + 1 > h_max:
                continue
            z[t] = label
            sizes[label] += 1
            if feasible(t + 1, used + (1 if opens else 0)):
                yield from rec(t + 1, used + (1 if opens else 0))
            sizes[label] -= 1

    yield from rec(0, 0)


def _exhaustive_profile(w: np.ndarray, k: int, h_min: int, h_max: int):
    """Exact maximizer over all admissible assignments; (z0, total, count, ties)."""
    n = w.shape[0]
    count = count_admissible_assignments(n, k, h_min, h_max)
    if count > _ENUMERATION_BUDGET:
        raise BudgetError(
            f"exhaustive search over ~{count} admissible assignments exceeds "
            f"the {_ENUMERATION_BUDGET} budget"
        )
    best_total = -np.inf
    best_z = None
    ties = False
    seen = 0
    for z0 in _enumerate_canonical(n, k, h_min, h_max):
        seen += 1
        total = _total_from_terms(
            _terms(_block_weight_sums(w, z0, k), _pair_counts(np.bincount(z0, minlength=k)))
        )
        if total > best_total + _TIE_TOL:
            best_total, best_z, ties = total, z0, False
        elif total > best_total - _TIE_TOL:
            ties = True  # lex order: keep the earlier (smaller) maximizer
    if seen != count:
        raise InternalError(f"enumerated {seen} assignments, expected {count}")
    return best_z, best_total, count, ties


# ---------------------------------------------------------------------------
# Public fit interfaces
# ---------------------------------------------------------------------------


# FitResult fields that to_json writes as they are and from_json reads back,
# with their JSON types (see errors.parse_json_object).
_FIT_JSON_SCALARS = dict(
    profile_loglik=float, rho_hat=float, restarts_used=int,
    swap_count=int, ties=bool, seed=int, h_min=int, h_max=int,
)
_FIT_JSON_SCHEMA = dict(assignment=[int], k=int, block_averages=[[float]], **_FIT_JSON_SCALARS)


@dataclass(frozen=True)
class FitResult:
    """Fitted assignment with block statistics, search metadata and the group
    size bounds [h_min, h_max] the search ran under."""

    assignment: CommunityAssignment
    stats: BlockStats
    profile_loglik: float
    rho_hat: float
    restarts_used: int
    swap_count: int
    ties: bool
    seed: int = 0
    h_min: int = 2
    h_max: int | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "assignment": self.assignment.z.tolist(),
                "k": self.assignment.k,
                "block_averages": self.stats.averages.tolist(),
                "saturated": self.stats.saturated.tolist(),
                **{key: getattr(self, key) for key in _FIT_JSON_SCALARS},
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FitResult":
        """Rebuild a fit from its to_json form alone: pair counts follow from
        the group sizes and edge sums are rint(averages * pair counts)."""
        obj = parse_json_object(text, "fit", _FIT_JSON_SCHEMA, hints=dict.fromkeys(
            ("h_min", "h_max"), "it predates stored size bounds, so re-run fit"))
        k, z, averages = obj["k"], np.asarray(obj["assignment"]), obj["block_averages"]
        # dtype kind "i" rules out an empty list and labels past int64
        if z.dtype.kind != "i" or len(averages) != k or any(len(r) != k for r in averages):
            raise ConfigError(f"fit needs integer labels and {k}x{k} block averages")
        _check_seed(obj["seed"])
        assignment = CommunityAssignment(z=z, k=k)
        pc = _pair_counts(assignment.group_sizes())
        stats = BlockStats.from_sums(np.rint(np.asarray(averages, dtype=np.float64) * pc), pc)
        return cls(assignment, stats, **{key: obj[key] for key in _FIT_JSON_SCALARS})


@dataclass(frozen=True)
class OracleFit:
    """Divergence-minimizing assignment for known edge probabilities."""

    assignment: CommunityAssignment
    divergence: float
    ties: bool
    restarts_used: int


def _finish_fit(
    a: AdjacencyMatrix, z0: np.ndarray, k: int, total: float,
    restarts: int, swaps: int, ties: bool, seed: int, h_min: int, h_max: int,
) -> FitResult:
    assignment = CommunityAssignment(z=z0 + 1, k=k)
    stats = block_stats(a, assignment)
    check = _total_from_terms(_terms(stats.edge_sums, stats.pair_counts))
    if abs(check - total) > 1e-8 * max(1.0, abs(check)):
        raise InternalError(
            f"search objective {total!r} disagrees with recomputed "
            f"profile log-likelihood {check!r}"
        )
    return FitResult(
        assignment=assignment,
        stats=stats,
        profile_loglik=check,
        rho_hat=edge_density(a),
        restarts_used=restarts,
        swap_count=swaps,
        ties=ties,
        seed=int(seed),
        h_min=h_min,
        h_max=h_max,
    )


def mple_search(
    a: AdjacencyMatrix,
    k: int,
    h_min: int = 2,
    h_max: int | None = None,
    restarts: int = 5,
    seed: int = 0,
) -> FitResult:
    """Multi-restart local maximization of the profile log-likelihood."""
    h_max = a.n if h_max is None else h_max
    w = a.a.astype(np.float64)
    # 0/1 weights: integer block sums; every pair count is below (h_max + 1)^2.
    m = np.arange((min(h_max, a.n) + 1) ** 2, dtype=np.float64)
    z0, total, swaps, ties, searches = _maximize_profile(
        w, k, h_min, h_max, restarts, seed, xlx=xlogy(m, m)
    )
    return _finish_fit(a, z0, k, total, searches, swaps, ties, seed, h_min, h_max)


def mple_exhaustive(
    a: AdjacencyMatrix, k: int, h_min: int = 2, h_max: int | None = None
) -> FitResult:
    """Exact profile-likelihood maximizer by enumeration (budget-limited)."""
    h_max = a.n if h_max is None else h_max
    w = a.a.astype(np.float64)
    z0, total, count, ties = _exhaustive_profile(w, k, h_min, h_max)
    return _finish_fit(a, z0, k, total, count, 0, ties, 0, h_min, h_max)


def oracle_block_means(p: EdgeProbabilityMatrix, z: CommunityAssignment) -> np.ndarray:
    """Block averages of the true edge probabilities under z."""
    if z.n != p.n:
        raise DomainError(f"assignment covers {z.n} nodes, matrix has {p.n}")
    sums = _block_weight_sums(p.p, z.z - 1, z.k)
    return sums / _pair_counts(z.group_sizes())


def _pair_divergence(p: EdgeProbabilityMatrix, z: CommunityAssignment, theta: np.ndarray,
                     keep: np.ndarray | None = None) -> tuple[float, float]:
    """(sum of D(p_ij || theta[z_i, z_j]), sum of p_ij) over the pairs i < j,
    in np.triu_indices order, whose block has keep[z_i, z_j] (all pairs if
    keep is None); theta and keep are k x k."""
    iu, ju = np.triu_indices(p.n, k=1)
    zi, zj = z.z[iu] - 1, z.z[ju] - 1
    pe, q = p.p[iu, ju], theta[zi, zj]
    if keep is not None:
        kept = keep[zi, zj]
        pe, q = pe[kept], q[kept]
    return float(_kl_terms(pe, q).sum()), float(pe.sum())


def oracle_divergence(p: EdgeProbabilityMatrix, z: CommunityAssignment) -> float:
    """Sum over i<j of D(p_ij || pbar_{z_i z_j}), natural log."""
    return _pair_divergence(p, z, oracle_block_means(p, z))[0]


def oracle_mple(
    p: EdgeProbabilityMatrix,
    k: int,
    h_min: int = 2,
    h_max: int | None = None,
    restarts: int = 5,
    seed: int = 0,
    extra_inits: list | None = None,
) -> OracleFit:
    """Assignment minimizing the divergence of p from its block averages.

    Uses the same search engine as mple_search with the probabilities as
    weights; the two objectives differ by a z-independent constant.
    """
    h_max = p.n if h_max is None else h_max
    z0, _, _, ties, restarts_used = _maximize_profile(
        p.p, k, h_min, h_max, restarts, seed, extra_inits=extra_inits
    )
    assignment = CommunityAssignment(z=z0 + 1, k=k)
    return OracleFit(
        assignment=assignment,
        divergence=oracle_divergence(p, assignment),
        ties=ties,
        restarts_used=restarts_used,
    )
