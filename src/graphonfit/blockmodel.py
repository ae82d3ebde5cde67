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
(Kernighan-Lin style), multi-restart, over 0/1 weights or the oracle's
fixed-point ones (_fixed_point).  One builder per move, one scorer and one
writer serve both moves.  _ProfileState states its caches and why its sums
are exact, _lockstep the window widths and rescans, and _local_searches how
the starts run in lockstep and draw in start order.  Reported values use
xlogy (_terms), which imports scipy.special at its first call, so importing
this module loads no scipy.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

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
# A swap sweep scans every pair up to this n and draws nothing; above it, it
# draws 4n pairs from the search's rng.
_ALL_PAIRS_MAX_N = 80
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
    Views are kept per name and shape: small windows are called often enough
    that slicing and reshaping anew costs a measurable share of them.
    """

    def __init__(self):
        self._flat = {}
        self._views = {}

    def __call__(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        view = self._views.get(name, {}).get(shape)
        if view is None:
            size = math.prod(shape)
            flat = self._flat.get(name)
            if flat is None or flat.size < size:
                flat = self._flat[name] = np.empty(size, dtype)
                # drop this name's views, which keep the smaller array alive
                self._views[name] = {}
            view = self._views[name][shape] = flat[:size].reshape(shape)
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


def _group_sums(w: np.ndarray, z0: np.ndarray, k: int) -> np.ndarray:
    """k x k matrix of weight sums per unordered pair block; z0 is 0-based.
    Two bincounts (node into group, then group into group) sum in a fixed
    order, so no bit depends on BLAS or its thread count."""
    n = z0.size
    into = np.bincount((np.arange(n)[:, None] * k + z0).ravel(), w.ravel(), n * k)
    m = np.bincount((z0[:, None] * k + np.arange(k)).ravel(), into, k * k).reshape(k, k)
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, np.diag(m) / 2.0)
    return m


def xlogy(x, y):
    """scipy.special.xlogy(x, y), unchanged.  scipy.special is imported at
    the first call: it is most of what importing graphonfit would cost, and
    only a likelihood evaluation needs it."""
    from scipy.special import xlogy as scipy_xlogy

    return scipy_xlogy(x, y)


def _terms(s: np.ndarray, pc: np.ndarray) -> np.ndarray:
    """s log s + (pc - s) log(pc - s) - pc log pc, by xlogy: the terms of
    every reported value.  Sums of weights in [0, 1] lie in [0, pc]."""
    d = pc - s
    t = xlogy(s, s)
    t += xlogy(d, d)
    t -= xlogy(pc, pc)
    return t


# The least positive float: its log is finite, so x * log(max(x, _TINY)) is
# x log x for every x > 0 and (minus) 0 at x = 0.
_TINY = np.finfo(np.float64).smallest_subnormal


def _xlogx(x: np.ndarray, buf: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x log x for x >= 0 by numpy's log, written into out; buf, of x's
    shape, takes the logs.  Exactly 0 (as -0.0) where x is 0."""
    np.maximum(x, _TINY, out=buf)
    return np.multiply(x, np.log(buf, out=buf), out=out)


def _xlogx_table(top: int) -> np.ndarray:
    """xlogy(m, m) for the integers m < (top + 1)^2: every pair count, and
    every 0/1 block sum, of groups of at most top nodes."""
    m = np.arange((top + 1) ** 2, dtype=np.float64)
    return xlogy(m, m)


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
    return BlockStats.from_sums(_group_sums(a.a, z0, z.k), pc)  # exact integer sums


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


def _gather(stack: np.ndarray, slots, index: np.ndarray) -> np.ndarray:
    """stack[slots, index], one value per index, at an int slot or at one
    slot per index.  An int slot gathers through its view: numpy's fast path
    serves one integer-array index, not a mixed (int, array) one, which is
    several times slower."""
    return stack[slots][index] if isinstance(slots, int) else stack[slots, index]


def _fixed_point_bits(n: int) -> int:
    """b = 52 - ceil(log2 n^2): 38 at n = 100, 34 at n = 400."""
    return 52 - (n * n - 1).bit_length()


def _fixed_point(p: np.ndarray) -> np.ndarray:
    """n x n weights p in [0, 1] rounded to multiples of 2^-b, b =
    _fixed_point_bits(n), a step of 5.8e-11 at n = 400: all of them sum to
    at most 2^(52 - b), so every sum of them is exact in any order."""
    b = _fixed_point_bits(p.shape[0])
    return np.ldexp(np.rint(np.ldexp(p, b)), -b)


class _Stacks:
    """The arrays of the search states of one search over the weights w,
    stacked along a leading slot axis: each _ProfileState views one slot.
    Block and neighbour sums have w's dtype, pair counts intp."""

    def __init__(self, w: np.ndarray, slots: int, k: int):
        n = w.shape[0]
        self.z = np.empty((slots, n), np.int64)
        self.h = np.empty((slots, k), np.int64)
        self.e = np.empty((slots, k, k), w.dtype)
        self.nbr = np.empty((slots, n, k), w.dtype)
        self.t = np.empty((slots, k, k))
        self.row_sums = np.empty((slots, k))
        self.pieces = np.empty((slots, 4, k, k), np.intp)  # [pairs, leave, join, fix]
        self.mask = np.empty((slots, k, k))


class _ProfileState:
    """Mutable search state maximizing the block-pair term sum over labelings.

    The weights w are symmetric, with zero diagonal and entries in [0, 1]:
    0/1 adjacency (intp) gives the profile log-likelihood, fixed-point
    probabilities (float64, _fixed_point) the (negated, shifted) oracle
    divergence objective.  So every block sum, neighbour sum and pair count
    is exact in any order of summation, BLAS products included.

    A move between groups a and b changes only rows and columns a and b of
    the block sums e, the pair counts and the terms t.  A builder per move
    (relabel_rows, swap_rows) stacks its candidate rows, one scorer (score)
    prices them, and one writer (write) makes the chosen candidate's rows
    and their scored terms the state's and applies the move.  Stacks go
    into the _Workspace work, which a caller may share between states (see
    _BATCH_CELLS).  The state's arrays are views of its slot of a _Stacks,
    which the states of one search share; the builders and the scorer read
    them at an int slot (one state's window, or a swap), whose rows are
    views, not gathers, or at one slot per row.

    What only a move changes is cached, and write refreshes it: the row
    sums of t (every move); the size pieces and the move mask, which keeps
    group sizes in [h_min, h_max], with pinned, whether some group sits at
    h_min (every relabel; a swap keeps h); and each node's weight into each
    group, nbr (every move).  The sums being exact, each cache holds the
    bits a window would compute from the current state, so scores do not
    depend on what is cached; verify checks each against a recomputation.
    """

    def __init__(self, w: np.ndarray, z0: np.ndarray, k: int, xlx: np.ndarray,
                 work: _Workspace, h_min: int, h_max: int, stacks: _Stacks | None = None,
                 slot: int = 0):
        self.w = w
        self.n = w.shape[0]
        self.k = k
        self.xlx = xlx
        self.work = work
        self.slot = slot
        self.stacks = _Stacks(w, 1, k) if stacks is None else stacks
        for name in ("z", "h", "e", "nbr", "t", "row_sums", "pieces", "mask"):
            setattr(self, name, getattr(self.stacks, name)[slot])
        self.z[...] = z0
        self.h[...] = np.bincount(z0, minlength=k)
        self.h_min, self.h_max = h_min, h_max  # the move mask's size bounds
        self._within = np.arange(self.n + 2) * np.arange(-1, self.n + 1) // 2  # x (x - 1) / 2
        # _refresh_sizes' row and column factors and the pieces' diagonals
        self._factors = np.empty((2, 4, k), np.int64)
        self._diagonals = self.pieces.reshape(4, k * k)[:3, :: k + 1]
        self._refresh_sizes()
        onehot = np.eye(k)[z0]
        self.nbr[...] = w @ onehot
        # a pair within a group is counted twice; halving is exact
        self.e[...] = onehot.T @ self.nbr / (1 + np.eye(k))
        self._terms(self.e, self.pieces[0], self.t)
        self.t.sum(axis=1, out=self.row_sums)
        self.total = _total_from_terms(self.t)

    def _refresh_sizes(self, mask: bool = True) -> None:
        """Rebuild the size pieces and, if mask, the move mask from h.

        With rows, cols = _PIECE_SHIFTS, piece p holds (h[x] + rows[p]) *
        (h[y] + cols[p]) at (x, y), and f (f - 1) / 2 for the row factor f
        on the diagonal of all but the fix: the current pair counts (swap
        stacks); leave[a], the pair counts of group a's row after a node
        leaves it; join[b], those of group b's row after a node joins it;
        and fix[a, b], the cross cell (b, a) of that join row when the node
        comes from a.  The mask is -inf where a relabel from group a to b
        (row a, column b) stays put or breaks the bounds, else 0.
        """
        h, k, counts = self.h, self.k, self.pieces
        rows, cols = np.add(h, _PIECE_SHIFTS, out=self._factors)
        np.multiply(rows[:, :, None], cols[:, None, :], out=counts)
        self._within.take(rows[:3], out=self._diagonals)
        if mask:
            self.pinned = not _can_relabel(h, self.h_min).all()
            # a bool index takes _EXCLUDED[0] or [1]
            np.add.outer(_EXCLUDED.take(h <= self.h_min), _EXCLUDED.take(h >= self.h_max),
                         out=self.mask)
            self.mask.reshape(k * k)[:: k + 1] = -np.inf

    def _terms(self, s: np.ndarray, pc: np.ndarray, out: np.ndarray) -> np.ndarray:
        """_terms of block sums s and pair counts pc (intp), written into
        out.  pc log pc comes from the table xlx (_xlogx_table), and so do
        the other two terms of 0/1 sums (intp), with _terms' bits.
        Fixed-point sums take theirs from _xlogx: numpy's log, about four
        times faster than xlogy, may differ from it in the last bit, and by
        CPU.  Every s a search stacks lies in [0, pc], so none is clipped."""
        tmp = self.work("tmp", s.shape)
        xlx = self.xlx
        if s.dtype.kind == "i":
            # mode="clip" writes into out directly (the default mode buffers
            # it); every index is in range, so the values are the same.
            t = xlx.take(s, out=out, mode="clip")
            d = np.subtract(pc, s, out=self.work("gaps", s.shape, np.intp))
            t += xlx.take(d, out=tmp, mode="clip")
        else:
            logs = self.work("logs", s.shape)
            t = _xlogx(s, logs, out)
            t += _xlogx(np.subtract(pc, s, out=tmp), logs, tmp)
        t -= xlx.take(pc, out=tmp, mode="clip")
        return t

    def relabel_rows(self, a: np.ndarray, cnt: np.ndarray, slots) -> tuple:
        """Stack (s, pc) for moving each node, with neighbour weights cnt,
        out of its group a: row 0 is group a after the node leaves and row
        1 + b group b after it joins (meaningless for b = a).  Row 0's cell b
        still counts the node in a; write fixes it.  Rows do not depend on
        the rest of the stack.  The nodes belong to the state of slot slots
        or, node r, of slot slots[r]."""
        k, m, stacks = self.k, a.size, self.stacks
        r = np.arange(m)
        s = self.work("sums", (m, k + 1, k), stacks.e.dtype)
        np.subtract(stacks.e[slots, a], cnt, out=s[:, 0])
        np.add(stacks.e[slots], cnt[:, None, :], out=s[:, 1:])
        s[r, 1:, a] -= cnt
        pc = self.work("counts", (m, k + 1, k), stacks.pieces.dtype)
        pc[:, 1:] = stacks.pieces[slots, 2]
        pc[:, 0] = stacks.pieces[slots, 1, a]
        pc[r, 1:, a] = stacks.pieces[slots, 3, a]
        return s, pc

    def swap_rows(self, ii: np.ndarray, jj: np.ndarray) -> tuple:
        """Stack (s, pc) for exchanging the labels of each pair
        i = ii[p] (group a) and j = jj[p] (group b != a): row 0 is group a's
        row after the swap, e[a] + d, and row 1 group b's, e[b] - d, where d
        is the weight j brings to a row minus the weight i takes from it.
        Both rows hold the new cross cell (a, b); pair counts do not change.
        The stacks go into the same work buffers as a relabel window's.
        """
        r = np.arange(ii.size)
        a, b = self.z[ii], self.z[jj]
        ci, cj = np.split(self.nbr[np.concatenate([ii, jj])], 2)
        wij = self.w[ii, jj]
        cj[r, a] -= wij
        ci[r, b] -= wij
        d = np.subtract(cj, ci, out=cj)
        ab = np.array([a, b]).T
        shape = (ii.size, 2, self.k)
        s = self.e.take(ab, axis=0, out=self.work("sums", shape, self.e.dtype), mode="clip")
        s[:, 0] += d
        s[:, 1] -= d
        s[r, 0, b] = s[r, 1, a] = self.e[a, b] - d[r, a] + d[r, b]
        pc = self.pieces[0].take(ab, axis=0, out=self.work("counts", shape, self.pieces.dtype),
                                 mode="clip")
        return s, pc

    def score(self, s: np.ndarray, pc: np.ndarray, slots, a: np.ndarray, b=None) -> np.ndarray:
        """Objective change of each candidate of a stack.

        The change is (sum row 0 - row 0[b]) + sum row b - (old row sums of a
        and b) + t[a, b]: the (a, b) cross term sits in both rows, so only
        row b's copy counts.  b holds each stack's one group b (a swap); with
        b None, candidate c joins group c (a relabel window), and row 0[b] is
        row 0 itself, not a gather.  Old rows are read from the stacks at
        slots, as relabel_rows reads them (a swap passes its state's slot).
        Returns deltas of shape (N, m - 1) and the stack's terms, whose
        chosen rows write takes.
        """
        terms = self._terms(s, pc, self.work("terms", s.shape))
        sums = terms.sum(axis=2)
        t, row_sums = self.stacks.t, self.stacks.row_sums
        if b is None:
            at_b, sums_b, t_ab = terms[:, 0], row_sums[slots], t[slots, a]
        else:
            r = np.arange(a.size)
            at_b = terms[r, 0, b, None]
            sums_b, t_ab = _gather(row_sums, slots, b)[:, None], t[slots, a, b, None]
        sums_a = _gather(row_sums, slots, a)[:, None]
        deltas = (sums[:, :1] - at_b) + sums[:, 1:] - sums_a - sums_b + t_ab
        return deltas, terms

    def write(self, i: int, b: int, s: np.ndarray, terms: np.ndarray, delta: float,
              j: int | None = None) -> None:
        """Apply a chosen move: node i leaves its group a for group b and,
        for a swap, node j leaves b for a.  The candidate's rows s[0], s[1],
        with their scored terms terms[0], terms[1], become rows a and b (s
        and terms are overwritten), its delta is added to the total, and the
        caches follow."""
        a = self.z[i]
        # Columns are written after rows, so row 0's cell b lands at (b, a):
        # make it the cross cell that row b holds and score counted.
        s[0, b], terms[0, b] = s[1, a], terms[1, a]
        e, t = self.e, self.t
        e[a], e[b] = s
        e[:, a], e[:, b] = s
        t[a], t[b] = terms
        t[:, a], t[:, b] = terms
        t.sum(axis=1, out=self.row_sums)
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
        self.nbr[:, a] -= moved
        self.nbr[:, b] += moved

    def verify(self) -> None:
        fresh = _ProfileState(self.w, self.z, self.k, self.xlx, self.work, self.h_min, self.h_max)
        scale = max(1.0, abs(fresh.total))
        if abs(fresh.total - self.total) > _VERIFY_RTOL * scale:
            raise InternalError(
                f"incremental objective {self.total!r} drifted from "
                f"recomputed {fresh.total!r}"
            )
        exact = np.array_equal
        checks = {
            "group sizes": exact(fresh.h, self.h),
            "block sums": exact(fresh.e, self.e),
            "block terms": np.allclose(fresh.t, self.t, rtol=1e-10, atol=1e-8),
            "term row sums": exact(self.t.sum(axis=1), self.row_sums),
            "neighbour counts": exact(fresh.nbr, self.nbr),
            "size pieces": exact(fresh.pieces, self.pieces),
            "move mask": exact(fresh.mask, self.mask) and fresh.pinned == self.pinned,
        }
        for name, ok in checks.items():
            if not ok:
                raise InternalError(f"incremental {name} drifted from recomputation")


def _contiguous_labels(order: np.ndarray, sizes) -> np.ndarray:
    z0 = np.empty(order.size, dtype=np.int64)
    z0[order] = np.repeat(np.arange(len(sizes)), sizes)
    return z0


def _lockstep(searches: list, cap: int, take_first, width: int = 1) -> list:
    """Run the first-improvement scans of several searches in lockstep.

    A search is a generator.  It yields the move count of each scan it
    wants run and is sent whether that scan took a move, or it yields None
    to wait until every earlier search has returned.  A scan takes every
    move that improves, in order.  Each round takes one window (lo, hi) from
    every running scan, together at most cap moves wide: take_first(windows),
    with windows a list of (search, lo, hi), scores each window against its
    search's current state, applies its first improving move and returns
    that move's index, or -1, per window.  Resuming right after it takes
    exactly the moves of a one-at-a-time scan.  A scan's window doubles
    after a window with no taker and halves after a taker; a search's first
    scan opens at the given width and each later one at the width its
    previous scan ended with.  A window scores every candidate past its
    taker, so scans that take moves often open at width 1, and scans that
    seldom take one (swap sweeps) at the cap, which scores the same moves
    in fewer rounds.  Returns what each search returns.

    A search sent True yields, as its next scan, a rescan of the same moves
    and changes nothing between: its state is the one the last scan's last
    take left.  The moves after that take were scored against that state,
    and none improved, so the rescan stops right after the last take unless
    it takes a move before then, in which case it runs to the end.  It
    takes the moves a full rescan would take, and tells its search the same.
    """
    out = [None] * len(searches)
    done = [False] * len(searches)
    # search -> [lo, width, end, count, last]: a scan runs to end, its move
    # count or, while a rescan has taken nothing, its bound; last is its last
    # take + 1, or 0
    scans = {}
    widths = [width] * len(searches)  # each search's width at its last scan's end
    waiting = []

    def resume(i: int, sent, bound: int = 0) -> None:
        while True:
            try:
                count = searches[i].send(sent)
            except StopIteration as stop:
                out[i], done[i] = stop.value, True
                return
            if count is None and not all(done[:i]):
                waiting.append(i)
                return
            if count:
                scans[i] = [0, widths[i], bound or count, count, 0]
                return
            sent, bound = None if count is None else False, 0

    for i in range(len(searches)):
        resume(i, None)
    while scans:
        share = cap // len(scans) or 1
        windows = [(i, lo, min(lo + min(width, share), end))
                   for i, (lo, width, end, _, _) in scans.items()]
        for (i, _, hi), hit in zip(windows, take_first(windows)):
            scan = scans[i]
            if hit < 0:
                scan[0], scan[1] = hi, min(2 * scan[1], share)
            else:  # the state moved on, so the scan runs to its end
                scan[0], scan[1], scan[2] = hit + 1, max(1, scan[1] // 2), scan[3]
                scan[4] = hit + 1
            if scan[0] >= scan[2]:
                del scans[i]
                widths[i] = scan[1]
                resume(i, scan[4] > 0, scan[4])
        for i in sorted(waiting) if waiting else ():
            if all(done[:i]):
                waiting.remove(i)
                resume(i, None)
    return out


def _first_improvement(count: int, cap: int, take_first, width: int = 1,
                       repeat: bool = False) -> bool:
    """Scan moves 0..count-1 in order, taking every one that improves, and
    with repeat rescan until a scan takes none: the one-search case of
    _lockstep, opening at the given width.  take_first(lo, hi) scores moves
    lo..hi-1 against the current state, applies the first improving one and
    returns its index, or returns -1.  Returns whether any move was taken.
    """

    def scans():
        taken = again = yield count
        while repeat and again:
            again = yield count
        return taken

    def take_one(windows):
        ((_, lo, hi),) = windows
        return (take_first(lo, hi),)

    return _lockstep([scans()], cap, take_one, width)[0]


def _search(state: _ProfileState, rng: np.random.Generator):
    """One start's greedy ascent with relabel and swap moves, as a _lockstep
    search: it yields its relabel scans, runs each swap sweep itself as one
    scan, and returns its accepted swap count.  Relabel moves are cheap, so
    they run to a fixed point; a swap sweep, the escape from size-constrained
    configurations, runs only once a relabel scan takes nothing."""
    n, k = state.n, state.k
    # Window cap from the cells one candidate stacks: a swap's two rows of k.
    swap_cap = max(1, _BATCH_CELLS // (2 * k))
    swaps = 0

    def swap_sweep() -> bool:
        if n <= _ALL_PAIRS_MAX_N:
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
            s, pc = state.swap_rows(ii, jj)
            deltas, terms = state.score(s, pc, state.slot, state.z[ii], state.z[jj])
            hits = np.flatnonzero(deltas[:, 0] > _SEARCH_TOL)
            if hits.size == 0:
                return -1
            t = hits[0]
            j = jj[t]
            state.write(ii[t], state.z[j], s[t], terms[t], float(deltas[t, 0]), j)
            swaps += 1
            return lo + live[t]

        return _first_improvement(len(pairs), swap_cap, take_swap, width=swap_cap)

    for _ in range(_MAX_SWEEPS):
        if (yield n):
            continue
        if n > _ALL_PAIRS_MAX_N:
            yield None  # its pair draws follow every earlier start's
        if not swap_sweep():
            break
    return swaps


def _can_relabel(sizes: np.ndarray, h_min: int) -> np.ndarray:
    """Whether a node in a group of each size may relabel: in a group at
    h_min it may not, since its whole move-mask row is -inf."""
    return sizes > h_min


def _local_searches(states: list, rng: np.random.Generator) -> list:
    """Greedy ascents of states, slots of one _Stacks with one set of size
    bounds, in lockstep; returns each one's accepted swap count.

    Each round scores one relabel window of every start still relabelling in
    one stack (cap cells in all) and applies each window's first improving
    move.  A start's relabels never draw random numbers, and a swap sweep
    that draws its pairs (n > _ALL_PAIRS_MAX_N) waits until every earlier
    start has finished, so every start's moves, swap draws and result are
    those of searching the starts one after another with one rng.
    """
    state = states[0]  # any state: all read the shared stacks
    n, k, stacks = state.n, state.k, state.stacks
    # Window cap from the cells one candidate stacks: a relabel's k + 1 rows
    # of k (or its neighbour row).
    cap = max(1, _BATCH_CELLS // max(k * k, 2 * n))
    index = np.array(np.meshgrid([st.slot for st in states], np.arange(n), indexing="ij"))

    def take_relabels(windows: list) -> list:
        if len(windows) == 1:  # an int slot: its rows are views, not gathers
            (i, lo, hi), = windows
            slots, nodes = states[i].slot, np.arange(lo, hi)
        else:
            slots, nodes = np.concatenate([index[:, i, lo:hi] for i, lo, hi in windows], axis=1)
        a = _gather(stacks.z, slots, nodes)
        # Rows of nodes that cannot relabel are not built; ends, the end of
        # each window's rows, then counts only the rows kept.
        ends = itertools.accumulate(hi - lo for _, lo, hi in windows)
        if any(states[i].pinned for i, _, _ in windows):
            keep = np.flatnonzero(_can_relabel(_gather(stacks.h, slots, a), state.h_min))
            if keep.size == 0:
                return [-1] * len(windows)
            nodes, a = nodes[keep], a[keep]
            slots = slots if np.isscalar(slots) else slots[keep]
            ends = np.searchsorted(keep, list(ends))
        s, pc = state.relabel_rows(a, stacks.nbr[slots, nodes], slots)
        deltas, terms = state.score(s, pc, slots, a)
        deltas += stacks.mask[slots, a]
        hits = np.flatnonzero(deltas.max(axis=1) > _SEARCH_TOL).tolist()
        taken, start = [], 0
        for (i, _, _), end in zip(windows, ends):
            first = bisect.bisect_left(hits, start)
            if first < len(hits) and hits[first] < end:  # the window's first hit
                t = hits[first]
                node, b = int(nodes[t]), int(deltas[t].argmax())
                rows = [0, 1 + b]
                states[i].write(node, b, s[t, rows], terms[t, rows], float(deltas[t, b]))
                taken.append(node)
            else:
                taken.append(-1)
            start = end
        return taken

    return _lockstep([_search(st, rng) for st in states], cap, take_relabels)


def _maximize_profile(
    w: np.ndarray,
    k: int,
    h_min: int,
    h_max: int,
    restarts: int,
    seed: int,
    extra_inits: list | None = None,
):
    """Multi-restart local search over 0/1 or fixed-point weights (see
    _ProfileState); returns (z0, total, swaps, ties, searches run).  The
    starts run in lockstep (_local_searches); each is verified once all have
    finished, and the best is picked in start order."""
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
    # a group grows only up to h_max, but a given start may begin above it
    xlx = _xlogx_table(max([min(h_max, n)] + [np.bincount(z0).max() for z0 in inits]))

    best_total = -np.inf
    best_canon = None
    best_swaps = 0
    ties = False
    work = _Workspace()
    stacks = _Stacks(w, len(inits), k)
    states = [_ProfileState(w, z0, k, xlx, work, h_min, h_max, stacks, slot)
              for slot, z0 in enumerate(inits)]
    for state, swaps in zip(states, _local_searches(states, rng)):
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
            _terms(_group_sums(w, z0, k), _pair_counts(np.bincount(z0, minlength=k)))
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
        for key in ("block_averages", "rho_hat"):
            values = np.asarray(obj[key], dtype=np.float64)
            if not np.all((values >= 0.0) & (values <= 1.0)):  # NaN fails both
                raise ConfigError(f"fit key {key!r} must hold finite values in [0, 1]")
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
    # intp, not uint8: degrees and the writer's w[i] - w[j] would wrap
    z0, total, swaps, ties, searches = _maximize_profile(
        a.a.astype(np.intp), k, h_min, h_max, restarts, seed
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
    sums = _group_sums(p.p, z.z - 1, z.k)
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

    Uses mple_search's engine with the fixed-point probabilities
    (_fixed_point) as weights; the two objectives differ by a z-independent
    constant.  The divergence reported is that of p itself.
    """
    h_max = p.n if h_max is None else h_max
    z0, _, _, ties, restarts_used = _maximize_profile(
        _fixed_point(p.p), k, h_min, h_max, restarts, seed, extra_inits=extra_inits
    )
    assignment = CommunityAssignment(z=z0 + 1, k=k)
    return OracleFit(
        assignment=assignment,
        divergence=oracle_divergence(p, assignment),
        ties=ties,
        restarts_used=restarts_used,
    )
