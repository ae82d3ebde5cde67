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
(Kernighan-Lin style), multi-restart.  One batched kernel scores a window of
relabels, or of swaps in closed form (no trial and rollback), from cached
block sums; each sweep takes the first improving move in scan order.  0/1
weights read their terms from an x*log(x) table.  The incremental state is
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
    by the next request for the same name; no kernel returns such a view.
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


def _terms(s: np.ndarray, pc: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """s log s + (pc - s) log(pc - s) - pc log pc with s clipped to [0, pc].
    out (which may be s) and tmp, arrays of s's shape, take the result and
    the one intermediate, so that the call allocates nothing."""
    s = np.clip(s, 0.0, pc, out=out)
    d = np.subtract(pc, s, out=tmp)
    t = xlogy(s, s, out=s)
    t += xlogy(d, d, out=d)
    t -= xlogy(pc, pc, out=d)
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


class _ProfileState:
    """Mutable search state maximizing the block-pair term sum over labelings.

    Works for any symmetric nonnegative weight matrix with zero diagonal:
    binary adjacency gives the profile log-likelihood, true probabilities give
    the (negated, shifted) oracle divergence objective.  For integer weights
    an x*log(x) table xlx gives the same terms by lookup.

    A relabel window's (B, k+1, k) stacks and (B, n) neighbour rows go into
    the state's own _Workspace, not fresh arrays (see _BATCH_CELLS for why).
    It grows to the largest window served, so verify()'s fresh state
    allocates none.
    """

    def __init__(self, w: np.ndarray, z0: np.ndarray, k: int, xlx: np.ndarray | None = None):
        self.w = w
        self.n = w.shape[0]
        self.k = k
        self.xlx = xlx
        self.z = z0.copy()
        self.h = np.bincount(z0, minlength=k).astype(np.int64)
        self.e = _block_weight_sums(w, z0, k)
        self.t = self._terms(self.e, _pair_counts(self.h))
        self.total = _total_from_terms(self.t)
        self.work = _Workspace()

    def _terms(self, s: np.ndarray, pc: np.ndarray, scratch: bool = False) -> np.ndarray:
        """The terms of _terms.  With scratch, s and pc are the caller's to
        overwrite: the terms go over s and the rest into the workspace."""
        if self.xlx is None:
            if scratch:
                return _terms(s, pc, out=s, tmp=self.work("tmp", s.shape))
            return _terms(s, pc)
        # Integer s and pc: the same values as _terms, clip included.
        if scratch:
            both = self.work("indices", (2, *s.shape), np.intp)
            pci, si = both[0], both[1]
            pci[...] = pc  # an unsafe cast, as astype's
            si[...] = s
            out, tmp = s, pc
        else:
            pci, si, out, tmp = pc.astype(np.intp), s.astype(np.intp), None, None
        np.minimum(si, pci, out=si)
        np.maximum(si, 0, out=si)
        # mode="clip" writes into out directly (the default mode buffers it);
        # every index is in range, so the values are the same.
        xlx = self.xlx
        t = xlx.take(si, out=out, mode="clip")
        t += xlx.take(np.subtract(pci, si, out=si), out=tmp, mode="clip")
        t -= xlx.take(pci, out=tmp, mode="clip")
        return t

    def _neighbor_weights(self, nodes: np.ndarray) -> np.ndarray:
        """Weight of each node into each current group, shape (len(nodes), k)."""
        m = nodes.size
        rows = self.work("rows", (m, self.n), np.intp)
        np.add(np.arange(m)[:, None] * self.k, self.z, out=rows)
        wn = self.w.take(nodes, axis=0, out=self.work("wrows", (m, self.n)), mode="clip")
        return np.bincount(rows.ravel(), wn.ravel(), m * self.k).reshape(m, self.k)

    def relabel_deltas(self, nodes: np.ndarray) -> tuple:
        """Objective changes for moving each node into every group at once.

        Returns (cnt, deltas): deltas[r, b] is the change for moving nodes[r]
        into group b, 0 for its own group (the caller masks it).  The (a,b)
        cross term appears identically in both affected rows, so only row
        sums remain.  A row's value does not depend on the rest of the batch.
        """
        k = self.k
        r = np.arange(nodes.size)
        a = self.z[nodes]
        cnt = self._neighbor_weights(nodes)
        h = self.h.astype(np.float64)
        e, t = self.e, self.t
        # Rows 0..k-1 of each stack: group b after node i joins it; row k:
        # group a after i leaves.
        stacks = self.work("stacks", (2, nodes.size, k + 1, k))
        s, pc = stacks[0], stacks[1]
        np.add(e, cnt[:, None, :], out=s[:, :k])
        s[r, :k, a] -= cnt
        hb = h + 1.0
        pc[:, :k] = hb[:, None] * h
        pc[:, np.arange(k), np.arange(k)] = hb * h / 2.0
        ha = h[a] - 1.0
        pc[r, :k, a] = hb * ha[:, None]
        np.subtract(e[a], cnt, out=s[:, k])
        s[r, k, a] = e[a, a] - cnt[r, a]
        np.multiply(ha[:, None], h, out=pc[:, k])
        pc[r, k, a] = ha * (ha - 1.0) / 2.0

        terms = self._terms(s, pc, scratch=True)
        sums = terms.sum(axis=2)
        row_sums = t.sum(axis=1)
        deltas = (
            (sums[:, k, None] - terms[:, k]) + sums[:, :k]
            - row_sums[a][:, None] - row_sums + t[a]
        )
        deltas[r, a] = 0.0
        return cnt, deltas

    def swap_deltas(self, ii: np.ndarray, jj: np.ndarray) -> tuple:
        """Objective changes for exchanging the labels of each pair (ii[p], jj[p]).

        Needs a = z[i] != b = z[j].  Returns (d, deltas): after the swap, row a
        of e is e[a] + d[p], row b is e[b] - d[p] and cell (a,b) is
        e[a,b] - d[p,a] + d[p,b]; pair counts do not change.
        """
        r = np.arange(ii.size)
        a, b = self.z[ii], self.z[jj]
        ci, cj = np.split(self._neighbor_weights(np.concatenate([ii, jj])), 2)
        wij = self.w[ii, jj]
        cj[r, a] -= wij
        ci[r, b] -= wij
        d = cj - ci
        e, t = self.e, self.t
        cell = e[a, b] - d[r, a] + d[r, b]
        ea = e[a] + d
        ea[r, b] = cell
        eb = e[b] - d
        eb[r, a] = cell
        pc = _pair_counts(self.h)
        ta = self._terms(ea, pc[a])
        tb = self._terms(eb, pc[b])
        row_sums = t.sum(axis=1)
        new = ta.sum(axis=1) + tb.sum(axis=1) - ta[r, b]
        return d, new - (row_sums[a] + row_sums[b] - t[a, b])

    def _refresh_rows(self, a: int, b: int) -> None:
        g = np.array([a, b])
        h = self.h.astype(np.float64)
        pc = h[g, None] * h
        pc[[0, 1], g] = h[g] * (h[g] - 1.0) / 2.0
        rows = self._terms(self.e[g], pc)
        self.t[g, :] = rows
        self.t[:, g] = rows.T

    def apply_relabel(self, i: int, b: int, cnt: np.ndarray, delta: float) -> None:
        a = self.z[i]
        e = self.e
        # Row+column updates hit each diagonal twice; add back one copy so the
        # net change is E[a,a] -= cnt[a] and E[b,b] += cnt[b].
        e[a, :] -= cnt
        e[:, a] -= cnt
        e[a, a] += cnt[a]
        e[b, :] += cnt
        e[:, b] += cnt
        e[b, b] -= cnt[b]
        self.h[a] -= 1
        self.h[b] += 1
        self.z[i] = b
        self._refresh_rows(a, b)
        self.total += delta

    def apply_swap(self, i: int, j: int, d: np.ndarray, delta: float) -> None:
        """Exchange the labels of i and j, with d and delta from swap_deltas."""
        a, b = self.z[i], self.z[j]
        e = self.e
        ra = e[a] + d
        rb = e[b] - d
        ra[b] = rb[a] = e[a, b] - d[a] + d[b]
        e[a, :] = e[:, a] = ra
        e[b, :] = e[:, b] = rb
        self.z[i], self.z[j] = b, a
        self._refresh_rows(a, b)
        self.total += delta

    def verify(self, rel_tol: float = 1e-8) -> None:
        fresh = _ProfileState(self.w, self.z, self.k, self.xlx)
        scale = max(1.0, abs(fresh.total))
        if abs(fresh.total - self.total) > rel_tol * scale:
            raise InternalError(
                f"incremental objective {self.total!r} drifted from "
                f"recomputed {fresh.total!r}"
            )
        if not np.array_equal(fresh.h, self.h):
            raise InternalError("incremental group sizes drifted from recomputation")
        if not np.allclose(fresh.e, self.e, rtol=0, atol=1e-6):
            raise InternalError("incremental block sums drifted from recomputation")
        if not np.allclose(fresh.t, self.t, rtol=1e-10, atol=1e-8):
            raise InternalError("incremental block terms drifted from recomputation")


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


def _local_search(
    state: _ProfileState, h_min: int, h_max: int, rng: np.random.Generator,
    max_sweeps: int = 200, tol: float = 1e-10,
) -> int:
    """Greedy ascent with relabel and swap moves; returns accepted swap count."""
    n, k = state.n, state.k
    cap = max(1, _BATCH_CELLS // max(k * k, 2 * n))
    swaps = 0

    def take_relabel(lo: int, hi: int) -> int:
        r = np.arange(hi - lo)
        a = state.z[lo:hi]
        cnt, deltas = state.relabel_deltas(np.arange(lo, hi))
        deltas[r, a] = -np.inf
        deltas[:, state.h + 1 > h_max] = -np.inf
        deltas[state.h[a] - 1 < h_min] = -np.inf
        best = deltas.argmax(axis=1)
        gain = deltas[r, best]
        hits = np.flatnonzero(gain > tol)
        if hits.size == 0:
            return -1
        t = hits[0]
        state.apply_relabel(lo + t, int(best[t]), cnt[t], float(gain[t]))
        return lo + t

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
            d, deltas = state.swap_deltas(ii[live], jj[live])
            hits = np.flatnonzero(deltas > tol)
            if hits.size == 0:
                return -1
            t = hits[0]
            state.apply_swap(int(ii[live[t]]), int(jj[live[t]]), d[t], float(deltas[t]))
            swaps += 1
            return lo + live[t]

        return _first_improvement(len(pairs), cap, take_swap)

    # Relabel moves are cheap, so iterate them to a fixed point; swap sweeps
    # are the escape hatch for size-constrained configurations and only run
    # once relabeling is stuck.
    for _ in range(max_sweeps):
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
    for z0 in inits:
        state = _ProfileState(w, z0, k, xlx)
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


def oracle_divergence(p: EdgeProbabilityMatrix, z: CommunityAssignment) -> float:
    """Sum over i<j of D(p_ij || pbar_{z_i z_j}), natural log."""
    pbar = oracle_block_means(p, z)
    theta = pbar[z.z[:, None] - 1, z.z[None, :] - 1]
    iu = np.triu_indices(p.n, k=1)
    return float(_kl_terms(p.p[iu], theta[iu]).sum())


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
