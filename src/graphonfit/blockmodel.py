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
(Kernighan-Lin style), multi-restart, with exact incremental updates of the
block edge sums verified against a from-scratch recomputation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import xlogy

from .errors import (
    BudgetError,
    ConfigError,
    DomainError,
    InternalError,
    SaturatedBlockError,
)
from .graphons import Partition
from .sampling import AdjacencyMatrix, EdgeProbabilityMatrix, edge_density, make_rng

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
        mapping = {}
        out = np.empty(self.n, dtype=np.int64)
        for i, label in enumerate(self.z):
            out[i] = mapping.setdefault(int(label), len(mapping) + 1)
        return CommunityAssignment(z=out, k=self.k)

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


def _terms(s: np.ndarray, pc: np.ndarray) -> np.ndarray:
    s = np.clip(s, 0.0, pc)
    return xlogy(s, s) + xlogy(pc - s, pc - s) - xlogy(pc, pc)


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
    sums = np.rint(sums)  # exact integers for binary adjacency
    avg = sums / pc
    sat = (sums == 0.0) | (sums == pc)
    return BlockStats(pair_counts=pc, edge_sums=sums, averages=avg, saturated=sat)


def bernoulli_kl(p: float, q: float) -> float:
    """KL divergence of Bernoulli(p) from Bernoulli(q), natural log."""
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"p={p} outside [0,1]")
    if not (0.0 < q < 1.0):
        raise SaturatedBlockError(f"divergence from Bernoulli(q={q}) is infinite")
    return float(xlogy(p, p / q) + xlogy(1.0 - p, (1.0 - p) / (1.0 - q)))


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
    the (negated, shifted) oracle divergence objective.
    """

    def __init__(self, w: np.ndarray, z0: np.ndarray, k: int):
        self.w = w
        self.n = w.shape[0]
        self.k = k
        self.z = z0.copy()
        self.h = np.bincount(z0, minlength=k).astype(np.int64)
        self.e = _block_weight_sums(w, z0, k)
        self._rebuild_terms()

    def _rebuild_terms(self) -> None:
        pc = _pair_counts(self.h)
        self.t = _terms(self.e, pc)
        self.total = _total_from_terms(self.t)

    def neighbor_weights(self, i: int) -> np.ndarray:
        """Weight of node i into each current group."""
        return np.bincount(self.z, weights=self.w[i], minlength=self.k)

    def relabel_delta(self, i: int, b: int, cnt: np.ndarray) -> float:
        """Objective change from moving node i into group b (not applied)."""
        a = self.z[i]
        h = self.h
        ea = self.e[a] - cnt
        ea[a] = self.e[a, a] - cnt[a]
        ea[b] = self.e[a, b] + cnt[a] - cnt[b]
        eb = self.e[b] + cnt
        eb[b] = self.e[b, b] + cnt[b]
        eb[a] = ea[b]

        hn = h.astype(np.float64)
        ha, hb = h[a] - 1.0, h[b] + 1.0
        pca = ha * hn
        pca[a] = ha * (ha - 1.0) / 2.0
        pca[b] = ha * hb
        pcb = hb * hn
        pcb[b] = hb * (hb - 1.0) / 2.0
        pcb[a] = ha * hb

        ta = _terms(ea, pca)
        tb = _terms(eb, pcb)
        new = ta.sum() + tb.sum() - ta[b]
        old = self.t[a].sum() + self.t[b].sum() - self.t[a, b]
        return float(new - old)

    def relabel_deltas_all(self, i: int) -> tuple:
        """Objective changes for moving node i into every group at once.

        Returns (cnt, deltas) where deltas[b] is the change for target b; the
        entry for the current group is 0 and must be masked by the caller.
        The (a,b) cross term appears identically in both affected rows, so it
        cancels from the delta and only row sums remain.
        """
        a = self.z[i]
        cnt = self.neighbor_weights(i)
        h = self.h.astype(np.float64)
        e, t = self.e, self.t

        ea0 = e[a] - cnt
        ea0[a] = e[a, a] - cnt[a]
        ha = h[a] - 1.0
        pca0 = ha * h
        pca0[a] = ha * (ha - 1.0) / 2.0
        ta0 = _terms(ea0, pca0)

        eb = e + cnt[None, :]
        eb[:, a] -= cnt
        hb = h + 1.0
        pcb = hb[:, None] * h[None, :]
        np.fill_diagonal(pcb, hb * h / 2.0)
        pcb[:, a] = hb * ha
        tb_sum = _terms(eb, pcb).sum(axis=1)

        row_sums = t.sum(axis=1)
        deltas = (ta0.sum() - ta0) + tb_sum - row_sums[a] - row_sums + t[a]
        deltas[a] = 0.0
        return cnt, deltas

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
        for g in (a, b):
            hg = float(self.h[g])
            pcg = hg * self.h.astype(np.float64)
            pcg[g] = hg * (hg - 1.0) / 2.0
            row = _terms(e[g], pcg)
            self.t[g, :] = row
            self.t[:, g] = row
        self.total += delta

    def verify(self, rel_tol: float = 1e-8) -> None:
        fresh = _ProfileState(self.w, self.z, self.k)
        scale = max(1.0, abs(fresh.total))
        if abs(fresh.total - self.total) > rel_tol * scale:
            raise InternalError(
                f"incremental objective {self.total!r} drifted from "
                f"recomputed {fresh.total!r}"
            )
        if not np.allclose(fresh.e, self.e, rtol=0, atol=1e-6):
            raise InternalError("incremental block sums drifted from recomputation")


def _balanced_sizes(n: int, k: int) -> np.ndarray:
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[: n % k] += 1
    return sizes


def _contiguous_labels(order: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    z0 = np.empty(order.size, dtype=np.int64)
    start = 0
    for g, s in enumerate(sizes):
        z0[order[start : start + s]] = g
        start += s
    return z0


def _local_search(
    state: _ProfileState,
    h_min: int,
    h_max: int,
    rng: np.random.Generator,
    max_sweeps: int = 200,
    tol: float = 1e-10,
) -> int:
    """Greedy ascent with relabel and swap moves; returns accepted swap count."""
    n, k = state.n, state.k
    swaps = 0

    def relabel_sweep() -> bool:
        any_accepted = False
        for i in range(n):
            a = state.z[i]
            if state.h[a] - 1 < h_min:
                continue
            cnt, deltas = state.relabel_deltas_all(i)
            deltas[a] = -np.inf
            deltas[state.h + 1 > h_max] = -np.inf
            b = int(np.argmax(deltas))
            if deltas[b] > tol:
                state.apply_relabel(i, b, cnt, float(deltas[b]))
                any_accepted = True
        return any_accepted

    def swap_sweep() -> bool:
        nonlocal swaps
        any_accepted = False
        if n <= 80:
            iu, ju = np.triu_indices(n, k=1)
            pairs = np.column_stack([iu, ju])
        else:
            pairs = rng.integers(0, n, size=(4 * n, 2))
        for i, j in pairs:
            i, j = int(i), int(j)
            a, b = state.z[i], state.z[j]
            if a == b:
                continue
            # Trial-apply the first half of the swap, then either keep the
            # pair or roll back; both paths preserve exact block sums.
            cnt_i = state.neighbor_weights(i)
            d1 = state.relabel_delta(i, b, cnt_i)
            state.apply_relabel(i, b, cnt_i, d1)
            cnt_j = state.neighbor_weights(j)
            d2 = state.relabel_delta(j, a, cnt_j)
            if d1 + d2 > tol:
                state.apply_relabel(j, a, cnt_j, d2)
                swaps += 1
                any_accepted = True
            else:
                cnt_i = state.neighbor_weights(i)
                d_back = state.relabel_delta(i, a, cnt_i)
                state.apply_relabel(i, a, cnt_i, d_back)
        return any_accepted

    # Relabel moves are cheap, so iterate them to a fixed point; swap sweeps
    # are the escape hatch for size-constrained configurations and only run
    # once relabeling is stuck.
    for _ in range(max_sweeps):
        if relabel_sweep():
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
):
    """Multi-restart local search; returns (z0, total, swaps, ties, searches run)."""
    n = w.shape[0]
    _check_constraints(n, k, h_min, h_max)
    if restarts < 1:
        raise ConfigError(f"restarts={restarts} must be >= 1")
    rng = make_rng(seed, _SEARCH_STREAM)
    sizes = _balanced_sizes(n, k)
    degrees = w.sum(axis=1)

    inits = []
    order = np.argsort(-degrees, kind="stable")
    inits.append(_contiguous_labels(order, sizes))
    for z0 in extra_inits or []:
        inits.append(np.asarray(z0, dtype=np.int64))
    while len(inits) < restarts:
        inits.append(_contiguous_labels(rng.permutation(n), sizes))

    best_total = -np.inf
    best_z = None
    best_canon = None
    best_swaps = 0
    ties = False
    for z0 in inits:
        state = _ProfileState(w, z0, k)
        swaps = _local_search(state, h_min, h_max, rng)
        state.verify()
        canon = _canonical_labels(state.z)
        if state.total > best_total + _TIE_TOL:
            best_total, best_z, best_canon, best_swaps = state.total, state.z, canon, swaps
            ties = False
        elif state.total > best_total - _TIE_TOL:
            if not np.array_equal(canon, best_canon):
                ties = True
                if tuple(canon) < tuple(best_canon):
                    best_z, best_canon, best_swaps = state.z, canon, swaps
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


@dataclass(frozen=True)
class FitResult:
    """Fitted assignment with block statistics and search metadata."""

    assignment: CommunityAssignment
    stats: BlockStats
    profile_loglik: float
    rho_hat: float
    restarts_used: int
    swap_count: int
    ties: bool
    seed: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "assignment": self.assignment.z.tolist(),
                "k": self.assignment.k,
                "block_averages": self.stats.averages.tolist(),
                "saturated": self.stats.saturated.tolist(),
                "profile_loglik": self.profile_loglik,
                "rho_hat": self.rho_hat,
                "restarts_used": self.restarts_used,
                "swap_count": self.swap_count,
                "ties": self.ties,
                "seed": self.seed,
            }
        )


@dataclass(frozen=True)
class OracleFit:
    """Divergence-minimizing assignment for known edge probabilities."""

    assignment: CommunityAssignment
    divergence: float
    ties: bool
    restarts_used: int


def _finish_fit(
    a: AdjacencyMatrix, z0: np.ndarray, k: int, total: float,
    restarts: int, swaps: int, ties: bool, seed: int,
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
    z0, total, swaps, ties, searches = _maximize_profile(w, k, h_min, h_max, restarts, seed)
    return _finish_fit(a, z0, k, total, searches, swaps, ties, seed)


def mple_exhaustive(
    a: AdjacencyMatrix, k: int, h_min: int = 2, h_max: int | None = None
) -> FitResult:
    """Exact profile-likelihood maximizer by enumeration (budget-limited)."""
    h_max = a.n if h_max is None else h_max
    w = a.a.astype(np.float64)
    z0, total, count, ties = _exhaustive_profile(w, k, h_min, h_max)
    return _finish_fit(a, z0, k, total, restarts=count, swaps=0, ties=ties, seed=0)


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
    pe, qe = p.p[iu], theta[iu]
    d = (
        xlogy(pe, pe) + xlogy(1.0 - pe, 1.0 - pe)
        - xlogy(pe, qe) - xlogy(1.0 - pe, 1.0 - qe)
    )
    return float(d.sum())


def oracle_mple(
    p: EdgeProbabilityMatrix,
    k: int,
    h_min: int = 2,
    h_max: int | None = None,
    restarts: int = 5,
    seed: int = 0,
    exhaustive: bool = False,
    extra_inits: list | None = None,
) -> OracleFit:
    """Assignment minimizing the divergence of p from its block averages.

    Uses the same search engine as mple_search with the probabilities as
    weights; the two objectives differ by a z-independent constant.
    """
    h_max = p.n if h_max is None else h_max
    if exhaustive:
        z0, _, count, ties = _exhaustive_profile(p.p, k, h_min, h_max)
        restarts_used = count
    else:
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
