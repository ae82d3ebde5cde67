import gc
import json
import math
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from graphonfit import (
    AdjacencyMatrix,
    BudgetError,
    CommunityAssignment,
    ConfigError,
    DomainError,
    EdgeProbabilityMatrix,
    FitResult,
    InternalError,
    SaturatedBlockError,
    bernoulli_kl,
    block_stats,
    blockmodel_log_likelihood,
    count_admissible_assignments,
    edge_probabilities,
    graphon_by_name,
    mple_exhaustive,
    mple_search,
    oracle_block_means,
    oracle_mple,
    per_edge_log_likelihood,
    profile_log_likelihood,
    sample_adjacency,
    sample_latents,
)
from graphonfit import blockmodel
from graphonfit.blockmodel import (
    _BATCH_CELLS,
    _ProfileState,
    _Workspace,
    _contiguous_labels,
    _enumerate_canonical,
    _exhaustive_profile,
    _finish_fit,
    _fixed_point,
    _fixed_point_bits,
    _local_searches,
    _terms,
    _xlogx,
    oracle_divergence,
)
from graphonfit.graphons import balanced_partition, partition_quantile


def adjacency_from_edges(n, edges):
    a = np.zeros((n, n), dtype=np.uint8)
    for i, j in edges:
        a[i, j] = a[j, i] = 1
    return AdjacencyMatrix(a=a)


def random_instance(rng, n_max=20, k_max=4):
    n = int(rng.integers(6, n_max + 1))
    k = int(rng.integers(1, min(k_max, n // 2) + 1))
    u = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.9), k=1)
    a = AdjacencyMatrix(a=(u | u.T).astype(np.uint8))
    sizes = np.full(k, 2, dtype=int)
    for _ in range(n - 2 * k):
        sizes[int(rng.integers(0, k))] += 1
    labels = rng.permutation(np.repeat(np.arange(1, k + 1), sizes))
    return a, CommunityAssignment(z=labels, k=k)


# The n=4 instance with both within-pairs present and half the cross pairs.
PLANTED4 = adjacency_from_edges(4, [(0, 1), (2, 3), (0, 2), (0, 3)])
Z4 = CommunityAssignment(z=np.array([1, 1, 2, 2]), k=2)


class TestAssignment:
    def test_validation(self):
        with pytest.raises(DomainError):
            CommunityAssignment(z=np.array([1, 1, 3, 3]), k=2)
        with pytest.raises(DomainError):
            CommunityAssignment(z=np.array([1, 1, 1, 2]), k=2)  # size-1 group

    @pytest.mark.parametrize("z", [[1], [[1, 1], [2, 2]]])
    def test_rejects_bad_shape(self, z):
        with pytest.raises(DomainError, match="1-d label vector of length >= 2"):
            CommunityAssignment(z=np.array(z), k=2)

    def test_rejects_k_below_1(self):
        with pytest.raises(DomainError, match="k=0 must be >= 1"):
            CommunityAssignment(z=np.array([1, 1]), k=0)

    def test_canonical_form(self):
        z = CommunityAssignment(z=np.array([3, 3, 1, 1, 2, 2]), k=3)
        assert z.canonical_form().z.tolist() == [1, 1, 2, 2, 3, 3]

    def test_decompose_recovers_labels(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            _, z = random_instance(rng)
            p, pi = z.decompose()
            assert sorted(pi.tolist()) == list(range(1, z.n + 1))
            for i in range(z.n):
                assert partition_quantile(p, pi[i] / z.n) == z.z[i]


class TestBlockStats:
    def test_cross_average(self):
        st_ = block_stats(PLANTED4, Z4)
        assert st_.averages[0, 1] == pytest.approx(0.5)
        assert st_.pair_counts[0, 1] == 4
        assert not st_.saturated[0, 1]

    def test_diagonal_case(self):
        st_ = block_stats(PLANTED4, Z4)
        assert st_.pair_counts[0, 0] == 1  # C(2,2)
        assert st_.averages[0, 0] == 1.0
        assert st_.saturated[0, 0]

    def test_complete_graph_saturated(self):
        full = AdjacencyMatrix(a=(np.ones((6, 6)) - np.eye(6)).astype(np.uint8))
        z = CommunityAssignment(z=np.array([1, 1, 1, 2, 2, 2]), k=2)
        st_ = block_stats(full, z)
        assert np.all(st_.averages == 1.0)
        assert np.all(st_.saturated)
        assert st_.saturated_pair_fraction() == 1.0

    def test_size_mismatch(self):
        z5 = CommunityAssignment(z=np.array([1, 1, 2, 2, 2]), k=2)
        with pytest.raises(DomainError, match="assignment covers 5 nodes, adjacency has 4"):
            block_stats(PLANTED4, z5)


class TestBernoulliKL:
    def test_examples(self):
        assert bernoulli_kl(0.5, 0.5) == 0.0
        assert bernoulli_kl(1.0, 0.5) == pytest.approx(math.log(2))
        assert bernoulli_kl(0.5, 0.25) == pytest.approx(0.143841036226, abs=1e-10)

    def test_degenerate_q(self):
        with pytest.raises(SaturatedBlockError):
            bernoulli_kl(0.5, 0.0)
        with pytest.raises(SaturatedBlockError):
            bernoulli_kl(0.5, 1.0)
        with pytest.raises(DomainError):
            bernoulli_kl(1.2, 0.5)

    @given(st.floats(0.0, 1.0), st.floats(0.001, 0.999))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_zero_iff_equal(self, p, q):
        d = bernoulli_kl(p, q)
        assert d >= 0.0
        if p == q:
            assert d == 0.0


class TestProfileLikelihood:
    def test_separated_graph_zero(self):
        a = adjacency_from_edges(4, [(0, 1), (2, 3)])
        assert profile_log_likelihood(a, Z4) == 0.0

    def test_frozen_value(self):
        # both diagonal blocks saturated; cross block has 4 pairs at 1/2
        assert profile_log_likelihood(PLANTED4, Z4) == pytest.approx(
            -4 * math.log(2), abs=1e-12
        )

    def test_single_block_density_entropy(self):
        rng = np.random.default_rng(2)
        a, _ = random_instance(rng, n_max=12, k_max=1)
        z1 = CommunityAssignment(z=np.ones(a.n, dtype=int), k=1)
        pairs = a.n * (a.n - 1) // 2
        rho = a.edge_count / pairs
        expect = pairs * (rho * math.log(rho) + (1 - rho) * math.log(1 - rho))
        assert profile_log_likelihood(a, z1) == pytest.approx(expect, abs=1e-10)

    def test_per_edge_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            a, z = random_instance(rng)
            assert profile_log_likelihood(a, z) == pytest.approx(
                per_edge_log_likelihood(a, z), abs=1e-10
            )

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a, z = random_instance(rng, k_max=3)
            perm = rng.permutation(z.k) + 1
            zp = CommunityAssignment(z=perm[z.z - 1], k=z.k)
            assert profile_log_likelihood(a, z) == profile_log_likelihood(a, zp)

    def test_block_average_is_mle(self):
        rng = np.random.default_rng(9)
        a, z = random_instance(rng, n_max=14, k_max=3)
        st_ = block_stats(a, z)
        base = blockmodel_log_likelihood(a, z, st_.averages)
        assert base == pytest.approx(profile_log_likelihood(a, z), abs=1e-10)
        for aa in range(z.k):
            for bb in range(aa, z.k):
                for eps in (-0.01, 0.01):
                    theta = st_.averages.copy()
                    t = theta[aa, bb] + eps
                    if not (0.0 <= t <= 1.0):
                        continue
                    theta[aa, bb] = theta[bb, aa] = t
                    assert blockmodel_log_likelihood(a, z, theta) <= base + 1e-12

    def test_theta_checked(self):
        with pytest.raises(DomainError, match="theta must be 2x2"):
            blockmodel_log_likelihood(PLANTED4, Z4, np.full((3, 3), 0.5))
        for bad in (-0.1, 1.1):
            with pytest.raises(DomainError, match=r"theta entries must lie in \[0,1\]"):
                blockmodel_log_likelihood(PLANTED4, Z4, np.array([[0.5, bad], [bad, 0.5]]))

    def test_divergence_equals_negated_profile(self):
        # the per-pair divergence sum from the data is exactly -loglik
        rng = np.random.default_rng(10)
        a, z = random_instance(rng, n_max=10, k_max=3)
        st_ = block_stats(a, z)
        zi = z.z - 1
        total = 0.0
        for i in range(a.n):
            for j in range(i + 1, a.n):
                q = st_.averages[zi[i], zi[j]]
                if q in (0.0, 1.0):
                    continue
                total += bernoulli_kl(float(a.a[i, j]), q)
        assert total == pytest.approx(-profile_log_likelihood(a, z), abs=1e-10)


_TINY = np.finfo(np.float64).smallest_subnormal


def reference_terms(s, pc):
    """The terms a search state computes from block sums s: _terms' xlogy
    for 0/1 (integer) sums and, for fixed-point (float) sums, _xlogx's
    formula x log(max(x, smallest subnormal)), in its order of operations,
    so that == holds on any CPU."""
    if s.dtype.kind == "i":
        return _terms(s, pc)
    d = pc - s
    return s * np.log(np.maximum(s, _TINY)) + d * np.log(np.maximum(d, _TINY)) - xlogy(pc, pc)


class _ScalarProfileState(_ProfileState):
    """Frozen one-move-at-a-time search state: the reference for the batched one.

    Scores one relabel with row-level arithmetic, all relabels of one node at
    once, and a swap by trial-applying half of it and rolling back.  It
    applies every move with its own in-place row and column updates, so none
    of the batched state's builders, scorer or writer runs in it.  Its terms
    are reference_terms for the kind of its weights, which a search state
    takes: 0/1 (intp) or fixed-point (float64, from _fixed_point).
    """

    def __init__(self, w, z0, k):
        # _scalar_local_search applies the bounds itself
        super().__init__(w, z0, k, _xlx_for(w.shape[0]), _Workspace(), 1, w.shape[0])

    def terms(self, s, pc):
        return reference_terms(s, pc)

    def neighbor_weights(self, i):
        # exact: 0/1 or fixed-point weights (see _fixed_point)
        return np.bincount(self.z, weights=self.w[i], minlength=self.k).astype(self.w.dtype)

    def relabel_delta(self, i, b, cnt):
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
        ta = self.terms(ea, pca)
        tb = self.terms(eb, pcb)
        new = ta.sum() + tb.sum() - ta[b]
        old = self.t[a].sum() + self.t[b].sum() - self.t[a, b]
        return float(new - old)

    def relabel_deltas_all(self, i):
        a = self.z[i]
        cnt = self.neighbor_weights(i)
        h = self.h.astype(np.float64)
        e, t = self.e, self.t
        ea0 = e[a] - cnt
        ea0[a] = e[a, a] - cnt[a]
        ha = h[a] - 1.0
        pca0 = ha * h
        pca0[a] = ha * (ha - 1.0) / 2.0
        ta0 = self.terms(ea0, pca0)
        eb = e + cnt[None, :]
        eb[:, a] -= cnt
        hb = h + 1.0
        pcb = hb[:, None] * h[None, :]
        np.fill_diagonal(pcb, hb * h / 2.0)
        pcb[:, a] = hb * ha
        tb_sum = self.terms(eb, pcb).sum(axis=1)
        row_sums = t.sum(axis=1)
        deltas = (ta0.sum() - ta0) + tb_sum - row_sums[a] - row_sums + t[a]
        deltas[a] = 0.0
        return cnt, deltas

    def _refresh_rows(self, a, b):
        g = np.array([a, b])
        h = self.h.astype(np.float64)
        pc = h[g, None] * h
        pc[[0, 1], g] = h[g] * (h[g] - 1.0) / 2.0
        rows = self.terms(self.e[g], pc)
        self.t[g, :] = rows
        self.t[:, g] = rows.T

    def apply_relabel(self, i, b, cnt, delta):
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


def _scalar_local_search(state, h_min, h_max, rng, max_sweeps=200, tol=1e-10):
    n = state.n
    swaps = 0

    def relabel_sweep():
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

    def swap_sweep():
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

    for _ in range(max_sweeps):
        if relabel_sweep():
            continue
        if not swap_sweep():
            break
    return swaps


def _search_instance(n, k, binary, seed):
    """Weights from a noisy planted partition, 0/1 ones drawn from its
    probabilities or those probabilities in fixed point, as oracle_mple
    passes them, and a balanced random start."""
    rng = np.random.default_rng(seed)
    xs = rng.random(n)
    p = 0.15 + 0.6 * np.exp(-8.0 * np.subtract.outer(xs, xs) ** 2)
    p += 0.1 * rng.random((n, n))
    w = np.triu(rng.random((n, n)) < p if binary else p, 1)
    w = w.astype(np.intp if binary else np.float64)
    w = w + w.T
    z0 = _contiguous_labels(rng.permutation(n), np.asarray(balanced_partition(n, k).h))
    return (w if binary else _fixed_point(w)), z0


def _xlx_for(n):
    m = np.arange((n + 1) ** 2, dtype=np.float64)
    return xlogy(m, m)


def new_state(w, z0, k, h_min=1, h_max=None):
    """A search state with a table for groups of up to n nodes, its own
    workspace and group sizes in [h_min, h_max] (default [1, n]); integer
    weights are 0/1 weights, float64 ones fixed-point."""
    n = w.shape[0]
    return _ProfileState(w, z0, k, _xlx_for(n), _Workspace(), h_min, n if h_max is None else h_max)


def relabel_window(state, nodes):
    """(cnt, deltas) of a relabel window as a search scores it, with
    each node's own group, which the search masks, at 0 as in the reference."""
    cnt = state.nbr[nodes]
    a = state.z[nodes]
    deltas, _ = state.score(*state.relabel_rows(a, cnt, state.slot), state.slot, a)
    deltas[np.arange(nodes.size), a] = 0.0
    return cnt, deltas


def swap_window(state, ii, jj):
    """(rows, deltas) of a swap window: the built rows and their changes."""
    s, pc = state.swap_rows(ii, jj)
    return s, state.score(s, pc, state.slot, state.z[ii], state.z[jj])[0][:, 0]


def relabel_move(state, nodes, t, b):
    """Score a relabel window of nodes, then move nodes[t] into group b as
    a search does.  Returns copies of the candidate's rows (s, pc) taken
    before scoring, and its delta."""
    a = state.z[nodes]
    s, pc = state.relabel_rows(a, state.nbr[nodes], state.slot)
    rows = [0, 1 + b]
    scored = s[t, rows], pc[t, rows]
    deltas, terms = state.score(s, pc, state.slot, a)
    delta = float(deltas[t, b])
    state.write(nodes[t], b, s[t, rows], terms[t, rows], delta)
    return scored, delta


def swap_move(state, ii, jj, t):
    """Score a swap window of pairs (ii, jj), then exchange the labels of
    pair t as a search does; returns what relabel_move returns."""
    i, j = ii[t], jj[t]
    s, pc = state.swap_rows(ii, jj)
    scored = s[t].copy(), pc[t].copy()
    deltas, terms = state.score(s, pc, state.slot, state.z[ii], state.z[jj])
    delta = float(deltas[t, 0])
    state.write(i, state.z[j], s[t], terms[t], delta, j)
    return scored, delta


class TestIncrementalEngine:
    def test_random_moves_stay_exact(self):
        rng = np.random.default_rng(11)
        for binary in (True, False):
            n, k = 16, 3
            w = rng.random((n, n))
            w = np.triu(w, 1)
            w = w + w.T
            w = (w > 0.5).astype(np.intp) if binary else _fixed_point(w)
            fixed = _fixed_point(w) if binary else w  # the same weights in fixed point
            z0 = np.repeat(np.arange(k), [6, 5, 5])
            state = new_state(w, z0, k)
            swapped = 0
            for _ in range(60):
                i = int(rng.integers(0, n))
                b = int(rng.integers(0, k))
                if b == state.z[i] or state.h[state.z[i]] <= 2:
                    continue
                relabel_move(state, np.array([i]), 0, b)
                j = int(rng.integers(0, n))
                if state.z[i] != state.z[j]:
                    swap_move(state, np.array([i]), np.array([j]), 0)
                    swapped += 1
            assert swapped > 20
            state.verify()
            fresh = new_state(fixed, state.z, k)  # the fixed-point path
            assert np.allclose(state.e, fresh.e, atol=1e-9)
            assert np.allclose(state.t, fresh.t, atol=1e-9)
            assert state.total == pytest.approx(fresh.total, abs=1e-8)

    def test_batched_deltas_match_recomputation(self):
        rng = np.random.default_rng(12)
        for binary in (True, False):
            n, k = 14, 4
            w = rng.random((n, n))
            w = np.triu(w, 1)
            w = w + w.T
            w = (w > 0.5).astype(np.intp) if binary else _fixed_point(w)
            fixed = _fixed_point(w) if binary else w  # the same weights in fixed point
            z0 = np.repeat(np.arange(k), [4, 4, 3, 3])
            state = new_state(w, z0, k)
            _, deltas = relabel_window(state, np.arange(n))
            for i in range(n):
                for b in range(k):
                    if b == state.z[i]:
                        continue
                    z = state.z.copy()
                    z[i] = b
                    moved = new_state(fixed, z, k).total - state.total
                    assert deltas[i, b] == pytest.approx(moved, abs=1e-9)
            iu, ju = np.triu_indices(n, k=1)
            live = state.z[iu] != state.z[ju]
            ii, jj = iu[live], ju[live]
            _, sd = swap_window(state, ii, jj)
            for p in range(ii.size):
                z = state.z.copy()
                z[ii[p]], z[jj[p]] = z[jj[p]], z[ii[p]]
                swapped = new_state(fixed, z, k).total - state.total
                assert sd[p] == pytest.approx(swapped, abs=1e-9)

    @pytest.mark.parametrize("binary", [True, False])
    def test_applied_state_is_scored_state(self, binary):
        # After a window's chosen candidate is written, rows a and b of e and
        # t are bitwise its scored rows (row a's cross cell taken from row b,
        # as score counts it) and their terms, and total moved by its delta.
        n, k = 40, 5
        w, z0 = _search_instance(n, k, binary, seed=24)
        state = new_state(w, z0, k)
        rng = np.random.default_rng(25)
        moves = {"relabel": 0, "swap": 0}
        for _ in range(60):
            ii, jj = rng.integers(0, n, size=(2, 8))
            t = int(rng.integers(0, 8))
            a, b = state.z[ii[t]], state.z[jj[t]]
            if a == b:
                continue
            before = state.total
            if rng.random() < 0.5 and state.h[a] > 2:
                (s, pc), delta = relabel_move(state, ii, t, b)
                moves["relabel"] += 1
            else:
                live = state.z[ii] != state.z[jj]
                t = int(np.flatnonzero(live).searchsorted(t))
                (s, pc), delta = swap_move(state, ii[live], jj[live], t)
                moves["swap"] += 1
            s[0, b], pc[0, b] = s[1, a], pc[1, a]
            g = [a, b]
            assert np.array_equal(state.e[g], s) and np.array_equal(state.e[:, g], s.T)
            terms = reference_terms(s, pc)
            assert np.array_equal(state.t[g], terms) and np.array_equal(state.t[:, g], terms.T)
            assert state.total == before + delta
            state.verify()
        assert min(moves.values()) > 10

    def test_table_terms_equal_xlogy_terms(self):
        rng = np.random.default_rng(20)
        state = new_state(np.zeros((30, 30), np.intp), np.repeat(np.arange(3), 10), 3)
        # 0/1 weights keep integer block sums and pair counts, and every sum
        # lies in [0, pc] (see TestUnclippedTerms), both ends included
        pc = rng.integers(0, 31**2, size=2000)
        s = np.floor(pc * rng.uniform(0.0, 1.0, size=pc.size)).astype(np.intp)
        s[:100], s[100:200] = 0, pc[100:200]
        got = state._terms(s, pc, np.empty(s.shape))
        assert np.array_equal(got, _terms(s, pc))
        # pc log pc of every size piece, after relabels, comes from the one
        # table with xlogy's bits, for either kind of weight
        for binary in (True, False):
            w, z0 = _search_instance(40, 5, binary, seed=27)
            state = new_state(w, z0, 5, 2, 40)
            moved = 0
            for i, b in rng.integers(0, [40, 5], size=(40, 2)):
                if b != state.z[i] and state.h[state.z[i]] > 2:
                    relabel_move(state, np.array([i]), 0, b)
                    moved += 1
            assert moved > 10
            pieces = state.pieces
            assert np.array_equal(state.xlx[pieces], xlogy(pieces, pieces))

    def test_real_window_terms_near_xlogy_terms(self):
        # numpy's log, which fixed-point weights use, may differ from xlogy's
        # in the last bit; the masked own-group rows of a relabel stack stay
        # finite
        n, k = 60, 7
        w, z0 = _search_instance(n, k, False, seed=28)
        state = new_state(w, z0, k)
        nodes = np.arange(n)
        cnt = state.nbr[nodes]
        s, pc = state.relabel_rows(state.z[nodes], cnt, state.slot)
        got = state._terms(s, pc, np.empty_like(s))
        assert np.all(np.isfinite(got[nodes, 1 + state.z]))
        assert np.allclose(got, _terms(s, pc), rtol=1e-12, atol=0.0)
        iu, ju = np.triu_indices(n, k=1)
        live = state.z[iu] != state.z[ju]
        s, pc = state.swap_rows(iu[live], ju[live])
        got = state._terms(s, pc, np.empty_like(s))
        assert np.allclose(got, _terms(s, pc), rtol=1e-12, atol=0.0)

    def test_real_window_terms_vanish_where_saturated(self):
        # s log s is exactly 0 at s = 0, and (pc - s) log(pc - s) at s = pc;
        # the rest, numpy's pc log pc less the table's, is 0 for these small
        # integer pair counts
        n, k = 40, 5
        w, z0 = _search_instance(n, k, False, seed=29)
        state = new_state(w, z0, k)
        nodes = np.arange(n)
        cnt = state.nbr[nodes]
        s, pc = state.relabel_rows(state.z[nodes], cnt, state.slot)
        pick = np.random.default_rng(30).integers(0, 3, size=s.shape)
        s[pick == 0] = 0.0
        s[pick == 1] = pc[pick == 1]
        got = state._terms(s, pc, np.empty_like(s))
        assert np.all(got[pick < 2] == 0.0)
        x = np.array([0.0, 0.5, 3.0])
        got = _xlogx(x, np.empty(3), np.empty(3))
        assert np.array_equal(got, [0.0, 0.5 * np.log(0.5), 3.0 * np.log(3.0)])

    def test_batched_relabel_deltas_equal_one_node_deltas(self):
        # bitwise, so argmax ties resolve as they do one node at a time
        for binary in (True, False):
            w, z0 = _search_instance(60, 7, binary, seed=21)
            ref = _ScalarProfileState(w, z0, 7)
            state = new_state(w, z0, 7)
            cnt, deltas = relabel_window(state, np.arange(60))
            for i in range(60):
                c1, d1 = ref.relabel_deltas_all(i)
                assert np.array_equal(cnt[i], c1)
                assert np.array_equal(deltas[i], d1)

    def test_verify_checks_every_cache(self):
        # one cell of each cache, or the total, off by one; block sums and
        # neighbour counts off by one weight unit (1 for 0/1 weights, 2^-b
        # for fixed-point ones), the least an exact sum can drift
        for binary in (True, False):
            w, z0 = _search_instance(20, 3, binary, seed=22)
            unit = 1 if binary else 2.0 ** -_fixed_point_bits(20)
            for cache, cell, named in (
                ("total", None, "objective"), ("t", (0, 1), "block terms"),
                ("h", 0, "group sizes"), ("e", (0, 1), "block sums"),
                ("nbr", (5, 1), "neighbour counts"), ("row_sums", 2, "term row sums"),
                ("pieces", (2, 0, 1), "size pieces"), ("mask", (0, 1), "move mask"),
            ):
                state = new_state(w, z0, 3, 2, 10)
                state.verify()
                if cell is None:
                    state.total += 1.0
                else:
                    step = unit if cache in ("e", "nbr") else 1
                    cached = getattr(state, cache)
                    before = cached[cell]
                    cached[cell] += step
                    assert cached[cell] != before
                with pytest.raises(InternalError, match=f"incremental {named}.* drifted"):
                    state.verify()

    def test_finish_fit_refuses_a_wrong_total(self):
        z0 = Z4.z - 1
        total = profile_log_likelihood(PLANTED4, Z4)
        fit = _finish_fit(PLANTED4, z0, 2, total, 1, 0, False, 0, 2, 4)
        assert fit.profile_loglik == total
        with pytest.raises(InternalError, match="disagrees"):
            _finish_fit(PLANTED4, z0, 2, total - 1e-6, 1, 0, False, 0, 2, 4)

    def test_restarts_share_one_workspace(self, monkeypatch):
        made = []

        class Counted(_Workspace):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(blockmodel, "_Workspace", Counted)
        rng = np.random.default_rng(26)
        a, _ = random_instance(rng, n_max=20, k_max=3)
        fit = mple_search(a, 2, restarts=4, seed=3)
        assert fit.restarts_used == 4 and len(made) == 1

    # (n, k, h_min, h_max): n <= _ALL_PAIRS_MAX_N scans all pairs, a larger n
    # draws 4n pairs per swap sweep; h_min == h_max leaves swaps as the only
    # moves.
    CASES = [
        (12, 2, 6, 6), (12, 3, 2, 12), (40, 4, 10, 10), (40, 8, 2, 40),
        (80, 2, 2, 80), (80, 10, 7, 9), (81, 40, 2, 3), (81, 9, 9, 9),
        (150, 12, 12, 13), (150, 40, 2, 8),
    ]

    @pytest.mark.parametrize("binary", [True, False])
    def test_search_equals_scalar_reference(self, binary):
        swaps_seen = 0
        for t, (n, k, h_min, h_max) in enumerate(self.CASES):
            w, z0 = _search_instance(n, k, binary, seed=100 + t)
            ref = _ScalarProfileState(w, z0, k)
            ref_swaps = _scalar_local_search(ref, h_min, h_max, np.random.default_rng(t))
            state = new_state(w, z0, k, h_min, h_max)
            swaps = _local_searches([state], np.random.default_rng(t))[0]
            state.verify()
            assert np.array_equal(state.z, ref.z), (n, k, h_min, h_max)
            assert swaps == ref_swaps
            assert state.total == pytest.approx(ref.total, rel=1e-9)
            swaps_seen += swaps
        assert swaps_seen > 0
        # both pair rules are covered
        assert {n <= blockmodel._ALL_PAIRS_MAX_N for n, *_ in self.CASES} == {True, False}


class TestWindowBuffers:
    """A relabel window's stacks go into the state's own buffers: a warm call
    allocates none of them, and a short window after a full one reads nothing
    the full one left there."""

    N, K = 100, 40
    WINDOW = _BATCH_CELLS // max(K * K, 2 * N)  # 20 nodes, a one-start search's cap

    def instance(self, binary):
        w, z0 = _search_instance(self.N, self.K, binary, seed=23)
        return w, z0, new_state(w, z0, self.K)

    @pytest.mark.parametrize("binary", [True, False])
    def test_warm_window_allocates_no_stack_array(self, binary, warm_peak):
        _, _, state = self.instance(binary)
        nodes = np.arange(self.WINDOW)
        # relabel_window reads the stacks at the state's int slot, as a
        # one-state round does, so its row reads are views, not gathers
        peak = warm_peak(lambda: relabel_window(state, nodes))
        # One (WINDOW, k+1, k) float array, the window's stack size (and under
        # a (WINDOW, k+1, k+1) one), so any single stack-sized temporary fails
        # this.  numpy's ufunc iterator buffers, about 200 KB at most, pass.
        assert peak < self.WINDOW * (self.K + 1) * self.K * 8

    @pytest.mark.parametrize("binary", [True, False])
    def test_reused_buffers_leave_no_stale_values(self, binary):
        w, z0, state = self.instance(binary)
        cnt, deltas = relabel_window(state, np.arange(self.WINDOW))
        kept = cnt.copy(), deltas.copy()
        short = np.array([57, 3, 91])
        c, d = relabel_window(state, short)
        ref = _ScalarProfileState(w, z0, self.K)
        for r, i in enumerate(short):
            c1, d1 = ref.relabel_deltas_all(i)
            assert np.array_equal(c[r], c1)
            assert np.array_equal(d[r], d1)
        # what a call returns is its own, not a view of the buffers
        assert np.array_equal(cnt, kept[0])
        assert np.array_equal(deltas, kept[1])
        # a swap window's neighbour rows reuse the relabel window's buffers
        ii, jj = np.arange(6), np.arange(99, 93, -1)
        assert np.all(z0[ii] != z0[jj])
        alone = swap_window(self.instance(binary)[2], ii, jj)
        for got, want in zip(swap_window(state, ii, jj), alone):
            assert np.array_equal(got, want)


class TestWorkspace:
    def test_growth_drops_only_that_names_views(self):
        work = _Workspace()
        a, b = work("a", (2, 3)), work("b", (4,), np.intp)
        assert work("a", (2, 3)) is a and work("b", (4,), np.intp) is b
        old, b_views = weakref.ref(work._flat["a"]), work._views["b"]
        grown = work("a", (5, 5))
        # b's views, and the dict that keys them by shape, are untouched
        assert work._views["b"] is b_views and work("b", (4,), np.intp) is b
        assert work("a", (5, 5)) is grown
        # a's old view still holds the smaller array; once it goes, so does it
        assert old() is not None
        del a
        gc.collect()
        assert old() is None
        assert np.shares_memory(work("a", (2, 3)), grown)


class TestLockstep:
    """_maximize_profile runs its starts in lockstep, one relabel window of
    each per round; its result, and every start's, equal those of searching
    each start alone, in start order, with one rng."""

    # (n, k, h_min, h_max, binary, seed, restarts, extra start): n >
    # _ALL_PAIRS_MAX_N draws its swap pairs, a smaller n scans all pairs
    CASES = [
        (150, 12, 12, 13, True, 4, 3, False), (150, 12, 12, 13, False, 5, 2, True),
        (100, 10, 2, 100, True, 8, 4, False), (60, 6, 10, 10, True, 6, 3, False),
        (60, 6, 2, 60, False, 7, 3, True),
    ]

    @staticmethod
    def run(monkeypatch, case, alone):
        """_maximize_profile's result, each start's (z, total, swaps) and, in
        lockstep, the round in which each start's last window was scored."""
        n, k, h_min, h_max, binary, seed, restarts, extra = case
        w, z0 = _search_instance(n, k, binary, seed)
        lockstep, searched = blockmodel._lockstep, blockmodel._local_searches
        starts, rounds, last_round = [], [0], {}

        def each_start(states, rng):
            if alone:  # one start after another
                swaps = [searched([state], rng)[0] for state in states]
            else:
                swaps = searched(states, rng)
            starts.extend((state.z.copy(), state.total.hex(), s) for state, s in zip(states, swaps))
            return swaps

        def counted(searches, cap, take_first, *args):
            def take(windows):
                rounds[0] += 1
                last_round.update((i, rounds[0]) for i, _, _ in windows)
                return take_first(windows)

            return lockstep(searches, cap, take if len(searches) > 1 else take_first, *args)

        monkeypatch.setattr(blockmodel, "_local_searches", each_start)
        monkeypatch.setattr(blockmodel, "_lockstep", counted)
        z, total, swaps, ties, searches = blockmodel._maximize_profile(
            w, k, h_min, h_max, restarts, seed, [z0] if extra else None)
        monkeypatch.undo()
        finished = [last_round.get(i) for i in range(searches)]
        return (z.tolist(), total.hex(), swaps, ties, searches), starts, finished

    def test_lockstep_equals_one_start_at_a_time(self, monkeypatch):
        drawn_swaps, apart = set(), 0
        for case in self.CASES:
            result, starts, finished = self.run(monkeypatch, case, alone=False)
            alone, alone_starts, _ = self.run(monkeypatch, case, alone=True)
            assert result == alone, case
            for (z, total, swaps), (z1, total1, swaps1) in zip(starts, alone_starts):
                assert np.array_equal(z, z1) and total == total1 and swaps == swaps1, case
            assert None not in finished  # every start ran in the lockstep
            apart = max(apart, max(finished) - min(finished))
            n, binary = case[0], case[4]
            if n > blockmodel._ALL_PAIRS_MAX_N and sum(swaps for _, _, swaps in starts[:-1]) > 0:
                drawn_swaps.add(binary)  # an earlier start took swaps of drawn pairs
        # both kinds of weight and both pair rules are covered, and some
        # starts finished far apart
        drawn = blockmodel._ALL_PAIRS_MAX_N
        assert {(n > drawn, binary) for n, _, _, _, binary, *_ in self.CASES} == {
            (True, True), (True, False), (False, True), (False, False)}
        assert drawn_swaps == {True, False}
        assert apart > 100

    def test_scans_keep_their_window_width(self):
        windows = []

        def scans(*counts):
            for count in counts:
                yield count

        def none_taken(batch):
            windows.extend((lo, hi) for _, lo, hi in batch)
            return [-1] * len(batch)

        # two scans that take nothing: the first, of 10 moves, widens from 1
        # to 16, and the second starts at 16
        blockmodel._lockstep([scans(10, 40)], 100, none_taken)
        assert windows == [(0, 1), (1, 3), (3, 7), (7, 10), (0, 16), (16, 40)]
        # a one-scan call starts at width 1, however wide the last one ended
        windows.clear()
        for _ in range(2):
            blockmodel._first_improvement(40, 100, lambda lo, hi: none_taken([(0, lo, hi)])[0])
        assert windows == [(0, 1), (1, 3), (3, 7), (7, 15), (15, 31), (31, 40)] * 2

        # several searches of three scans each take the moves of scanning one
        # move at a time: move j improves while values[j] tops the level,
        # which taking it raises to values[j] and each scan resets (so move 0
        # improves at once and every rescan runs to its end)
        values = np.random.default_rng(31).random((3, 50))
        levels, taken = np.zeros(3), [[], [], []]

        def search(i):
            for _ in range(3):
                levels[i] = 0.0
                yield values.shape[1]

        def take_first(batch):
            hits = []
            for i, lo, hi in batch:
                up = np.flatnonzero(values[i, lo:hi] > levels[i])
                hits.append(lo + int(up[0]) if up.size else -1)
                if up.size:
                    levels[i] = values[i, hits[-1]]
                    taken[i].append(hits[-1])
            return hits

        blockmodel._lockstep([search(i) for i in range(3)], 30, take_first)
        for v, moves in zip(values, taken):
            one_at_a_time = []
            for _ in range(3):
                level = 0.0
                for j, x in enumerate(v):
                    if x > level:
                        level = x
                        one_at_a_time.append(j)
            assert moves == one_at_a_time and len(moves) > 5

    def test_rescans_stop_after_the_last_take(self):
        # Bubble sorts: move j swaps x[j] and x[j + 1] when they are out of
        # order.  Each search's array persists across its scans, which it
        # repeats while they take moves, and a pass can leave earlier pairs
        # out of order, so rescans take moves before the last take too.
        count = 29
        arrays = [np.random.default_rng(40 + i).permutation(count + 1) for i in range(4)]
        starts = [x.copy() for x in arrays]
        runs = [[] for _ in arrays]  # per search and scan: (windows, takes)

        def search():
            while (yield count):
                pass

        def take_first(batch):
            hits = []
            for i, lo, hi in batch:
                if lo == 0:
                    runs[i].append(([], []))
                x, (windows, takes) = arrays[i], runs[i][-1]
                windows.append((lo, hi))
                up = np.flatnonzero(x[lo:hi] > x[lo + 1:hi + 1])
                hits.append(lo + int(up[0]) if up.size else -1)
                if up.size:
                    j = hits[-1]
                    x[j], x[j + 1] = x[j + 1], x[j]
                    takes.append(j)
            return hits

        # three searches in lockstep, and one alone through _first_improvement
        blockmodel._lockstep([search() for _ in range(3)], 12, take_first)
        assert blockmodel._first_improvement(
            count, 12, lambda lo, hi: take_first([(3, lo, hi)])[0], repeat=True)
        stopped = ran_on = 0
        for x, runs_i in zip(starts, runs):
            one_at_a_time = []
            while not one_at_a_time or one_at_a_time[-1]:
                takes = []
                for j in range(count):
                    if x[j] > x[j + 1]:
                        x[j], x[j + 1] = x[j + 1], x[j]
                        takes.append(j)
                one_at_a_time.append(takes)
            # the same moves, scan by scan, and the same number of scans
            assert [takes for _, takes in runs_i] == one_at_a_time
            for (_, before), (windows, takes) in zip(runs_i, runs_i[1:]):
                stop = before[-1] + 1
                if takes and takes[0] < stop:  # the state moved on: a full rescan
                    assert windows[-1][1] == count
                    ran_on += 1
                else:  # the confirming rescan ends right after the last take
                    assert not takes and windows[-1][1] == stop < count
                    stopped += 1
        assert stopped == len(arrays) and ran_on > len(arrays)

    @pytest.mark.parametrize("n, k, binary", [(60, 12, False), (70, 30, True)])
    def test_swap_sweeps_open_at_their_cap(self, monkeypatch, n, k, binary):
        # a seeded search with all-pair sweeps (n <= _ALL_PAIRS_MAX_N) ends
        # with a sweep that takes nothing; it scores one window per cap-full
        # of pairs
        first_improvement, sweeps = blockmodel._first_improvement, []

        def recorded(count, cap, take_first, *args, **kwargs):
            windows = []

            def take(lo, hi):
                windows.append((lo, hi))
                return take_first(lo, hi)

            taken = first_improvement(count, cap, take, *args, **kwargs)
            sweeps.append((count, cap, windows, taken))
            return taken

        monkeypatch.setattr(blockmodel, "_first_improvement", recorded)
        w, z0 = _search_instance(n, k, binary, seed=12)
        _local_searches([new_state(w, z0, k, 2, n)], np.random.default_rng(0))
        count, cap, windows, taken = sweeps[-1]
        assert count == n * (n - 1) // 2 and not taken
        assert cap == _BATCH_CELLS // (2 * k) < count
        assert windows == [(lo, min(lo + cap, count)) for lo in range(0, count, cap)]


class TestFrozenRows:
    """A node whose group sits at h_min cannot relabel, so its row is never
    built; every start takes the moves, and the search finds the fit, that
    building every row gives."""

    # (n, k, h_min, h_max, binary, seed, restarts): one start reads the stacks
    # at an int slot, several at one slot per row; at h_min == h_max no row
    # is ever built
    CASES = [
        (150, 12, 12, 13, True, 4, 3), (150, 12, 12, 14, False, 5, 1),
        (100, 40, 2, 100, True, 8, 1), (60, 6, 9, 11, False, 7, 3),
        (60, 6, 10, 10, True, 6, 3),
    ]

    @staticmethod
    def run(monkeypatch, case, prune):
        """_maximize_profile's result, each start's (z, total), and the
        counts of relabel rows built and of those built for a node at h_min."""
        n, k, h_min, h_max, binary, seed, restarts = case
        w, _ = _search_instance(n, k, binary, seed)
        relabel_rows, verify = _ProfileState.relabel_rows, _ProfileState.verify
        rows, frozen, starts = [0], [0], []

        def recorded_rows(self, a, cnt, slots):
            sizes = self.stacks.h[slots, a]
            rows[0] += a.size
            frozen[0] += int((sizes <= h_min).sum())
            return relabel_rows(self, a, cnt, slots)

        def recorded_verify(self):
            starts.append((self.z.tolist(), self.total.hex()))
            verify(self)

        monkeypatch.setattr(_ProfileState, "relabel_rows", recorded_rows)
        monkeypatch.setattr(_ProfileState, "verify", recorded_verify)
        if not prune:  # build every row, as if any node could relabel
            monkeypatch.setattr(blockmodel, "_can_relabel", lambda sizes, h_min: sizes > 0)
        z, total, swaps, ties, searches = blockmodel._maximize_profile(
            w, k, h_min, h_max, restarts, seed)
        monkeypatch.undo()
        return (z.tolist(), total.hex(), swaps, ties, searches), starts, rows[0], frozen[0]

    @pytest.mark.parametrize("case", CASES)
    def test_frozen_rows_are_not_built(self, monkeypatch, case):
        result, starts, rows, frozen = self.run(monkeypatch, case, prune=True)
        full, full_starts, full_rows, full_frozen = self.run(monkeypatch, case, prune=False)
        assert result == full
        assert starts == full_starts and len(starts) == case[-1]
        assert frozen == 0 and full_frozen > 0  # every case has frozen rows
        assert rows == full_rows - full_frozen
        if case[2] == case[3]:  # no group can shrink: no round builds a row
            assert rows == 0


class TestUnclippedTerms:
    """_ProfileState._terms does not clip its block sums: every sum a search
    starts from or stacks, and so every sum it writes, lies in [0, pc], for
    0/1 and for fixed-point weights.  Checked over the searches of each kind
    of the scalar-reference, lockstep and frozen-row cases: relabel and swap
    windows, one start and several, groups pinned at h_min, and h_min ==
    h_max."""

    @staticmethod
    def check(monkeypatch, binary):
        terms = _ProfileState._terms
        cells, stacked = [0], set()

        def checked(self, s, pc, out):
            if (self.w.dtype.kind == "i") == binary:
                assert s.dtype == (np.intp if binary else np.float64) and pc.dtype == np.intp
                assert np.all((0 <= s) & (s <= pc))
                cells[0] += s.size
                if s.ndim == 3:  # a window: k + 1 rows per relabel, 2 per swap
                    stacked.add("relabel" if s.shape[1] == self.k + 1 else "swap")
            return terms(self, s, pc, out)

        monkeypatch.setattr(_ProfileState, "_terms", checked)
        for t, (n, k, h_min, h_max) in enumerate(TestIncrementalEngine.CASES):
            w, z0 = _search_instance(n, k, binary, seed=100 + t)
            _local_searches([new_state(w, z0, k, h_min, h_max)], np.random.default_rng(t))
        for case in TestLockstep.CASES + TestFrozenRows.CASES:
            n, k, h_min, h_max, kind, seed, restarts = case[:7]
            if kind == binary:
                w, _ = _search_instance(n, k, binary, seed)
                blockmodel._maximize_profile(w, k, h_min, h_max, restarts, seed)
        assert stacked == {"relabel", "swap"} and cells[0] > 10**6

    def test_binary_sums_lie_in_pair_counts(self, monkeypatch):
        self.check(monkeypatch, True)

    def test_fixed_point_sums_lie_in_pair_counts(self, monkeypatch):
        self.check(monkeypatch, False)


class TestFixedPoint:
    """oracle_mple searches the weights rint(p * 2^b) * 2^-b, b =
    _fixed_point_bits(n): multiples of 2^-b whose sums, block sums and
    neighbour sums included, stay below 2^(52 - b), so every one is exact."""

    def test_total_weight_stays_below_2_to_52(self):
        # every n the tests and sweeps use (up to 400), at the largest
        # probability below 1, which rounds to 1
        top = np.nextafter(1.0, 0.0)
        for n in range(2, 401):
            b = _fixed_point_bits(n)
            w = _fixed_point(np.full((n, n), top) - top * np.eye(n))
            units = np.ldexp(w, b)
            assert w.max() == 1.0 and np.array_equal(units, np.rint(units))
            assert n * n - n == w.sum() < 2.0 ** (52 - b)
            assert n * n > 2.0 ** (52 - (b + 1))  # and b is the largest such
        assert (_fixed_point_bits(100), _fixed_point_bits(400)) == (38, 34)

    def test_idempotent(self):
        # weights already in fixed point come back bit for bit
        for n in (7, 100, 400):
            p = np.random.default_rng(n).random((n, n))
            once = _fixed_point(p)
            assert np.array_equal(_fixed_point(once).view(np.int64), once.view(np.int64))


class TestMpleSearch:
    def test_planted_pairs(self):
        a = adjacency_from_edges(4, [(0, 1), (2, 3)])
        fit = mple_search(a, 2, restarts=5, seed=0)
        assert fit.profile_loglik == 0.0
        assert fit.assignment.z.tolist() == [1, 1, 2, 2]

    def test_empty_graph_ties(self):
        a = AdjacencyMatrix(a=np.zeros((6, 6), dtype=np.uint8))
        fit = mple_search(a, 2, restarts=8, seed=0)
        assert fit.profile_loglik == 0.0
        assert fit.ties

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        a, _ = random_instance(rng, n_max=20, k_max=3)
        f1 = mple_search(a, 2, restarts=4, seed=42)
        f2 = mple_search(a, 2, restarts=4, seed=42)
        assert f1.assignment.z.tolist() == f2.assignment.z.tolist()
        assert f1.profile_loglik == f2.profile_loglik

    def test_infeasible_constraints(self):
        a = AdjacencyMatrix(a=np.zeros((5, 5), dtype=np.uint8))
        with pytest.raises(ConfigError):
            mple_search(a, 3, h_min=2)
        with pytest.raises(ConfigError):
            mple_search(a, 2, h_min=2, h_max=2)  # 2*2 < 5
        with pytest.raises(ConfigError):
            mple_search(a, 2, restarts=0)

    def test_constraints_respected(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            a, _ = random_instance(rng, n_max=18, k_max=2)
            while a.n < 12:
                a, _ = random_instance(rng, n_max=18, k_max=2)
            fit = mple_search(a, 3, h_min=3, h_max=10, restarts=3, seed=1)
            sizes = fit.assignment.group_sizes()
            assert np.all(sizes >= 3) and np.all(sizes <= 10)

    def test_result_consistency(self):
        rng = np.random.default_rng(15)
        a, _ = random_instance(rng, n_max=16, k_max=3)
        fit = mple_search(a, 2, restarts=3, seed=7)
        assert fit.profile_loglik == pytest.approx(
            profile_log_likelihood(a, fit.assignment), abs=1e-10
        )
        assert fit.profile_loglik <= 1e-12
        assert fit.rho_hat == pytest.approx(a.edge_count / (a.n * (a.n - 1) / 2))

    def test_json(self):
        fit = mple_search(PLANTED4, 2, restarts=2, seed=0)
        obj = json.loads(fit.to_json())
        assert obj["k"] == 2
        assert len(obj["assignment"]) == 4
        assert "saturated" in obj and "rho_hat" in obj

    def test_json_roundtrip(self):
        xi = sample_latents(40, seed=3)
        a = sample_adjacency(edge_probabilities(graphon_by_name("cosine"), xi, 0.3), seed=3)
        fit = mple_search(a, 4, h_max=15, restarts=2, seed=9)
        assert (fit.h_min, fit.h_max) == (2, 15)
        back = FitResult.from_json(fit.to_json())
        assert np.array_equal(back.assignment.z, fit.assignment.z)
        for name in ("pair_counts", "edge_sums", "averages", "saturated"):
            assert np.array_equal(getattr(back.stats, name), getattr(fit.stats, name))
        scalars = ("profile_loglik", "rho_hat", "restarts_used", "swap_count", "ties",
                   "seed", "h_min", "h_max")
        assert all(getattr(back, s) == getattr(fit, s) for s in scalars)

    @pytest.mark.parametrize("key, value", [
        ("seed", "7"), ("ties", 1), ("k", True), ("assignment", [1.0, 1.0, 2.0, 2.0]),
        ("block_averages", [[0.5]]), ("seed", -1),
    ])
    def test_json_ill_typed(self, key, value):
        obj = json.loads(mple_search(PLANTED4, 2, restarts=1).to_json())
        obj[key] = value
        with pytest.raises(ConfigError):
            FitResult.from_json(json.dumps(obj))


    def test_small_k_timing_gate(self):
        # The small-k benchmark cell (n=64 <= _ALL_PAIRS_MAX_N, so swap sweeps
        # scan all pairs). Scoring moves one at a time with trial-and-rollback
        # swaps took about 1.9 s.
        xi = sample_latents(64, seed=1)
        p = edge_probabilities(graphon_by_name("cosine"), xi, 0.3)
        a = sample_adjacency(p, seed=1)
        t0 = time.perf_counter()
        mple_search(a, 8, restarts=3, seed=1)
        assert time.perf_counter() - t0 < 0.6


class TestExhaustive:
    def test_enumeration_counts(self):
        assert count_admissible_assignments(4, 2, 2, 2) == 3
        assert count_admissible_assignments(6, 2, 2, 6) == 25
        assert len(list(_enumerate_canonical(6, 2, 2, 6))) == 25
        assert len(list(_enumerate_canonical(4, 2, 2, 2))) == 3

    def test_enumeration_is_canonical_lex(self):
        seen = [tuple(z) for z in _enumerate_canonical(5, 2, 2, 3)]
        assert seen == sorted(seen)
        assert all(z[0] == 0 for z in seen)
        assert len(set(seen)) == len(seen)

    def test_budget_refusal(self):
        a = AdjacencyMatrix(a=np.zeros((40, 40), dtype=np.uint8))
        with pytest.raises(BudgetError):
            mple_exhaustive(a, 4)

    def test_enumeration_count_disagreement_raises(self, monkeypatch):
        # a count that the enumeration does not reach means the two disagree
        # on what is admissible, so the maximizer is not trusted
        a = AdjacencyMatrix(a=np.ones((6, 6), dtype=np.uint8) - np.eye(6, dtype=np.uint8))
        count = blockmodel.count_admissible_assignments
        monkeypatch.setattr(blockmodel, "count_admissible_assignments",
                            lambda *args: count(*args) + 1)
        with pytest.raises(InternalError, match="enumerated 25 assignments, expected 26"):
            mple_exhaustive(a, 2)

    def test_exhaustive_at_least_local(self):
        rng = np.random.default_rng(16)
        for t in range(50):
            n = 7
            u = np.triu(rng.random((n, n)) < 0.5, k=1)
            a = AdjacencyMatrix(a=(u | u.T).astype(np.uint8))
            ex = mple_exhaustive(a, 2)
            loc = mple_search(a, 2, restarts=2, seed=t)
            assert ex.profile_loglik >= loc.profile_loglik - 1e-10

    def test_objective_orderings_match_divergence(self):
        # maximizing the profile form is minimizing the data-divergence sum
        rng = np.random.default_rng(17)
        n = 7
        u = np.triu(rng.random((n, n)) < 0.5, k=1)
        a = AdjacencyMatrix(a=(u | u.T).astype(np.uint8))
        w = a.a.astype(float)
        rows = []
        for z0 in _enumerate_canonical(n, 2, 2, n):
            z = CommunityAssignment(z=z0 + 1, k=2)
            ll = profile_log_likelihood(a, z)
            st_ = block_stats(a, z)
            zi = z.z - 1
            dsum = 0.0
            for i in range(n):
                for j in range(i + 1, n):
                    q = st_.averages[zi[i], zi[j]]
                    if q not in (0.0, 1.0):
                        dsum += bernoulli_kl(float(w[i, j]), q)
            rows.append((ll, dsum))
            assert ll == pytest.approx(-dsum, abs=1e-10)
        best_ll = max(r[0] for r in rows)
        best_d = min(r[1] for r in rows)
        assert best_ll == pytest.approx(-best_d, abs=1e-10)


class TestOracle:
    def make_probabilities(self, pm, rho=0.5):
        pm = np.asarray(pm, dtype=float)
        np.fill_diagonal(pm, 0.0)
        return EdgeProbabilityMatrix(p=pm, rho_n=rho)

    def test_block_means_constant(self):
        p = self.make_probabilities(np.full((4, 4), 0.3))
        means = oracle_block_means(p, Z4)
        assert np.allclose(means, 0.3)

    def test_block_means_cross_average(self):
        pm = np.full((4, 4), 0.5)
        pm[0, 2] = pm[2, 0] = 0.1
        pm[0, 3] = pm[3, 0] = 0.2
        pm[1, 2] = pm[2, 1] = 0.3
        pm[1, 3] = pm[3, 1] = 0.4
        p = self.make_probabilities(pm)
        means = oracle_block_means(p, Z4)
        assert means[0, 1] == pytest.approx(0.25)

    def test_oracle_recovers_block_constant(self):
        labels = np.array([1, 1, 1, 2, 2, 2])
        pm = np.where(labels[:, None] == labels[None, :], 0.6, 0.2)
        p = self.make_probabilities(pm.astype(float))
        fit = oracle_mple(p, 2, restarts=4, seed=0)
        assert fit.assignment.canonical_form().z.tolist() == labels.tolist()
        assert fit.divergence == pytest.approx(0.0, abs=1e-9)

    def test_constant_probabilities_tie(self):
        p = self.make_probabilities(np.full((6, 6), 0.4))
        fit = oracle_mple(p, 2, restarts=8, seed=0)
        assert fit.divergence == pytest.approx(0.0, abs=1e-12)
        assert fit.ties

    def test_extra_start_above_h_max(self):
        # the search's x log x table also covers a given start's groups
        # above h_max, whose relabels then shrink them
        labels = np.repeat([1, 2], 5)
        pm = np.where(labels[:, None] == labels[None, :], 0.6, 0.2)
        p = self.make_probabilities(pm.astype(float))
        fit = oracle_mple(p, 2, h_max=5, restarts=1, seed=0, extra_inits=[np.repeat([0, 1], [8, 2])])
        assert fit.assignment.canonical_form().z.tolist() == labels.tolist()

    def test_restarts_used_counts_extra_inits(self):
        # the degree-sorted start always runs, so one extra init makes two
        # local searches even with restarts=1
        labels = np.array([1, 1, 1, 2, 2, 2])
        pm = np.where(labels[:, None] == labels[None, :], 0.6, 0.2)
        p = self.make_probabilities(pm.astype(float))
        fit = oracle_mple(p, 2, restarts=1, seed=0, extra_inits=[labels - 1])
        assert fit.restarts_used == 2
        assert oracle_mple(p, 2, restarts=3, seed=0).restarts_used == 3

    def test_local_matches_exhaustive(self):
        rng = np.random.default_rng(18)
        hits = 0
        for t in range(20):
            xs = rng.uniform(0.05, 0.95, size=8)
            pm = 0.5 * np.minimum(np.add.outer(xs, xs), 1.9) / 2 + 0.05
            pm = (pm + pm.T) / 2
            p = self.make_probabilities(pm, rho=0.5)
            z0 = _exhaustive_profile(p.p, 2, 2, p.n)[0]
            exact = oracle_divergence(p, CommunityAssignment(z=z0 + 1, k=2))
            loc = oracle_mple(p, 2, restarts=10, seed=t)
            if abs(loc.divergence - exact) < 1e-9:
                hits += 1
            assert loc.divergence >= exact - 1e-9
        assert hits >= 18

    def test_divergence_nonnegative(self):
        rng = np.random.default_rng(19)
        pm = rng.uniform(0.1, 0.9, size=(8, 8))
        pm = (pm + pm.T) / 2
        p = self.make_probabilities(pm)
        z = CommunityAssignment(z=np.array([1, 1, 2, 2, 1, 2, 1, 2]), k=2)
        assert oracle_divergence(p, z) >= 0.0
