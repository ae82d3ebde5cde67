import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonfit import (
    AdjacencyMatrix,
    BudgetError,
    CommunityAssignment,
    ConfigError,
    DomainError,
    EdgeProbabilityMatrix,
    SaturatedBlockError,
    bernoulli_kl,
    block_stats,
    blockmodel_log_likelihood,
    count_admissible_assignments,
    mple_exhaustive,
    mple_search,
    oracle_block_means,
    oracle_mple,
    per_edge_log_likelihood,
    profile_log_likelihood,
)
from graphonfit.blockmodel import _ProfileState, _enumerate_canonical, oracle_divergence
from graphonfit.graphons import partition_quantile


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


class TestIncrementalEngine:
    def test_random_moves_stay_exact(self):
        rng = np.random.default_rng(11)
        for binary in (True, False):
            n, k = 16, 3
            w = rng.random((n, n))
            w = np.triu(w, 1)
            w = w + w.T
            if binary:
                w = (w > 0.5).astype(float)
            z0 = np.repeat(np.arange(k), [6, 5, 5])
            state = _ProfileState(w, z0, k)
            for _ in range(60):
                i = int(rng.integers(0, n))
                b = int(rng.integers(0, k))
                if b == state.z[i] or state.h[state.z[i]] <= 1:
                    continue
                cnt = state.neighbor_weights(i)
                d = state.relabel_delta(i, b, cnt)
                state.apply_relabel(i, b, cnt, d)
            state.verify()
            fresh = _ProfileState(w, state.z, k)
            assert np.allclose(state.e, fresh.e, atol=1e-9)
            assert state.total == pytest.approx(fresh.total, abs=1e-8)

    def test_vectorized_deltas_match_scalar(self):
        rng = np.random.default_rng(12)
        n, k = 14, 4
        w = rng.random((n, n))
        w = np.triu(w, 1)
        w = w + w.T
        z0 = np.repeat(np.arange(k), [4, 4, 3, 3])
        state = _ProfileState(w, z0, k)
        for i in range(n):
            cnt, deltas = state.relabel_deltas_all(i)
            for b in range(k):
                if b == state.z[i]:
                    continue
                assert deltas[b] == pytest.approx(
                    state.relabel_delta(i, b, cnt), abs=1e-9
                )


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
        import json

        obj = json.loads(fit.to_json())
        assert obj["k"] == 2
        assert len(obj["assignment"]) == 4
        assert "saturated" in obj and "rho_hat" in obj


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
            ex = oracle_mple(p, 2, exhaustive=True)
            loc = oracle_mple(p, 2, restarts=10, seed=t)
            if abs(loc.divergence - ex.divergence) < 1e-9:
                hits += 1
            assert loc.divergence >= ex.divergence - 1e-9
        assert hits >= 18

    def test_divergence_nonnegative(self):
        rng = np.random.default_rng(19)
        pm = rng.uniform(0.1, 0.9, size=(8, 8))
        pm = (pm + pm.T) / 2
        p = self.make_probabilities(pm)
        z = CommunityAssignment(z=np.array([1, 1, 2, 2, 1, 2, 1, 2]), k=2)
        assert oracle_divergence(p, z) >= 0.0
