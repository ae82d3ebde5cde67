import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonfit import (
    AdjacencyMatrix,
    CommunityAssignment,
    DomainError,
    EdgeProbabilityMatrix,
    FitResult,
    ModelError,
    Partition,
    StepGraphon,
    bernoulli_kl,
    block_stats,
    build_estimator,
    edge_density,
    edge_probabilities,
    graphon_by_name,
    graphon_mse,
    kl_quadratic_bound,
    kl_taylor_check,
    mple_search,
    normalized_kl_risk,
    oracle_rank_assignment,
    oracle_risk,
    profile_log_likelihood,
    sample_adjacency,
    sample_latents,
)
import graphonfit.risk as risk
from graphonfit.blockmodel import _kl_terms, oracle_block_means, oracle_divergence
from graphonfit.graphons import midpoint_grid, random_partition


def fit_at(a, z):
    """FitResult for a fixed assignment (no search)."""
    return FitResult(
        assignment=z,
        stats=block_stats(a, z),
        profile_loglik=profile_log_likelihood(a, z),
        rho_hat=edge_density(a),
        restarts_used=0,
        swap_count=0,
        ties=False,
    )


def probabilities(pm, rho=0.5):
    pm = np.asarray(pm, dtype=float)
    np.fill_diagonal(pm, 0.0)
    return EdgeProbabilityMatrix(p=pm, rho_n=rho)


class TestBuildEstimator:
    def test_complete_graph(self):
        a = AdjacencyMatrix(a=(np.ones((4, 4)) - np.eye(4)).astype(np.uint8))
        z = CommunityAssignment(z=np.ones(4, dtype=int), k=1)
        est = build_estimator(fit_at(a, z))
        assert est.values[0, 0] == 1.0
        assert est(0.3, 0.7) == 1.0

    def test_planted_heights(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        for i, j in [(0, 1), (2, 3), (0, 2), (0, 3)]:
            a[i, j] = a[j, i] = 1
        z = CommunityAssignment(z=np.array([1, 1, 2, 2]), k=2)
        est = build_estimator(fit_at(AdjacencyMatrix(a=a), z))
        # block averages (1, 1, 0.5) over density 4/6
        assert est.values[0, 0] == pytest.approx(1.5)
        assert est.values[1, 1] == pytest.approx(1.5)
        assert est.values[0, 1] == pytest.approx(0.75)

    def test_empty_graph_rejected(self):
        a = AdjacencyMatrix(a=np.zeros((4, 4), dtype=np.uint8))
        z = CommunityAssignment(z=np.array([1, 1, 2, 2]), k=2)
        with pytest.raises(ModelError):
            build_estimator(fit_at(a, z))


class TestNormalizedKLRisk:
    def single_block_fit(self, n, abar):
        """A FitResult with one block whose average is pinned to abar."""
        a = np.zeros((n, n), dtype=np.uint8)
        a[0, 1] = a[1, 0] = 1
        z = CommunityAssignment(z=np.ones(n, dtype=int), k=1)
        fit = fit_at(AdjacencyMatrix(a=a), z)
        stats = fit.stats
        doctored = type(stats)(
            pair_counts=stats.pair_counts,
            edge_sums=stats.pair_counts * abar,
            averages=np.array([[abar]]),
            saturated=np.array([[abar in (0.0, 1.0)]]),
        )
        return FitResult(
            assignment=z, stats=doctored, profile_loglik=0.0,
            rho_hat=fit.rho_hat, restarts_used=0, swap_count=0, ties=False,
        )

    def test_perfect_fit_zero(self):
        fit = self.single_block_fit(6, 0.5)
        p = probabilities(np.full((6, 6), 0.5))
        assert normalized_kl_risk(p, fit) == pytest.approx(0.0, abs=1e-14)

    def test_frozen_single_block_value(self):
        fit = self.single_block_fit(6, 0.25)
        p = probabilities(np.full((6, 6), 0.5))
        # D(0.5 || 0.25) / 0.5
        assert normalized_kl_risk(p, fit) == pytest.approx(0.287682072452, abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for seed in range(5):
            xi = sample_latents(20, seed)
            p = edge_probabilities(graphon_by_name("cosine"), xi, 0.4)
            a = sample_adjacency(p, seed)
            fit = mple_search(a, 2, restarts=2, seed=seed)
            assert normalized_kl_risk(p, fit) >= 0.0

    def test_all_saturated_rejected(self):
        fit = self.single_block_fit(6, 1.0)
        p = probabilities(np.full((6, 6), 0.5))
        with pytest.raises(ModelError):
            normalized_kl_risk(p, fit)

    def test_n_mismatch_rejected(self):
        fit = self.single_block_fit(6, 0.5)
        with pytest.raises(DomainError):
            normalized_kl_risk(probabilities(np.full((7, 7), 0.5)), fit)


class TestOracleRisk:
    def test_block_constant_zero(self):
        labels = np.array([1, 1, 2, 2])
        pm = np.where(labels[:, None] == labels[None, :], 0.6, 0.2)
        p = probabilities(pm.astype(float))
        z = CommunityAssignment(z=labels, k=2)
        assert oracle_risk(p, z) == pytest.approx(0.0, abs=1e-14)

    def test_constant_zero_any_assignment(self):
        p = probabilities(np.full((6, 6), 0.3))
        z = CommunityAssignment(z=np.array([1, 2, 1, 2, 1, 2]), k=2)
        assert oracle_risk(p, z) == pytest.approx(0.0, abs=1e-14)

    def test_cross_block_brute_force(self):
        pm = np.full((4, 4), 0.5)
        cross = {(0, 2): 0.1, (0, 3): 0.2, (1, 2): 0.3, (1, 3): 0.4}
        for (i, j), v in cross.items():
            pm[i, j] = pm[j, i] = v
        p = probabilities(pm)
        z = CommunityAssignment(z=np.array([1, 1, 2, 2]), k=2)
        # independent scalar oracle: within pairs contribute 0, cross vs 0.25
        expect_num = sum(bernoulli_kl(v, 0.25) for v in cross.values())
        expect_den = 0.5 * 2 + sum(cross.values())
        assert oracle_risk(p, z) == pytest.approx(expect_num / expect_den, abs=1e-12)

    def test_n_mismatch_rejected(self):
        z = CommunityAssignment(z=np.array([1, 1, 2, 2, 1, 2]), k=2)
        with pytest.raises(DomainError):
            oracle_risk(probabilities(np.full((7, 7), 0.3)), z)


# Frozen copies of the n x n gathers that _pair_divergence replaced; the
# risks must reproduce them bit for bit.
def frozen_normalized_kl_risk(p, fit):
    zi = fit.assignment.z - 1
    theta = fit.stats.averages[zi[:, None], zi[None, :]]
    unsat = ~fit.stats.saturated[zi[:, None], zi[None, :]]
    iu = np.triu_indices(p.n, k=1)
    mask = unsat[iu]
    pe = p.p[iu][mask]
    return float(_kl_terms(pe, theta[iu][mask]).sum() / pe.sum())


def frozen_oracle_divergence(p, z):
    pbar = oracle_block_means(p, z)
    theta = pbar[z.z[:, None] - 1, z.z[None, :] - 1]
    iu = np.triu_indices(p.n, k=1)
    return float(_kl_terms(p.p[iu], theta[iu]).sum())


def frozen_oracle_risk(p, z):
    iu = np.triu_indices(p.n, k=1)
    return frozen_oracle_divergence(p, z) / float(p.p[iu].sum())


class TestPairDivergenceMatchesFrozenGathers:
    @pytest.mark.parametrize("k", [2, 3, 5, 8, 13, 20, 29, 40])
    def test_random_networks(self, k):
        rng = np.random.default_rng(k)
        saturated = 0
        for case in range(6):
            n = int(rng.integers(2 * k + 2, 2 * k + 60))
            sizes = 2 + rng.multinomial(n - 2 * k, np.full(k, 1.0 / k))
            z = CommunityAssignment(z=rng.permutation(np.repeat(np.arange(1, k + 1), sizes)), k=k)
            f = graphon_by_name(("cosine", "product", "step")[case % 3])
            # the sparse half leaves many blocks without an edge: saturated
            rho = (0.02, 0.6)[case % 2] / f.upper_bound
            p = edge_probabilities(f, sample_latents(n, 100 * k + case), rho)
            fit = fit_at(sample_adjacency(p, 100 * k + case), z)
            saturated += int(fit.stats.saturated.sum())
            assert oracle_divergence(p, z) == frozen_oracle_divergence(p, z)
            assert oracle_risk(p, z) == frozen_oracle_risk(p, z)
            if fit.stats.saturated.all():
                with pytest.raises(ModelError):
                    normalized_kl_risk(p, fit)
            else:
                assert normalized_kl_risk(p, fit) == frozen_normalized_kl_risk(p, fit)
        assert saturated > 0


def brute_force_mse(truth, step, order, grid):
    g = midpoint_grid(grid)
    h = np.asarray(step.partition.h)[list(order)]
    v = step.values[np.ix_(order, order)]
    permuted = StepGraphon(Partition(tuple(int(x) for x in h)), v)
    diff = truth(g[:, None], g[None, :]) - permuted(g[:, None], g[None, :])
    return float((diff * diff).mean())


# Frozen copy of the one-order-at-a-time alignment search that the batched
# kernel replaced; graphon_mse must reproduce it bit for bit.
def scalar_order_mse(order, est, s1, s2_total, grid):
    h = np.asarray(est.partition.h, dtype=np.int64)[order]
    v = est.values[np.ix_(order, order)]
    n = h.sum()
    edges = np.concatenate([[0.0], np.cumsum(h) / n])
    cuts = np.searchsorted(midpoint_grid(grid), edges[:-1], side="right")
    cuts = np.concatenate([cuts, [grid]])
    p = s1[np.ix_(cuts, cuts)]
    cell1 = p[1:, 1:] - p[:-1, 1:] - p[1:, :-1] + p[:-1, :-1]
    counts = np.diff(cuts)
    cell_n = np.outer(counts, counts).astype(float)
    sq = s2_total - 2.0 * (v * cell1).sum() + (v * v * cell_n).sum()
    return max(0.0, float(sq / (grid * grid)))


def scalar_graphon_mse(truth, step, grid, alignment):
    k = step.partition.k
    tg = truth.grid_values(grid)
    s1 = np.zeros((grid + 1, grid + 1))
    s1[1:, 1:] = tg.cumsum(axis=0).cumsum(axis=1)
    s2_total = float((tg**2).cumsum(axis=0).cumsum(axis=1)[-1, -1])

    def mse(order):
        return scalar_order_mse(order, step, s1, s2_total, grid)

    if alignment == "identity":
        return mse(np.arange(k))
    h = np.asarray(step.partition.h, dtype=float)
    degree_order = np.argsort(step.values @ (h / h.sum()), kind="stable")
    if alignment == "degree_sort":
        return mse(degree_order)
    if k <= 8:
        best = math.inf
        for perm in itertools.permutations(range(k)):
            best = min(best, mse(np.array(perm)))
        return best
    best = math.inf
    for start in (np.arange(k), degree_order):
        order = start.copy()
        cur = mse(order)
        improved = True
        while improved:
            improved = False
            for a in range(k - 1):
                for b in range(a + 1, k):
                    order[a], order[b] = order[b], order[a]
                    cand = mse(order)
                    if cand < cur - 1e-15:
                        cur = cand
                        improved = True
                    else:
                        order[a], order[b] = order[b], order[a]
        best = min(best, cur)
    return best


class TestGraphonMSE:
    def test_self_zero(self):
        step = StepGraphon(Partition((3, 5)), np.array([[1.2, 0.4], [0.4, 0.9]]))
        assert graphon_mse(step.as_graphon(), step, grid=128, alignment="identity") == 0.0

    def test_constants(self):
        truth = graphon_by_name("constant")
        step = StepGraphon(Partition((4, 4)), np.full((2, 2), 0.5))
        for al in ("identity", "degree_sort", "block_permutation_search"):
            assert graphon_mse(truth, step, grid=128, alignment=al) == pytest.approx(0.25)

    def test_label_swap_recovered(self):
        # Distinct diagonal values so a label swap actually changes the picture
        # (a [[a,b],[b,a]] matrix is invariant under simultaneous permutation).
        v = np.array([[1.5, 0.5], [0.5, 0.9]])
        truth = StepGraphon(Partition((5, 5)), v).as_graphon()
        swapped = StepGraphon(Partition((5, 5)), v[::-1, ::-1].copy())
        ident = graphon_mse(truth, swapped, grid=128, alignment="identity")
        aligned = graphon_mse(truth, swapped, grid=128, alignment="block_permutation_search")
        assert ident > 0.05
        assert aligned == pytest.approx(0.0, abs=1e-12)
        # Unequal widths: permutation must also reorder the interval lengths.
        truth2 = StepGraphon(Partition((4, 6)), v).as_graphon()
        uneven = StepGraphon(Partition((6, 4)), v[::-1, ::-1].copy())
        ident2 = graphon_mse(truth2, uneven, grid=256, alignment="identity")
        aligned2 = graphon_mse(truth2, uneven, grid=256, alignment="block_permutation_search")
        assert ident2 > 0.05
        assert aligned2 == pytest.approx(0.0, abs=1e-12)

    def test_prefix_sums_match_brute_force(self):
        rng = np.random.default_rng(4)
        truth = graphon_by_name("cosine")
        for _ in range(5):
            k = int(rng.integers(2, 5))
            sizes = tuple(int(s) for s in rng.integers(2, 7, size=k))
            v = rng.uniform(0, 2, size=(k, k))
            step = StepGraphon(Partition(sizes), (v + v.T) / 2)
            fast = graphon_mse(truth, step, grid=128, alignment="identity")
            slow = brute_force_mse(truth, step, tuple(range(k)), 128)
            assert fast == pytest.approx(slow, abs=1e-10)
            best_fast = graphon_mse(truth, step, grid=128,
                                    alignment="block_permutation_search")
            best_slow = min(
                brute_force_mse(truth, step, perm, 128)
                for perm in itertools.permutations(range(k))
            )
            assert best_fast == pytest.approx(best_slow, abs=1e-10)

    def test_greedy_beyond_eight_blocks(self):
        rng = np.random.default_rng(5)
        k = 10
        sizes = tuple([3] * k)
        v = rng.uniform(0, 2, size=(k, k))
        step = StepGraphon(Partition(sizes), (v + v.T) / 2)
        truth = graphon_by_name("bilinear")
        ident = graphon_mse(truth, step, grid=128, alignment="identity")
        greedy = graphon_mse(truth, step, grid=128, alignment="block_permutation_search")
        assert greedy <= ident + 1e-12

    def test_validation(self):
        step = StepGraphon(Partition((2, 2)), np.eye(2))
        with pytest.raises(DomainError):
            graphon_mse(graphon_by_name("constant"), step, grid=32)
        with pytest.raises(DomainError):
            graphon_mse(graphon_by_name("constant"), step, alignment="spectral")

    def test_stepfunction_truth_recovery(self):
        # fitting the true labels of a 2-block truth drives the MSE to the
        # sampling-noise floor
        truth = graphon_by_name("step")
        n, rho, seed = 100, 0.3, 21
        xi = sample_latents(n, seed)
        p = edge_probabilities(truth, xi, rho)
        a = sample_adjacency(p, seed)
        true_z = CommunityAssignment(z=np.where(xi.xi < 0.5, 1, 2), k=2)
        fit = fit_at(a, true_z)
        est = build_estimator(fit)
        mse = graphon_mse(truth, est, grid=256, alignment="block_permutation_search")
        # noise floor: 3x the worst per-block binomial variance of the
        # rescaled block averages
        stats = fit.stats
        pbar = stats.averages
        floor = 3.0 * float(
            np.max(pbar * (1 - pbar) / stats.pair_counts) / rho**2
        )
        boundary = 4.0 / n  # latent/interval mismatch near the block edge
        assert mse <= floor + boundary


ALIGNMENTS = ("identity", "degree_sort", "block_permutation_search")


def random_step(k, seed, tied=False, jitter=0.0):
    """Symmetric k-block step graphon with uneven widths 2..9."""
    rng = np.random.default_rng(seed)
    sizes = tuple(int(s) for s in rng.integers(2, 10, size=k))
    if tied:
        v = rng.choice([0.25, 0.75, 1.25], size=(k, k))
        v += jitter * rng.uniform(-1, 1, size=(k, k))
    else:
        v = rng.uniform(0, 2, size=(k, k))
    return StepGraphon(Partition(sizes), np.triu(v) + np.triu(v, 1).T)


# The greedy cases (k > 8) fall on both sides of the interval-table budget;
# test_greedy_cases_take_both_paths checks that they do.
RANDOM_CASES = [
    (2, 64, "cosine"), (3, 256, "bilinear"), (4, 64, "product"),
    (5, 256, "step"), (6, 64, "cosine"), (7, 64, "bilinear"),
    (8, 256, "cosine"),  # exhaustive branch
    (9, 64, "cosine"), (10, 256, "bilinear"), (11, 64, "product"),
    (12, 256, "cosine"), (40, 64, "cosine"),  # greedy branch, interval table
    (16, 256, "product"), (24, 256, "cosine"),  # greedy branch, corner gather
]
TIED_CASES = [(6, 256), (10, 64), (11, 256), (12, 64), (14, 256), (16, 256)]


def interval_path(step, grid):
    """The greedy branch's path by its documented rule, from a count made
    here: 'table' when the distinct midpoint cuts of every block width at
    every start, paired, fit risk._TABLE_CELLS, else 'corner'."""
    h = [int(x) for x in step.partition.h]
    n, mid = sum(h), midpoint_grid(grid)
    cuts = [int(np.searchsorted(mid, s / n, side="right")) for s in range(n + 1)]
    seen = {(cuts[s], cuts[s + w]) for w in set(h) for s in range(n - w + 1)}
    return "table" if len(seen) ** 2 <= risk._TABLE_CELLS else "corner"


@pytest.fixture
def tables(monkeypatch):
    """The interval tables graphon_mse builds, None where it keeps the
    corner gather, one per call that reaches the greedy branch."""
    built = []

    def recording(*args):
        built.append(build(*args))
        return built[-1]

    build = risk._interval_table
    monkeypatch.setattr(risk, "_interval_table", recording)
    return built


def paths_taken(tables):
    return ["corner" if t is None else "table" for t in tables]


class TestGraphonMSEMatchesScalarSearch:
    @pytest.mark.parametrize("k, grid, truth_name", RANDOM_CASES)
    def test_random_steps(self, k, grid, truth_name, tables):
        step = random_step(k, seed=100 + k)
        truth = graphon_by_name(truth_name)
        for al in ALIGNMENTS:
            assert graphon_mse(truth, step, grid=grid, alignment=al) == \
                scalar_graphon_mse(truth, step, grid, al)
        assert paths_taken(tables) == ([] if k <= 8 else [interval_path(step, grid)])

    @pytest.mark.parametrize("jitter", [0.0, 1e-12])
    @pytest.mark.parametrize("k, grid", TIED_CASES)
    def test_tied_values(self, k, grid, jitter, tables):
        # The truth is the estimate with its blocks shuffled and every height
        # drawn from three values, exactly or up to a 1e-12 jitter, so many
        # orders score alike or within about 1e-14 of each other and the
        # 1e-15 rule decides which swap the descent takes: a threshold of 0,
        # 1e-13 or 1e-9 changes the result of at least one greedy case here.
        step = random_step(k, seed=200 + k, tied=True, jitter=jitter)
        perm = np.random.default_rng(k).permutation(k)
        truth = StepGraphon(
            Partition(tuple(step.partition.h[i] for i in perm)),
            step.values[np.ix_(perm, perm)],
        ).as_graphon()
        for al in ALIGNMENTS:
            assert graphon_mse(truth, step, grid=grid, alignment=al) == \
                scalar_graphon_mse(truth, step, grid, al)
        assert paths_taken(tables) == ([] if k <= 8 else [interval_path(step, grid)])

    def test_greedy_cases_take_both_paths(self):
        random = {interval_path(random_step(k, seed=100 + k), grid)
                  for k, grid, _ in RANDOM_CASES if k > 8}
        tied = {interval_path(random_step(k, seed=200 + k, tied=True), grid)
                for k, grid in TIED_CASES if k > 8}
        assert random == tied == {"table", "corner"}

    def test_greedy_block_with_no_grid_cells(self, tables):
        # 308 nodes on 64 midpoints: a width-2 block spans 0.0065 < 1/64, so
        # at most starts it covers no midpoint and the table holds
        # zero-length intervals.
        h = (40, 2, 44, 34, 40, 2, 38, 36, 30, 42)
        v = np.random.default_rng(4).uniform(0, 2, size=(10, 10))
        step = StepGraphon(Partition(h), v + v.T)
        truth = graphon_by_name("cosine")
        al = "block_permutation_search"
        assert graphon_mse(truth, step, grid=64, alignment=al) == \
            scalar_graphon_mse(truth, step, 64, al)
        (table,) = tables
        assert 0.0 in table.count

    def test_exhaustive_k8_timing_gate(self):
        # Scoring all 8! orders one at a time took about 3 s at grid 256.
        step = random_step(8, seed=108)
        truth = graphon_by_name("cosine")
        t0 = time.perf_counter()
        graphon_mse(truth, step, grid=256, alignment="block_permutation_search")
        assert time.perf_counter() - t0 < 1.0


def shuffled_truth(step, seed):
    """The step graphon with its blocks in a random order, as a truth."""
    perm = np.random.default_rng(seed).permutation(step.partition.k)
    return StepGraphon(
        Partition(tuple(step.partition.h[i] for i in perm)), step.values[np.ix_(perm, perm)]
    ).as_graphon()


class TestExhaustiveScreen:
    """For k <= 8 the aligned MSE screens all k! orders from a table of cell
    terms and rescores only the near-minimal ones with the exact kernel; each
    result must equal the frozen one-order-at-a-time search bit for bit."""

    @staticmethod
    def assert_matches_scalar(truth, step, grid):
        al = "block_permutation_search"
        assert graphon_mse(truth, step, grid=grid, alignment=al) == \
            scalar_graphon_mse(truth, step, grid, al)

    @pytest.mark.parametrize("k", [1, 2, 7, 8])
    def test_random_steps(self, k):
        self.assert_matches_scalar(graphon_by_name("product"), random_step(k, seed=300 + k), 64)

    def test_block_with_no_grid_cells(self):
        # 162 nodes on 64 midpoints: in the fitted order the width-2 block,
        # the narrowest a partition allows, covers no midpoint, so its row
        # and column of cells are empty.
        h = np.array([42, 2, 44, 34, 40])
        counts = np.diff(np.searchsorted(midpoint_grid(64), np.cumsum(h) / h.sum(), "right"))
        assert 0 in counts
        v = np.random.default_rng(3).uniform(0, 2, size=(5, 5))
        step = StepGraphon(Partition(tuple(int(x) for x in h)), v + v.T)
        self.assert_matches_scalar(graphon_by_name("cosine"), step, 64)

    def test_all_heights_equal(self):
        # every order gives the same step function, so all 8! orders tie up
        # to rounding and all of them go through the exact kernel
        step = StepGraphon(random_step(8, seed=9).partition, np.full((8, 8), 0.7))
        self.assert_matches_scalar(graphon_by_name("bilinear"), step, 64)

    @pytest.mark.parametrize("jitter", [0.0, 1e-12])
    @pytest.mark.parametrize("k", [7, 8])
    def test_tied_values(self, k, jitter):
        # three height values, exactly or up to 1e-12, so many orders score
        # alike and the screen must keep every one that could be the least
        step = random_step(k, seed=200 + k, tied=True, jitter=jitter)
        self.assert_matches_scalar(shuffled_truth(step, k), step, 256)

    def test_exact_kernel_scores_few_orders(self, monkeypatch):
        scored = []

        def counting(orders, *args):
            scored.append(len(orders))
            return mse_for_orders(orders, *args)

        mse_for_orders = risk._mse_for_orders
        monkeypatch.setattr(risk, "_mse_for_orders", counting)
        graphon_mse(graphon_by_name("cosine"), random_step(8, seed=108), grid=256)
        assert 0 < sum(scored) < 100


def many_keys_step():
    """A k = 8 step graphon with the block sizes of a 1,000-node fit, 101-140."""
    rng = np.random.default_rng(7)
    h = tuple(int(x) for x in rng.integers(101, 141, size=8))
    v = rng.uniform(0, 2, size=(8, 8))
    return StepGraphon(Partition(h), np.triu(v) + np.triu(v, 1).T)


def key_count(step):
    """The screen's (block, start) keys: per block, the distinct sums of the
    subsets of the other blocks' sizes."""
    h = step.partition.h
    return sum(len({sum(c) for r in range(len(h)) for c in itertools.combinations(others, r)})
               for others in (h[:a] + h[a + 1:] for a in range(len(h))))


class TestScreenAgainstAllOrders:
    """The k <= 8 screen against the exact kernel scored on all k! orders in
    stacks, and its memory: one K x K table over K keys."""

    @pytest.mark.parametrize("step", [random_step(3, seed=303), random_step(5, seed=305),
                                      random_step(8, seed=308), many_keys_step()],
                             ids=["k3", "k5", "k8", "k8-734-keys"])
    def test_equals_least_over_all_orders(self, step):
        truth, grid, k = graphon_by_name("cosine"), 256, step.partition.k
        tg = truth.grid_values(grid)
        s1 = np.zeros((grid + 1, grid + 1))
        s1[1:, 1:] = tg.cumsum(axis=0).cumsum(axis=1)
        s2_total = float((tg**2).cumsum(axis=0).cumsum(axis=1)[-1, -1])
        n = sum(step.partition.h)
        cut = np.searchsorted(midpoint_grid(grid), np.arange(n + 1) / n, side="right")
        orders = np.array(list(itertools.permutations(range(k))))
        batch, work = risk._BATCH_CELLS // (k + 1) ** 2, risk._Workspace()
        least = min(
            float(risk._mse_for_orders(orders[i:i + batch], step, s1, s2_total, cut, work).min())
            for i in range(0, len(orders), batch))
        assert graphon_mse(truth, step, grid=grid) == least

    def test_pair_table_memory(self, warm_peak):
        step = many_keys_step()
        keys = key_count(step)
        # 734 keys, a 4.1 MiB table, not a whole number of the 64-key tiles
        assert keys == 734
        # a fresh copy of the truth per call, so its prefix sums count too
        peak = warm_peak(lambda: graphon_mse(dataclasses.replace(graphon_by_name("cosine")),
                                             step, grid=256))
        # one K x K table and 2.5 MiB for the rest: a second K x K array fails
        assert peak <= 8 * keys**2 + 2.5 * 2**20


class TestMidpointCut:
    """graphon_mse cuts the grid's midpoints at one array per call: cut[s]
    counts the midpoints below a block edge after s of the n nodes, and a
    midpoint sitting exactly on the edge goes to the lower block."""

    def test_cut_at_every_prefix_sum(self, monkeypatch):
        cuts = []

        def recording(orders, est, s1, s2_total, cut, *rest):
            cuts.append(cut)
            return kernel(orders, est, s1, s2_total, cut, *rest)

        kernel = risk._mse_for_orders
        monkeypatch.setattr(risk, "_mse_for_orders", recording)
        rng = np.random.default_rng(41)
        h = rng.multinomial(128 - 2 * 12, np.full(12, 1 / 12)) + 2  # n = 128
        v = rng.uniform(0, 2, size=(12, 12))
        step = StepGraphon(Partition(tuple(int(x) for x in h)), v + v.T)
        graphon_mse(graphon_by_name("cosine"), step, grid=64, alignment="identity")
        (cut,) = cuts
        orders = np.array([rng.permutation(12) for _ in range(200)])
        s = np.concatenate([[0], np.cumsum(h[orders], axis=1).ravel()])
        mid = midpoint_grid(64)
        assert np.array_equal(cut[s], np.searchsorted(mid, s / 128, side="right"))
        # an odd s puts a midpoint, (2i + 1) / 128, exactly on the block edge
        odd = s[s % 2 == 1]
        assert odd.size > 100 and np.isin(odd / 128, mid).all()


class TestMseWorkspace:
    """_mse_for_orders writes its stack-sized arrays into the caller's
    workspace: a warm call allocates none of them, and a short stack scored
    after a full one reads nothing the full one left there."""

    K, GRID = 40, 64
    CAP = risk._BATCH_CELLS // (K + 1) ** 2  # 19 orders, graphon_mse's stack cap

    @pytest.fixture(scope="class")
    def kernel_args(self):
        step = random_step(self.K, seed=140)
        tg = graphon_by_name("cosine").grid_values(self.GRID)
        s1 = np.zeros((self.GRID + 1, self.GRID + 1))
        s1[1:, 1:] = tg.cumsum(axis=0).cumsum(axis=1)
        s2_total = float((tg**2).cumsum(axis=0).cumsum(axis=1)[-1, -1])
        n = sum(step.partition.h)
        cut = np.searchsorted(midpoint_grid(self.GRID), np.arange(n + 1) / n, side="right")
        return step, s1, s2_total, cut

    @staticmethod
    def paths(kernel_args):
        """The kernel's two inputs for its cell sums: none (the corner
        gather) and the call's interval table."""
        step, s1, _, cut = kernel_args
        table = risk._interval_table(step, s1, cut)
        assert table is not None
        return None, table

    def orders(self, count, seed):
        rng = np.random.default_rng(seed)
        return np.array([rng.permutation(self.K) for _ in range(count)])

    def test_warm_stack_allocates_no_stack_array(self, kernel_args, warm_peak):
        orders = self.orders(self.CAP, seed=1)
        for table in self.paths(kernel_args):
            work = risk._Workspace()
            peak = warm_peak(lambda: risk._mse_for_orders(orders, *kernel_args, work, table))
            # One (CAP, k, k) float array, the smallest stack-sized one (and
            # under a (CAP, k+1, k+1) one), so any single stack-sized temporary
            # fails this.  numpy's ufunc iterator buffers, about 155 KB at
            # most (the broadcast index adds), pass.
            assert peak < self.CAP * self.K * self.K * 8

    def test_reused_workspace_leaves_no_stale_values(self, kernel_args):
        step, s1, s2_total, _ = kernel_args
        for table in self.paths(kernel_args):
            work = risk._Workspace()
            full = risk._mse_for_orders(self.orders(self.CAP, seed=2), *kernel_args, work, table)
            kept = full.copy()
            short = self.orders(3, seed=3)
            reused = risk._mse_for_orders(short, *kernel_args, work, table)
            fresh = risk._mse_for_orders(short, *kernel_args, risk._Workspace(), table)
            assert np.array_equal(reused, fresh)
            assert reused.tolist() == [scalar_order_mse(o, step, s1, s2_total, self.GRID)
                                       for o in short]
            # what a call returns is its own, not a view of the workspace
            assert np.array_equal(full, kept)


class TestKLTaylor:
    def test_zero_delta(self):
        lhs, bound, ok = kl_taylor_check(0.5, 0.0)
        assert (lhs, bound, ok) == (0.0, 0.0, True)

    def test_frozen_bound(self):
        lhs, bound, ok = kl_taylor_check(0.5, 0.1)
        assert ok
        quad = 0.01 / (2 * 0.5 * 0.5)
        # forward-form envelope: (2/3) * 0.2 / 0.8^3, relative to quad
        assert bound / quad == pytest.approx(0.2604166667, abs=1e-9)

    def test_asymmetric_point(self):
        lhs, bound, ok = kl_taylor_check(0.1, 0.05)
        assert ok
        assert lhs <= bound

    def test_grid(self):
        for p100 in range(5, 100, 5):
            p = p100 / 100.0
            m = min(p, 1 - p)
            for c in (0.1, 0.5, 0.9):
                for s in (1, -1):
                    _, _, ok = kl_taylor_check(p, s * c * m)
                    assert ok, (p, s * c * m)

    def test_domain(self):
        with pytest.raises(DomainError):
            kl_taylor_check(0.2, 0.25)
        with pytest.raises(DomainError):
            kl_taylor_check(1.1, 0.0)


class TestKLQuadraticBound:
    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.1, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_holds_when_first_argument_larger(self, f, g, rho):
        f, g = max(f, g), min(f, g)
        lhs, rhs, ok = kl_quadratic_bound(f, g, rho)
        assert ok, (f, g, rho, lhs, rhs)

    def test_known_violation_when_first_argument_smaller(self):
        lhs, rhs, ok = kl_quadratic_bound(0.2, 0.8, 1.0)
        assert not ok
        assert lhs == pytest.approx(0.36)
        assert rhs == pytest.approx(2 * 0.2 * bernoulli_kl(0.2, 0.8))

    def test_max_variant_holds(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            rho = rng.uniform(0.05, 0.99)
            f, g = rng.uniform(0.01, 1.0 / rho - 0.01, size=2)
            lhs, rhs, _ = kl_quadratic_bound(f, g, rho)
            scaled = rhs / (2 * f) * (2 * max(f, g))
            assert lhs <= scaled * (1 + 1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            kl_quadratic_bound(0.5, 2.5, 0.5)


class TestOrderedUniformCloseness:
    def test_expected_rank_gap(self):
        # |E xi_(i) - i/(n+1)| stays under the stated envelope
        for n in (50, 200):
            reps = 300
            gaps = np.zeros(n)
            for r in range(reps):
                xi = np.sort(sample_latents(n, 3000 + r).xi)
                gaps += np.abs(xi - np.arange(1, n + 1) / (n + 1))
            gaps /= reps
            envelope = (2 * (n + 2)) ** -0.5
            se = 4.0 / math.sqrt(12 * reps)  # crude per-position standard error
            assert gaps.max() <= envelope + se


class TestLatticeContainment:
    def test_small_partitions(self):
        rng = np.random.default_rng(7)
        for n in (10, 20, 35):
            for _ in range(30):
                k = int(rng.integers(1, n // 2 + 1))
                part = random_partition(n, k, rng)
                labels = part.quantile_of_ranks(np.arange(1, n + 1))
                cum = np.concatenate([[0], part.cum_counts()])
                for i, a in enumerate(labels, start=1):
                    assert cum[a - 1] * (n + 1) < i * n <= cum[a] * (n + 1)


class TestOracleRankRisk:
    def test_decreases_with_n(self):
        # best-blockmodel risk under the latent-rank assignment shrinks in n
        from graphonfit import balanced_partition

        wins = 0
        trials = 15
        for s in range(trials):
            risks = {}
            for n in (100, 400):
                k = math.ceil(math.sqrt(n))
                xi = sample_latents(n, 900 + s)
                p = edge_probabilities(graphon_by_name("cosine"), xi, 0.3)
                z = oracle_rank_assignment(xi, balanced_partition(n, k))
                risks[n] = oracle_risk(p, z)
            if risks[400] < risks[100]:
                wins += 1
        assert wins >= int(0.8 * trials)
