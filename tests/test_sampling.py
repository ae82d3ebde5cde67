import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonfit import (
    AdjacencyMatrix,
    DomainError,
    EdgeProbabilityMatrix,
    LatentSample,
    ModelError,
    edge_density,
    edge_probabilities,
    graphon_by_name,
    sample_adjacency,
    sample_latents,
)
from graphonfit import sampling


class TestLatents:
    def test_determinism_and_range(self):
        a = sample_latents(5, seed=123)
        b = sample_latents(5, seed=123)
        assert np.array_equal(a.xi, b.xi)
        assert np.all((a.xi > 0) & (a.xi < 1))
        assert not np.array_equal(a.xi, sample_latents(5, seed=124).xi)

    def test_mean_concentrates(self):
        n = 10**4
        xi = sample_latents(n, seed=9)
        assert abs(xi.xi.mean() - 0.5) <= 4.0 / math.sqrt(12 * n)

    def test_boundary_draws_are_redrawn(self, monkeypatch):
        # a draw of exactly 0 or 1 has probability zero but would break the
        # open interval, so those latents alone are drawn again
        class StubRng:
            def __init__(self):
                self.draws = [np.array([0.0, 0.25, 1.0, 0.5]), np.array([0.0, 0.75]),
                              np.array([0.125])]

            def uniform(self, size):
                draw = self.draws.pop(0)
                assert draw.size == size
                return draw

        rng = StubRng()
        monkeypatch.setattr(sampling, "make_rng", lambda seed, stream: rng)
        xi = sample_latents(4, seed=0)
        assert xi.xi.tolist() == [0.125, 0.25, 0.75, 0.5]
        assert rng.draws == []

    def test_minimum_size(self):
        assert sample_latents(2, seed=0).n == 2
        with pytest.raises(DomainError):
            sample_latents(1, seed=0)

    def test_ranks(self):
        xi = LatentSample(xi=np.array([0.9, 0.1, 0.8, 0.2]), seed=0)
        assert xi.ranks().tolist() == [4, 1, 3, 2]

    def test_rejects_boundary_values(self):
        with pytest.raises(DomainError):
            LatentSample(xi=np.array([0.0, 0.5]), seed=0)


class TestEdgeProbabilities:
    def test_constant_graphon(self):
        xi = sample_latents(6, seed=1)
        p = edge_probabilities(graphon_by_name("constant"), xi, 0.3)
        off = p.p[~np.eye(6, dtype=bool)]
        assert np.all(off == 0.3)
        assert np.all(np.diag(p.p) == 0.0)

    def test_product_pointwise(self):
        xi = LatentSample(xi=np.array([0.5, 0.5]), seed=0)
        p = edge_probabilities(graphon_by_name("product"), xi, 0.2)
        # rho * f(0.5, 0.5) = 0.2 * 4 * 0.25
        assert p.p[0, 1] == pytest.approx(0.2)
        # rho * sup f >= 1 is rejected even when realized entries stay inside (0,1)
        with pytest.raises(ModelError):
            edge_probabilities(graphon_by_name("product"), xi, 0.5)

    def test_precondition_boundary(self):
        xi = sample_latents(4, seed=2)
        # sup f = 1.5 for the cosine graphon: 0.6*1.5 = 0.9 < 1 passes
        edge_probabilities(graphon_by_name("cosine"), xi, 0.6)
        with pytest.raises(ModelError):
            edge_probabilities(graphon_by_name("cosine"), xi, 0.7)

    def test_nonpositive_rho(self):
        xi = sample_latents(4, seed=2)
        with pytest.raises(DomainError):
            edge_probabilities(graphon_by_name("constant"), xi, 0.0)

    def test_matrix_validation(self):
        with pytest.raises(ModelError):
            # an exact-1 entry is outside the open interval
            EdgeProbabilityMatrix(p=np.array([[0.0, 1.0], [1.0, 0.0]]), rho_n=0.5)
        with pytest.raises(DomainError):
            EdgeProbabilityMatrix(p=np.array([[0.0, 0.5], [0.4, 0.0]]), rho_n=0.5)

    def test_csv_export(self):
        xi = sample_latents(3, seed=5)
        p = edge_probabilities(graphon_by_name("constant"), xi, 0.25)
        text = p.to_csv()
        assert len(text.strip().splitlines()) == 3
        assert "0.25" in text


class TestAdjacency:
    def test_symmetry_and_diagonal(self):
        xi = sample_latents(30, seed=3)
        p = edge_probabilities(graphon_by_name("cosine"), xi, 0.4)
        a = sample_adjacency(p, seed=3)
        assert np.array_equal(a.a, a.a.T)
        assert np.all(np.diag(a.a) == 0)
        assert np.array_equal(a.a, sample_adjacency(p, seed=3).a)

    def test_binomial_edge_count(self):
        n, rho, reps = 50, 0.2, 200
        pairs = n * (n - 1) // 2
        counts = []
        for r in range(reps):
            xi = sample_latents(n, seed=1000 + r)
            p = edge_probabilities(graphon_by_name("constant"), xi, rho)
            counts.append(sample_adjacency(p, seed=1000 + r).edge_count)
        expect = rho * pairs
        tol = 4.0 * math.sqrt(pairs * rho * (1 - rho) / reps)
        assert abs(np.mean(counts) - expect) <= tol

    def test_density_examples(self):
        full = AdjacencyMatrix(a=(np.ones((4, 4)) - np.eye(4)).astype(np.uint8))
        assert edge_density(full) == 1.0
        empty = AdjacencyMatrix(a=np.zeros((4, 4), dtype=np.uint8))
        assert edge_density(empty) == 0.0
        one = np.zeros((3, 3), dtype=np.uint8)
        one[0, 1] = one[1, 0] = 1
        assert edge_density(AdjacencyMatrix(a=one)) == pytest.approx(1 / 3)

    def test_validation(self):
        bad = np.zeros((3, 3), dtype=np.uint8)
        bad[0, 1] = 1  # asymmetric
        with pytest.raises(DomainError):
            AdjacencyMatrix(a=bad)
        loop = np.zeros((3, 3), dtype=np.uint8)
        loop[1, 1] = 1
        with pytest.raises(DomainError):
            AdjacencyMatrix(a=loop)


class TestEdgeListIO:
    def test_roundtrip(self):
        xi = sample_latents(20, seed=4)
        p = edge_probabilities(graphon_by_name("product"), xi, 0.2)
        a = sample_adjacency(p, seed=4)
        text = a.to_edge_list()
        header = text.splitlines()[0].split()
        assert header == ["20", str(a.edge_count)]
        back = AdjacencyMatrix.from_edge_list(text)
        assert np.array_equal(back.a, a.a)

    def test_malformed(self):
        with pytest.raises(DomainError):
            AdjacencyMatrix.from_edge_list("3 2\n0 1\n")  # missing an edge
        with pytest.raises(DomainError):
            AdjacencyMatrix.from_edge_list("3 1\n1 0\n")  # i >= j
        with pytest.raises(DomainError):
            AdjacencyMatrix.from_edge_list("3 1\n0 5\n")  # out of range
        with pytest.raises(DomainError):
            AdjacencyMatrix.from_edge_list("3 1\na b\n")
        with pytest.raises(DomainError, match="n >= 2"):
            AdjacencyMatrix.from_edge_list("-1 0\n")  # negative node count
        with pytest.raises(DomainError, match=r"edge \(0,1\) is listed more than once"):
            AdjacencyMatrix.from_edge_list("3 2\n0 1\n0 1\n")

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 15))
        u = np.triu(rng.random((n, n)) < 0.5, k=1)
        a = AdjacencyMatrix(a=(u | u.T).astype(np.uint8))
        assert np.array_equal(AdjacencyMatrix.from_edge_list(a.to_edge_list()).a, a.a)


class TestDensityMoments:
    def test_mean_and_variance_order(self):
        # empirical density is unbiased for rho, and its variance shrinks in n
        rho, reps = 0.2, 500
        dens = {}
        for n in (100, 200):
            vals = []
            for r in range(reps):
                xi = sample_latents(n, seed=50_000 + r)
                p = edge_probabilities(graphon_by_name("cosine"), xi, rho)
                vals.append(edge_density(sample_adjacency(p, seed=50_000 + r)))
            dens[n] = np.asarray(vals)
        mean_err = abs(dens[100].mean() - rho)
        assert mean_err <= 4.0 * dens[100].std(ddof=1) / math.sqrt(reps)
        assert dens[200].var(ddof=1) < dens[100].var(ddof=1)

    def test_block_sums_uncorrelated_given_latents(self):
        # fixed latents: edge indicators in disjoint blocks are independent
        n, reps = 40, 400
        xi = sample_latents(n, seed=77)
        p = edge_probabilities(graphon_by_name("cosine"), xi, 0.4)
        s1, s2 = [], []
        for r in range(reps):
            a = sample_adjacency(p, seed=10_000 + r).a
            s1.append(a[:10, :10].sum())
            s2.append(a[20:30, 20:30].sum())
        r = np.corrcoef(s1, s2)[0, 1]
        assert abs(r) < 4.0 / math.sqrt(reps)
