import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonfit import (
    AdjacencyMatrix,
    ConfigError,
    DomainError,
    EdgeProbabilityMatrix,
    LatentSample,
    ModelError,
    edge_density,
    edge_probabilities,
    graphon_by_name,
    mple_search,
    oracle_mple,
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

    @pytest.mark.parametrize("xi", [[0.5], [[0.2, 0.4], [0.6, 0.8]]])
    def test_rejects_bad_shape(self, xi):
        with pytest.raises(DomainError, match="1-d vector of length >= 2"):
            LatentSample(xi=np.array(xi), seed=0)


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
        # nan passed a rho_n <= 0 check and made every p nan; inf read as a
        # model violation
        xi = sample_latents(4, seed=2)
        for rho in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="rho_n=.* finite positive"):
                edge_probabilities(graphon_by_name("constant"), xi, rho)

    def test_matrix_validation(self):
        with pytest.raises(ModelError):
            # an exact-1 entry is outside the open interval
            EdgeProbabilityMatrix(p=np.array([[0.0, 1.0], [1.0, 0.0]]), rho_n=0.5)
        with pytest.raises(DomainError):
            EdgeProbabilityMatrix(p=np.array([[0.0, 0.5], [0.4, 0.0]]), rho_n=0.5)

    def test_rejects_shape_diagonal_and_rho(self):
        p = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(DomainError, match="square"):
            EdgeProbabilityMatrix(p=np.zeros((2, 3)), rho_n=0.5)
        with pytest.raises(DomainError, match="zero diagonal"):
            EdgeProbabilityMatrix(p=p + 0.1 * np.eye(2), rho_n=0.5)
        for rho in (0.0, 1.0):
            with pytest.raises(DomainError, match="rho_n"):
                EdgeProbabilityMatrix(p=p, rho_n=rho)

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

    def test_draws_one_uniform_per_pair_above_the_diagonal(self):
        # pair i < j is an edge when the stream's (i, j) uniform falls below p_ij
        xi = sample_latents(25, seed=8)
        p = edge_probabilities(graphon_by_name("cosine"), xi, 0.4)
        u = sampling.make_rng(8, sampling._ADJACENCY_STREAM).uniform(size=(25, 25))
        iu, ju = np.triu_indices(25, k=1)
        a = sample_adjacency(p, seed=8).a
        assert np.array_equal(a[iu, ju], u[iu, ju] < p.p[iu, ju])
        assert np.array_equal(a, a.T)

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

    def test_rejects_bad_shape_and_values(self):
        with pytest.raises(DomainError, match="square"):
            AdjacencyMatrix(a=np.zeros((2, 3), dtype=np.uint8))
        two = np.zeros((3, 3), dtype=np.uint8)
        two[0, 1] = two[1, 0] = 2
        with pytest.raises(DomainError, match="0/1"):
            AdjacencyMatrix(a=two)


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

    def test_edges_listed_row_major(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        for i, j in [(1, 2), (0, 3), (0, 1)]:
            a[i, j] = a[j, i] = 1
        assert AdjacencyMatrix(a=a).to_edge_list() == "4 3\n0 1\n0 3\n1 2\n"

    @pytest.mark.parametrize("text", ["", "  \n", "5\n"])
    def test_no_header(self, text):
        with pytest.raises(DomainError, match="'n m' header"):
            AdjacencyMatrix.from_edge_list(text)

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


@pytest.mark.parametrize("entry", ["sample_latents", "sample_adjacency", "mple_search",
                                   "oracle_mple"])
def test_negative_seed_raises_config_error(entry):
    # each entry point that draws refuses the seed as the CLI and sweep
    # configs do, not with numpy's ValueError
    p = edge_probabilities(graphon_by_name("cosine"), sample_latents(8, seed=1), 0.3)
    call = {
        "sample_latents": lambda: sample_latents(8, -1),
        "sample_adjacency": lambda: sample_adjacency(p, -1),
        "mple_search": lambda: mple_search(sample_adjacency(p, 1), 2, seed=-1),
        "oracle_mple": lambda: oracle_mple(p, 2, seed=-1),
    }[entry]
    with pytest.raises(ConfigError, match="seed=-1 must be >= 0"):
        call()
