import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonfit import (
    ConfigError,
    DomainError,
    Graphon,
    Partition,
    StepGraphon,
    block_average_graphon,
    graphon_by_name,
    graphon_catalog,
    holder_certificate,
    partition_cdf,
    partition_quantile,
    stepfunction_error,
    stepfunction_error_bound,
)


def partitions(max_n=60):
    """Hypothesis strategy: random size vectors with every entry >= 2."""
    return st.lists(st.integers(2, 12), min_size=1, max_size=max_n // 2).map(
        lambda h: Partition(tuple(h))
    )


def random_partition(rng, n, k=None):
    k = k or int(rng.integers(1, n // 2 + 1))
    sizes = np.full(k, 2, dtype=int)
    for _ in range(n - 2 * k):
        sizes[int(rng.integers(0, k))] += 1
    return Partition(tuple(int(s) for s in sizes))


class TestPartition:
    def test_cdf_examples(self):
        assert partition_cdf(Partition((2, 4)), 1) == pytest.approx(1 / 3)
        assert partition_cdf(Partition((2, 4)), 0) == 0.0
        assert partition_cdf(Partition((3, 3, 4)), 2.7) == pytest.approx(0.6)

    def test_quantile_examples(self):
        p = Partition((2, 4))
        assert partition_quantile(p, 0.2) == 1
        assert partition_quantile(p, 0.4) == 2
        assert partition_quantile(p, 1.0) == 2

    def test_domain_errors(self):
        p = Partition((2, 4))
        with pytest.raises(DomainError):
            partition_cdf(p, -0.1)
        with pytest.raises(DomainError):
            partition_cdf(p, 2.5)
        with pytest.raises(DomainError):
            partition_quantile(p, 0.0)
        with pytest.raises(DomainError):
            partition_quantile(p, 1.1)
        with pytest.raises(DomainError):
            Partition((1, 5))
        with pytest.raises(DomainError):
            Partition(())

    @pytest.mark.parametrize("ranks", [[0, 1], [7], [-3, 2]])
    def test_quantile_of_ranks_range(self, ranks):
        with pytest.raises(DomainError, match="ranks must lie in 1..n"):
            Partition((2, 4)).quantile_of_ranks(ranks)

    @given(partitions())
    @settings(max_examples=60, deadline=None)
    def test_quantile_cdf_consistency(self, p):
        for a in range(1, p.k + 1):
            x = partition_cdf(p, a)
            assert partition_quantile(p, x) == a

    @given(partitions())
    @settings(max_examples=60, deadline=None)
    def test_quantile_bracketing(self, p):
        for x in (0.001, 0.25, 0.5, 0.75, 1.0):
            a = partition_quantile(p, x)
            assert 1 <= a <= p.k
            assert partition_cdf(p, a - 1) < x <= partition_cdf(p, a)

    def test_cdf_monotone_endpoints(self):
        p = Partition((3, 2, 5))
        assert partition_cdf(p, 0) == 0.0
        assert partition_cdf(p, p.k) == 1.0
        vals = [partition_cdf(p, a) for a in range(p.k + 1)]
        assert vals == sorted(vals)


class TestBlockAverage:
    def test_constant(self):
        f = graphon_by_name("constant")
        fbar = block_average_graphon(f, Partition((3, 5, 2)))
        assert np.allclose(fbar.values, 1.0)

    def test_bilinear_first_block(self):
        # average of x + y over [0, 0.5)^2 is 0.25 + 0.25
        f = graphon_by_name("bilinear")
        fbar = block_average_graphon(f, Partition((5, 5)), quad_points=64)
        assert fbar.values[0, 0] == pytest.approx(0.5, abs=1e-9)

    def test_cosine_single_block(self):
        f = graphon_by_name("cosine")
        fbar = block_average_graphon(f, Partition((10,)), quad_points=64)
        assert fbar.values[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        f = graphon_by_name("product")
        for _ in range(5):
            p = random_partition(rng, 30)
            fbar = block_average_graphon(f, p, quad_points=8)
            assert np.array_equal(fbar.values, fbar.values.T)

    def test_idempotent_on_own_partition(self):
        p = Partition((4, 2, 6))
        step = StepGraphon(p, np.array([[1.0, 0.2, 0.5], [0.2, 2.0, 0.1], [0.5, 0.1, 0.7]]))
        again = block_average_graphon(step.as_graphon(), p, quad_points=16)
        assert np.allclose(again.values, step.values, atol=1e-12)

    def test_quad_points_validated(self):
        with pytest.raises(DomainError):
            block_average_graphon(graphon_by_name("constant"), Partition((2, 2)), quad_points=1)


class TestStepfunctionError:
    def test_constant_zero(self):
        f = graphon_by_name("constant")
        fbar = block_average_graphon(f, Partition((4, 4)))
        assert stepfunction_error(f, fbar) == 0.0

    def test_halved_bilinear_envelope(self):
        # |f(x,y)-f(x',y')| = |dx+dy|/2 <= (sqrt(2)/2)*dist by Cauchy-Schwarz.
        f = Graphon(eval_fn=lambda x, y: (x + y) / 2.0, holder_alpha=1.0,
                    holder_M=math.sqrt(2.0) / 2.0, upper_bound=1.0, name="half-bilinear")
        n = 32
        p = Partition((n // 4,) * 4)
        fbar = block_average_graphon(f, p, quad_points=32)
        err = stepfunction_error(f, fbar, grid=256, norm="sup")
        assert stepfunction_error_bound(f, p) == pytest.approx(0.25)
        assert err <= 0.25

    def test_envelope_shrinks_under_refinement(self):
        f = graphon_by_name("cosine")
        coarse = Partition((40,))
        fine = Partition((2,) * 20)
        assert stepfunction_error_bound(f, fine) <= stepfunction_error_bound(f, coarse)

    def test_l2_below_sup(self):
        f = graphon_by_name("product")
        fbar = block_average_graphon(f, Partition((5, 5, 10)))
        sup = stepfunction_error(f, fbar, norm="sup")
        l2 = stepfunction_error(f, fbar, norm="L2")
        assert 0.0 < l2 <= sup

    def test_bad_norm(self):
        f = graphon_by_name("constant")
        fbar = block_average_graphon(f, Partition((2, 2)))
        with pytest.raises(DomainError):
            stepfunction_error(f, fbar, norm="L1")

    def test_grid_checked(self):
        f = graphon_by_name("constant")
        fbar = block_average_graphon(f, Partition((2, 2)))
        assert stepfunction_error(f, fbar, grid=8) == 0.0
        with pytest.raises(DomainError, match="grid must be >= 8"):
            stepfunction_error(f, fbar, grid=7)

    def test_envelope_holds_for_smooth_catalog(self):
        rng = np.random.default_rng(11)
        smooth = [g for g in graphon_catalog().values() if math.isfinite(g.holder_M)]
        assert len(smooth) == 4
        for f in smooth:
            for _ in range(4):
                n = int(rng.integers(20, 80))
                p = random_partition(rng, n)
                fbar = block_average_graphon(f, p, quad_points=16)
                err = stepfunction_error(f, fbar, grid=128, norm="sup")
                assert err <= stepfunction_error_bound(f, p) + 1e-9


class TestHolderCertificate:
    def test_constant(self):
        ok, worst = holder_certificate(graphon_by_name("constant"))
        assert ok and worst == 0.0

    def test_bilinear_true_at_sqrt2(self):
        f = graphon_by_name("bilinear")
        ok, worst = holder_certificate(f)
        assert ok
        assert worst <= math.sqrt(2.0) + 1e-9

    def test_bilinear_false_at_one(self):
        f = graphon_by_name("bilinear")
        ok, worst = holder_certificate(f, M=1.0)
        assert not ok
        assert worst == pytest.approx(math.sqrt(2.0), rel=1e-6)

    def test_grid_checked(self):
        assert holder_certificate(graphon_by_name("constant"), grid=16)[0]
        with pytest.raises(DomainError, match="grid must be >= 16"):
            holder_certificate(graphon_by_name("constant"), grid=15)

    def test_catalog_declared_constants(self):
        for name in ("constant", "bilinear", "product", "cosine"):
            ok, _ = holder_certificate(graphon_by_name(name), grid=24)
            assert ok, name


class TestCatalog:
    def test_names(self):
        assert set(graphon_catalog()) == {"constant", "bilinear", "product", "cosine", "step"}

    def test_one_instance_per_name(self):
        catalog = graphon_catalog()
        assert catalog is not graphon_catalog()
        for name, f in catalog.items():
            assert graphon_by_name(name) is f

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            graphon_by_name("mystery")

    def test_mean_one(self):
        for name, f in graphon_catalog().items():
            assert f.mean_one
            assert f.mean_estimate(256) == pytest.approx(1.0, abs=0.01), name

    def test_bounds_and_symmetry(self):
        g = np.random.default_rng(0).uniform(1e-6, 1 - 1e-6, size=(2, 200))
        for name, f in graphon_catalog().items():
            vals = f(g[0], g[1])
            assert np.all(vals >= f.lower_bound - 1e-12), name
            assert np.all(vals <= f.upper_bound + 1e-12), name
            assert np.allclose(vals, f(g[1], g[0])), name


class TestStepGraphon:
    def test_evaluation_uses_quantile(self):
        p = Partition((2, 4))
        step = StepGraphon(p, np.array([[1.0, 2.0], [2.0, 3.0]]))
        # H(1) = 1/3: x below it hits block 1, above hits block 2
        assert step(0.2, 0.2) == 1.0
        assert step(0.2, 0.9) == 2.0
        assert step(0.9, 0.9) == 3.0

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            StepGraphon(Partition((2, 2)), np.array([[1.0, 0.5], [0.4, 1.0]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError):
            StepGraphon(Partition((2, 2)), np.ones((3, 3)))

    def test_json_roundtrip(self):
        p = Partition((3, 2))
        step = StepGraphon(p, np.array([[0.1, 0.9], [0.9, 0.4]]))
        back = StepGraphon.from_json(step.to_json())
        assert back.partition.h == p.h
        assert np.array_equal(back.values, step.values)

    @pytest.mark.parametrize("text", [
        '{"h": [3, 2]}', '{"h": [3, 2.5], "values": [[0.1, 0.9], [0.9, 0.4]]}',
        '{"h": [3, 2], "values": [["0.1", 0.9], [0.9, 0.4]]}',
    ])
    def test_json_malformed(self, text):
        with pytest.raises(ConfigError):
            StepGraphon.from_json(text)
