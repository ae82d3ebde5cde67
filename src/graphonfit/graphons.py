"""Graphons, integer partitions of node sets, and stepfunction approximations.

A graphon here is a bounded symmetric function on the open unit square,
evaluated through a vectorized callable, together with declared smoothness
metadata (Holder exponent/constant) and bounds.  Grid evaluation always uses
cell midpoints (i - 0.5) / m so the closed boundary is never touched.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, parse_json_object

__all__ = [
    "Graphon",
    "Partition",
    "StepGraphon",
    "balanced_partition",
    "random_partition",
    "partition_cdf",
    "partition_quantile",
    "block_average_graphon",
    "stepfunction_error",
    "stepfunction_error_bound",
    "holder_certificate",
    "graphon_catalog",
    "graphon_by_name",
    "midpoint_grid",
]


def midpoint_grid(m: int) -> np.ndarray:
    """m cell midpoints of (0,1): (i + 0.5) / m for i = 0..m-1."""
    return (np.arange(m) + 0.5) / m


@dataclass(frozen=True)
class Graphon:
    """Symmetric nonnegative function on (0,1)^2 with declared metadata.

    eval_fn must accept numpy arrays and broadcast, returning f(x, y).
    holder_M may be math.inf for non-smooth members (stepfunction truths).
    """

    eval_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)
    holder_alpha: float = 1.0
    holder_M: float = math.inf
    lower_bound: float = 0.0
    upper_bound: float = math.inf
    mean_one: bool = False
    name: str = ""
    # grid -> prefix_sums(grid), built at the first call for that grid
    _sums: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __call__(self, x, y):
        return self.eval_fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def grid_values(self, m: int) -> np.ndarray:
        """f evaluated on the m x m midpoint lattice."""
        g = midpoint_grid(m)
        return self(g[:, None], g[None, :])

    def prefix_sums(self, m: int) -> tuple[np.ndarray, float]:
        """(s1, s2_total) of the m x m grid values, built once per grid.

        s1 is the read-only, zero-padded (m+1) x (m+1) 2-d prefix sum of
        grid_values(m) and s2_total the sum of its squares.  The graphon
        keeps them for later calls, so they live and die with it.
        """
        if m not in self._sums:
            tg = self.grid_values(m)
            s1 = np.zeros((m + 1, m + 1))
            s1[1:, 1:] = tg.cumsum(axis=0).cumsum(axis=1)
            s1.setflags(write=False)
            # Column sums, then their running sum: the additions, in order, of
            # the corner of a 2-d cumulative sum, without its two m x m arrays.
            self._sums[m] = s1, float(np.cumsum((tg**2).sum(axis=0))[-1])
        return self._sums[m]

    def mean_estimate(self, m: int = 256) -> float:
        """Midpoint Riemann-sum estimate of the double integral of f."""
        return float(self.grid_values(m).mean())


@dataclass(frozen=True)
class Partition:
    """Integer partition of n into k groups of size >= 2, in group order."""

    h: tuple

    def __post_init__(self):
        h = tuple(int(a) for a in self.h)
        if len(h) == 0:
            raise DomainError("partition needs at least one group")
        if any(a < 2 for a in h):
            raise DomainError(f"all group sizes must be >= 2, got {h}")
        object.__setattr__(self, "h", h)

    @property
    def n(self) -> int:
        return sum(self.h)

    @property
    def k(self) -> int:
        return len(self.h)

    @property
    def h_max(self) -> int:
        return max(self.h)

    @property
    def h_min(self) -> int:
        return min(self.h)

    def cum_counts(self) -> np.ndarray:
        """Cumulative group sizes (integers), length k."""
        return np.cumsum(self.h)

    def boundaries(self) -> np.ndarray:
        """Interval boundaries H(0..k) in [0,1], length k+1."""
        return np.concatenate([[0.0], self.cum_counts() / self.n])

    def quantile_of_ranks(self, ranks) -> np.ndarray:
        """Exact integer form of the quantile map applied to rank/n.

        ranks are integers in 1..n; returns group labels in 1..k.
        """
        ranks = np.asarray(ranks)
        if np.any((ranks < 1) | (ranks > self.n)):
            raise DomainError("ranks must lie in 1..n")
        return np.searchsorted(self.cum_counts(), ranks, side="left") + 1


def balanced_partition(n: int, k: int) -> Partition:
    """k groups with sizes as equal as possible (larger groups first)."""
    return Partition(tuple(n // k + (1 if a < n % k else 0) for a in range(k)))


def random_partition(n: int, k: int, rng: np.random.Generator) -> Partition:
    """k groups of 2, then each of the other n - 2k nodes to a uniform group."""
    sizes = np.full(k, 2, dtype=np.int64)
    for _ in range(n - 2 * k):
        sizes[int(rng.integers(0, k))] += 1
    return Partition(sizes)


def partition_cdf(p: Partition, u: float) -> float:
    """Cumulative group-size distribution H(u) = (1/n) * sum_{a <= floor(u)} h_a."""
    if not (0 <= u <= p.k):
        raise DomainError(f"u={u} outside [0, k={p.k}]")
    a = int(math.floor(u))
    return sum(p.h[:a]) / p.n


def partition_quantile(p: Partition, x: float) -> int:
    """Generalized inverse of the cdf: smallest integer a with H(a) >= x."""
    if not (0 < x <= 1):
        raise DomainError(f"x={x} outside (0, 1]")
    cum = p.cum_counts() / p.n
    return int(np.searchsorted(cum, x, side="left")) + 1


def _quantile_labels(p: Partition, x: np.ndarray) -> np.ndarray:
    """Vectorized quantile map for x in (0,1]; 0-based labels."""
    cum = p.cum_counts() / p.n
    return np.minimum(np.searchsorted(cum, x, side="left"), p.k - 1)


@dataclass(frozen=True)
class StepGraphon:
    """Block-constant symmetric function defined by a partition and k x k heights."""

    partition: Partition
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        k = self.partition.k
        if v.shape != (k, k):
            raise DomainError(f"values must be {k}x{k}, got {v.shape}")
        if not np.allclose(v, v.T, rtol=0, atol=1e-12):
            raise DomainError("step graphon heights must be symmetric")
        v = (v + v.T) / 2.0
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __call__(self, x, y):
        lx = _quantile_labels(self.partition, np.asarray(x, dtype=float))
        ly = _quantile_labels(self.partition, np.asarray(y, dtype=float))
        return self.values[lx, ly]

    def as_graphon(self, **meta) -> Graphon:
        v = self.values
        defaults = dict(
            holder_alpha=1.0,
            holder_M=math.inf,
            lower_bound=float(v.min()),
            upper_bound=float(v.max()),
            name="step",
        )
        defaults.update(meta)
        return Graphon(eval_fn=self.__call__, **defaults)

    def to_json(self) -> str:
        return json.dumps({"h": list(self.partition.h), "values": self.values.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "StepGraphon":
        obj = parse_json_object(text, "step graphon", dict(h=[int], values=[[float]]))
        return cls(Partition(tuple(obj["h"])), np.asarray(obj["values"], dtype=float))


def block_average_graphon(f: Graphon, p: Partition, quad_points: int = 32) -> StepGraphon:
    """Replace f by its local averages over the k x k blocks induced by p.

    Each block integral uses the midpoint rule on a quad_points^2 sub-grid.
    """
    if quad_points < 2:
        raise DomainError("quad_points must be >= 2")
    b = p.boundaries()
    k = p.k
    offsets = (np.arange(quad_points) + 0.5) / quad_points
    vals = np.zeros((k, k))
    for a in range(k):
        xs = b[a] + offsets * (b[a + 1] - b[a])
        for c in range(a, k):
            ys = b[c] + offsets * (b[c + 1] - b[c])
            m = float(f(xs[:, None], ys[None, :]).mean())
            vals[a, c] = vals[c, a] = m
    return StepGraphon(p, vals)


def stepfunction_error(f: Graphon, fbar: StepGraphon, grid: int = 256, norm: str = "sup") -> float:
    """Grid-approximated norm of f - fbar over (0,1)^2."""
    if grid < 8:
        raise DomainError("grid must be >= 8")
    g = midpoint_grid(grid)
    diff = f(g[:, None], g[None, :]) - fbar(g[:, None], g[None, :])
    if norm == "sup":
        return float(np.abs(diff).max())
    if norm == "L2":
        return float(np.sqrt((diff * diff).mean()))
    raise DomainError(f"unknown norm {norm!r}")


def stepfunction_error_bound(f: Graphon, p: Partition) -> float:
    """Smoothness envelope M * (sqrt(2) * max_a h_a / n)^alpha for the sup error."""
    return f.holder_M * (math.sqrt(2.0) * p.h_max / p.n) ** f.holder_alpha


def holder_certificate(
    f: Graphon, grid: int = 32, alpha: float | None = None, M: float | None = None
):
    """Grid check of the Holder condition; returns (ok, worst_ratio).

    Heuristic: examines all pairs of midpoint-lattice points, not a proof.
    """
    if grid < 16:
        raise DomainError("grid must be >= 16")
    alpha = f.holder_alpha if alpha is None else alpha
    M = f.holder_M if M is None else M
    g = midpoint_grid(grid)
    X, Y = np.meshgrid(g, g, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    vals = f(pts[:, 0], pts[:, 1])
    worst = 0.0
    chunk = 512
    for i0 in range(0, len(pts), chunk):
        p0 = pts[i0 : i0 + chunk]
        v0 = vals[i0 : i0 + chunk]
        d2 = ((p0[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(v0[:, None] - vals[None, :]) / d2 ** (alpha / 2.0)
        ratio[d2 == 0.0] = 0.0
        worst = max(worst, float(ratio.max()))
    return worst <= M * (1 + 1e-9), worst


# ---------------------------------------------------------------------------
# Built-in catalog
# ---------------------------------------------------------------------------


def _step_eval(x, y):
    # Two equal blocks with assortative heights; integrates to one.
    return np.where((x < 0.5) == (y < 0.5), 1.4, 0.6)


_CATALOG = {
    g.name: g
    for g in (
        Graphon(lambda x, y: np.ones(np.broadcast(x, y).shape), holder_M=0.0,
                lower_bound=1.0, upper_bound=1.0, mean_one=True, name="constant"),
        # (x + y) / 2 rescaled to integrate to one, i.e. f(x, y) = x + y.
        Graphon(lambda x, y: x + y, holder_M=math.sqrt(2.0), upper_bound=2.0,
                mean_one=True, name="bilinear"),
        Graphon(lambda x, y: 4.0 * x * y, holder_M=4.0 * math.sqrt(2.0), upper_bound=4.0,
                mean_one=True, name="product"),
        Graphon(lambda x, y: 1.0 + 0.5 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y),
                holder_M=math.pi, lower_bound=0.5, upper_bound=1.5, mean_one=True,
                name="cosine"),
        Graphon(_step_eval, lower_bound=0.6, upper_bound=1.4, mean_one=True, name="step"),
    )
}


def graphon_catalog() -> dict:
    """Every built-in graphon, keyed by name, in a new dict.

    The graphons themselves are the catalog's one instance each: frozen, with
    pure eval functions, so they are shared, and each keeps the grid prefix
    sums it has built (Graphon.prefix_sums) for the life of the process.
    """
    return dict(_CATALOG)


def graphon_by_name(name: str) -> Graphon:
    """The catalog's one instance of the named graphon."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise DomainError(
            f"unknown graphon {name!r}; available: {sorted(_CATALOG)}"
        ) from None
