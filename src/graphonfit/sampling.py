"""Sampling networks from a scaled graphon: latents, probabilities, adjacency.

Randomness is driven by numpy's counter-based Philox generator.  Each logical
stream (latent uniforms vs. edge coin flips) gets its own SeedSequence spawn
key, so the two are decorrelated and replicates can run in parallel with
disjoint streams derived from a single root seed.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, ModelError
from .graphons import Graphon

__all__ = [
    "LatentSample",
    "EdgeProbabilityMatrix",
    "AdjacencyMatrix",
    "make_rng",
    "sample_latents",
    "edge_probabilities",
    "sample_adjacency",
    "edge_density",
]

# Stream tags keep the latent and adjacency draws on independent Philox
# counters even when both are derived from the same root seed.
_LATENT_STREAM = 1
_ADJACENCY_STREAM = 2


def _check_seed(seed: int) -> None:
    """A seed given by the user; make_rng's SeedSequence takes only seeds >= 0."""
    if seed < 0:
        raise ConfigError(f"seed={seed} must be >= 0")


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic Philox generator for (seed, stream)."""
    _check_seed(seed)
    ss = np.random.SeedSequence([int(seed), int(stream)])
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class LatentSample:
    """n latent positions, iid Uniform(0,1), reproducible from seed."""

    xi: np.ndarray
    seed: int

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        if xi.ndim != 1 or xi.size < 2:
            raise DomainError("latent sample needs a 1-d vector of length >= 2")
        if np.any(xi <= 0.0) or np.any(xi >= 1.0):
            raise DomainError("latent positions must lie strictly inside (0,1)")
        xi.setflags(write=False)
        object.__setattr__(self, "xi", xi)

    @property
    def n(self) -> int:
        return self.xi.size

    def ranks(self) -> np.ndarray:
        """Rank of each latent among the sample, 1-based (all values distinct a.s.)."""
        order = np.argsort(self.xi, kind="stable")
        r = np.empty(self.n, dtype=np.int64)
        r[order] = np.arange(1, self.n + 1)
        return r


@dataclass(frozen=True)
class EdgeProbabilityMatrix:
    """Symmetric edge-probability matrix p_ij = rho_n * f(xi_i, xi_j)."""

    p: np.ndarray
    rho_n: float

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        n = p.shape[0]
        if p.ndim != 2 or p.shape != (n, n) or n < 2:
            raise DomainError("probability matrix must be square with n >= 2")
        if not np.array_equal(p, p.T):
            raise DomainError("probability matrix must be symmetric")
        if np.any(np.diag(p) != 0.0):
            raise DomainError("probability matrix must have a zero diagonal")
        off = p[~np.eye(n, dtype=bool)]
        if np.any(off <= 0.0) or np.any(off >= 1.0):
            raise ModelError("off-diagonal edge probabilities must lie in (0,1)")
        if not (0.0 < self.rho_n < 1.0):
            raise DomainError(f"rho_n={self.rho_n} must lie in (0,1)")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.p.shape[0]

    def to_csv(self) -> str:
        buf = io.StringIO()
        np.savetxt(buf, self.p, delimiter=",", fmt="%.12g")
        return buf.getvalue()


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Symmetric binary adjacency with structural zero diagonal.

    Stored dense as uint8; for the sizes this package targets (n in the
    hundreds) full-matrix numpy operations beat bit-packed storage.
    """

    a: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.ascontiguousarray(self.a, dtype=np.uint8)
        n = a.shape[0]
        if a.ndim != 2 or a.shape != (n, n) or n < 2:
            raise DomainError("adjacency must be square with n >= 2")
        if np.any(a > 1):
            raise DomainError("adjacency entries must be 0/1")
        if not np.array_equal(a, a.T):
            raise DomainError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise DomainError("adjacency must have a zero diagonal")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def edge_count(self) -> int:
        return int(self.a.sum()) // 2

    def to_edge_list(self) -> str:
        """Text form: header 'n m' then one '%d %d' line per edge, i < j, 0-based."""
        iu, ju = np.nonzero(np.triu(self.a, k=1))  # row-major, as triu_indices
        lines = [f"{self.n} {iu.size}"]
        lines.extend(f"{i} {j}" for i, j in zip(iu, ju))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_edge_list(cls, text: str) -> "AdjacencyMatrix":
        tokens = text.split()
        if len(tokens) < 2:
            raise DomainError("edge list needs a 'n m' header")
        try:
            nums = [int(t) for t in tokens]
        except ValueError as e:
            raise DomainError(f"non-integer token in edge list: {e}") from None
        n, m = nums[0], nums[1]
        if n < 2:
            raise DomainError(f"edge list header needs n >= 2 nodes, got n={n}")
        if len(nums) != 2 + 2 * m:
            raise DomainError(f"expected {m} edges, found {(len(nums) - 2) // 2}")
        try:
            a = np.zeros((n, n), dtype=np.uint8)
        except (MemoryError, ValueError):  # numpy refuses before touching a page
            raise DomainError(f"edge list header n={n} is too large for an n x n matrix") from None
        for t in range(m):
            i, j = nums[2 + 2 * t], nums[3 + 2 * t]
            if not (0 <= i < j < n):
                raise DomainError(f"edge ({i},{j}) violates 0 <= i < j < n={n}")
            if a[i, j]:
                raise DomainError(f"edge ({i},{j}) is listed more than once")
            a[i, j] = a[j, i] = 1
        return cls(a)


def sample_latents(n: int, seed: int) -> LatentSample:
    """n iid Uniform(0,1) latent positions, deterministic given seed."""
    if n < 2:
        raise DomainError(f"need n >= 2 nodes, got {n}")
    rng = make_rng(seed, _LATENT_STREAM)
    xi = rng.uniform(size=n)
    # Probability-zero boundary hits would break the open-interval invariant.
    while np.any((xi <= 0.0) | (xi >= 1.0)):
        bad = (xi <= 0.0) | (xi >= 1.0)
        xi[bad] = rng.uniform(size=int(bad.sum()))
    return LatentSample(xi=xi, seed=int(seed))


def edge_probabilities(f: Graphon, xi: LatentSample, rho_n: float) -> EdgeProbabilityMatrix:
    """p_ij = rho_n * f(xi_i, xi_j) for i != j, zero diagonal."""
    if not (np.isfinite(rho_n) and rho_n > 0.0):
        raise DomainError(f"rho_n={rho_n} must be a finite positive number")
    if rho_n * f.upper_bound >= 1.0:
        raise ModelError(
            f"rho_n * sup f = {rho_n * f.upper_bound:.6g} >= 1; "
            "edge probabilities must stay bounded away from one"
        )
    x = xi.xi
    p = rho_n * f(x[:, None], x[None, :])
    p = (p + p.T) / 2.0  # guard against asymmetric floating-point rounding
    np.fill_diagonal(p, 0.0)
    return EdgeProbabilityMatrix(p=p, rho_n=float(rho_n))


def sample_adjacency(p: EdgeProbabilityMatrix, seed: int) -> AdjacencyMatrix:
    """Independent Bernoulli(p_ij) draws on i < j, mirrored below the diagonal."""
    rng = make_rng(seed, _ADJACENCY_STREAM)
    upper = np.triu(rng.uniform(size=(p.n, p.n)) < p.p, k=1)
    return AdjacencyMatrix(a=upper | upper.T)


def edge_density(a: AdjacencyMatrix) -> float:
    """Empirical edge density: edge count over C(n,2)."""
    n = a.n
    return a.edge_count / (n * (n - 1) // 2)
