"""Core model types: edge indexing, weighted-simplex parameters, threshold graphs.

Edge weights live in a flat coordinate vector indexed by a canonical
lexicographic order over vertex pairs.  Undirected pairs (i, j), i < j, map to

    index(i, j) = i*n - i*(i+1)/2 + (j - i - 1),

directed ordered pairs i != j to ``i*(n-1) + (j - [j > i])``.  Both maps are
O(1) in each direction and vectorize over numpy arrays.

All types here are immutable after construction (arrays are frozen), so they
can be shared freely across concurrent trial workers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# -log1p(-U) at the largest uniform double below 1, U = 1 - 2^-53: the largest
# unit exponential a draw can return, and so the largest factor a simplex draw
# multiplies its budget L by.
MAX_UNIT_EXPONENTIAL = 53 * math.log(2)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class EdgeSpace:
    """Vertex count plus orientation; owns the pair <-> coordinate bijection."""

    n: int
    directed: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")

    @property
    def num_edges(self) -> int:
        """Number of coordinates N: n(n-1)/2 undirected, n(n-1) directed."""
        return self.n * (self.n - 1) // (1 if self.directed else 2)

    def index(self, i: int, j: int) -> int:
        """Canonical coordinate of the pair (i, j); undirected pairs are normalized to i < j."""
        self._check_pair(i, j)
        if self.directed:
            return i * (self.n - 1) + (j - 1 if j > i else j)
        if i > j:
            i, j = j, i
        return i * self.n - i * (i + 1) // 2 + (j - i - 1)

    def pair(self, e: int):
        """Inverse of :meth:`index`."""
        if not 0 <= e < self.num_edges:
            raise ValueError(f"edge index {e} out of range for N={self.num_edges}")
        if self.directed:
            i, r = divmod(e, self.n - 1)
            return i, (r + 1 if r >= i else r)
        i, j = self.pair_arrays(np.asarray([e]))
        return int(i[0]), int(j[0])

    def index_arrays(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        if self.directed:
            return i * (self.n - 1) + np.where(j > i, j - 1, j)
        lo = np.minimum(i, j)
        hi = np.maximum(i, j)
        return lo * self.n - lo * (lo + 1) // 2 + (hi - lo - 1)

    def pair_arrays(self, e: np.ndarray):
        """Vectorized inverse map; returns (tails, heads) with tails < heads when undirected."""
        e = np.asarray(e, dtype=np.int64)
        if self.directed:
            i, r = np.divmod(e, self.n - 1)
            return i, np.where(r >= i, r + 1, r)
        b = 2 * self.n - 1
        i = ((b - np.sqrt(b * b - 8.0 * e)) / 2.0).astype(np.int64)
        # one-step correction for float jitter in the sqrt
        start = lambda k: k * (2 * self.n - k - 1) // 2  # noqa: E731
        i = np.where(start(i + 1) <= e, i + 1, i)
        i = np.where(start(i) > e, i - 1, i)
        j = e - start(i) + i + 1
        return i, j

    def all_pairs(self):
        """(tails, heads) arrays for every coordinate in canonical order."""
        return self.pair_arrays(np.arange(self.num_edges))

    def _check_pair(self, i: int, j: int):
        if i == j:
            raise ValueError(f"self-loop ({i},{j}) has no coordinate")
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"vertex pair ({i},{j}) out of range for n={self.n}")


@dataclass(frozen=True)
class SimplexModel:
    """Weight budget polytope {x >= 0 : sum_e alpha_e * x_e <= L}.

    ``alpha`` holds one positive coefficient per coordinate in canonical edge
    order.  A scalar alpha is stored once, as a read-only zero-stride view of
    length N, so a constant model costs no O(N) memory to build.  ``L``
    left as None is the coordinate count N, the normalization under which
    the threshold formulas below take their simplest form.  ``M``, when declared,
    asserts 1/M <= alpha_e <= M for every coordinate.  ``alpha_min`` and
    ``alpha_max`` are the coefficient range, taken once at construction.

    Every model can be drawn from, and its laws evaluated, in floating point:
    alpha is positive with ``N * alpha_max`` finite, and L is positive with
    ``L * MAX_UNIT_EXPONENTIAL`` (so L <= ~4.89e306) and ``L / alpha_min``
    finite and ``L / ((N+1) alpha_max)``, a coordinate's mean, normal.
    """

    space: EdgeSpace
    alpha: np.ndarray
    L: float | None = None
    M: float | None = None
    alpha_min: float = field(init=False, repr=False, compare=False)
    alpha_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        shape = (self.space.num_edges,)
        alpha = np.broadcast_to(a.copy(), shape) if a.ndim == 0 else _frozen(np.broadcast_to(a, shape).copy())
        object.__setattr__(self, "alpha", alpha)
        lo, hi = float(a.min()), float(a.max())
        object.__setattr__(self, "alpha_min", lo)
        object.__setattr__(self, "alpha_max", hi)
        object.__setattr__(self, "L", float(self.space.num_edges if self.L is None else self.L))
        if not (0 < lo and math.isfinite(hi * self.space.num_edges)):
            raise ValueError(
                f"alpha coefficients must be positive, with every sum alpha(S) finite, got the range [{lo:g}, {hi:g}]"
            )
        if not 0 < self.L < math.inf:
            raise ValueError(f"budget L must be finite and positive, got {self.L}")
        # a draw forms L * E_e, E_e <= MAX_UNIT_EXPONENTIAL, and coordinates
        # near L / ((N+1) alpha_e), up to L / alpha_min
        if not (
            math.isfinite(self.L * MAX_UNIT_EXPONENTIAL)
            and math.isfinite(self.L / lo)
            and self.L / hi / (self.space.num_edges + 1) >= sys.float_info.min
        ):
            raise ValueError(
                f"budget L={self.L:g} with coefficients in [{lo:g}, {hi:g}] leaves the double range: a draw needs "
                f"L * {MAX_UNIT_EXPONENTIAL:.4g} and L / alpha_min finite, and L / ((N+1) alpha_max) normal"
            )
        if self.M is not None:
            if self.M < 1:
                raise ValueError("boundedness parameter M must be >= 1")
            if lo < 1.0 / self.M - 1e-12 or hi > self.M + 1e-12:
                raise ValueError(
                    f"alpha range [{lo:g}, {hi:g}] violates declared bound [1/{self.M:g}, {self.M:g}]"
                )

    @classmethod
    def uniform(cls, n: int, L: float | None = None, directed: bool = False) -> "SimplexModel":
        """All-ones coefficients; the exchangeable case."""
        return cls(EdgeSpace(n, directed=directed), 1.0, L, M=1.0)

    @property
    def unit_alpha(self) -> bool:
        """Every coefficient is exactly 1.0.

        The all-ones closed forms then apply, and a sampler may skip dividing by alpha.
        """
        return self.alpha_min == self.alpha_max == 1.0

    @cached_property
    def _vertex_alphas(self) -> np.ndarray:
        if self.space.directed:
            raise ValueError("per-vertex alpha sums are defined for undirected spaces")
        n = self.space.n
        if self.alpha_min == self.alpha_max:
            # each vertex sum is n-1 copies of one value, added in sequence
            return _frozen(np.full(n, np.cumsum(np.full(n - 1, self.alpha_min))[-1]))
        tails, heads = self.space.all_pairs()
        acc = np.zeros(n)
        np.add.at(acc, tails, self.alpha)
        np.add.at(acc, heads, self.alpha)
        return _frozen(acc)

    def vertex_alphas(self) -> np.ndarray:
        """alpha_v = sum over coordinates incident to v, for every vertex."""
        return self._vertex_alphas

    def vertex_alpha(self, v: int) -> float:
        if not 0 <= v < self.space.n:
            raise ValueError(f"vertex {v} out of range for n={self.space.n}")
        return float(self._vertex_alphas[v])

    def alpha_sum(self, edges) -> float:
        """alpha(S) = sum of coefficients over a set of coordinate indices."""
        idx = np.asarray(edges, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.space.num_edges):
            raise ValueError("edge index out of range")
        return float(self.alpha[idx].sum())


@dataclass(frozen=True)
class DecomposableWeights:
    """Per-vertex factors d_v inducing product coefficients alpha_{vw} = d_v * d_w.

    When ``omega`` is declared the factors are checked against the regime
    d_v in [1/omega, omega].
    """

    d: np.ndarray
    omega: float | None = None

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        object.__setattr__(self, "d", _frozen(d.copy()))
        if d.ndim != 1:
            raise ValueError("vertex factors must be a 1-D array")
        EdgeSpace(d.size)  # one factor per vertex, n >= 2
        if not np.all(d > 0):
            raise ValueError("vertex factors must be positive")
        if self.omega is not None:
            if self.omega < 1:
                raise ValueError("omega must be >= 1")
            if d.min() < 1.0 / self.omega - 1e-12 or d.max() > self.omega + 1e-12:
                raise ValueError("vertex factors leave the declared [1/omega, omega] range")

    @property
    def n(self) -> int:
        return self.d.size

    @property
    def total(self) -> float:
        """D = sum of all vertex factors."""
        return float(self.d.sum())

    def subset_sum(self, vertices) -> float:
        """d_S = sum of factors over a vertex subset."""
        return float(self.d[np.asarray(vertices, dtype=np.int64)].sum())

    def distinct(self):
        """(values, counts) of the distinct factor values."""
        values, counts = np.unique(self.d, return_counts=True)
        return values, counts

    def to_simplex_model(self, L: float | None = None) -> SimplexModel:
        space = EdgeSpace(self.n)
        tails, heads = space.all_pairs()
        alpha = self.d[tails] * self.d[heads]
        return SimplexModel(space, alpha, L)


@dataclass(frozen=True)
class WeightVector:
    """One sampled point: a non-negative weight per coordinate in canonical order."""

    space: EdgeSpace
    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.shape != (self.space.num_edges,):
            raise ValueError(f"expected {self.space.num_edges} coordinates, got shape {x.shape}")
        if x.size and x.min() < 0:
            raise ValueError("weights must be non-negative")
        object.__setattr__(self, "x", _frozen(x))

    def budget_used(self, model: SimplexModel) -> float:
        return float(model.alpha @ self.x)


class ThresholdGraph:
    """Graph on [n] keeping exactly the coordinates with weight <= p.

    Stores the kept coordinates as strictly increasing edge indices plus
    their decoded endpoint arrays, in canonical edge order with tails < heads.
    """

    __slots__ = ("n", "edge_indices", "tails", "heads")

    def __init__(self, n: int, edge_indices: np.ndarray):
        space = EdgeSpace(n)
        idx = np.asarray(edge_indices, dtype=np.int64)
        increasing = idx.ndim == 1 and not np.any(idx[1:] <= idx[:-1])
        if not increasing or (idx.size and (idx[0] < 0 or idx[-1] >= space.num_edges)):
            raise ValueError(f"edge indices must be strictly increasing coordinates in [0, {space.num_edges})")
        self.n = n
        self.edge_indices = _frozen(idx)
        tails, heads = space.pair_arrays(self.edge_indices)
        self.tails = _frozen(tails)
        self.heads = _frozen(heads)

    @classmethod
    def from_edges(cls, n: int, pairs) -> "ThresholdGraph":
        """Build directly from an iterable of vertex pairs (tests, CLI); repeated pairs count once."""
        space = EdgeSpace(n)
        pairs = list(pairs)
        i = np.asarray([p[0] for p in pairs], dtype=np.int64)
        j = np.asarray([p[1] for p in pairs], dtype=np.int64)
        if np.any(i == j) or np.any((np.minimum(i, j) < 0) | (np.maximum(i, j) >= n)):
            raise ValueError(f"edge pairs must join two distinct vertices in [0, {n})")
        return cls(n, np.unique(space.index_arrays(i, j)))

    @property
    def edge_count(self) -> int:
        return int(self.edge_indices.size)

    def has_edge(self, i: int, j: int) -> bool:
        e = EdgeSpace(self.n).index(i, j)
        k = int(np.searchsorted(self.edge_indices, e))
        return k < self.edge_indices.size and int(self.edge_indices[k]) == e

    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.tails, minlength=self.n)
        deg += np.bincount(self.heads, minlength=self.n)
        return deg


def threshold(x: WeightVector, p: float) -> ThresholdGraph:
    """Keep the coordinates with x_e <= p; monotone in p for a fixed vector."""
    if not p >= 0:
        raise ValueError(f"threshold must be non-negative, got {p}")
    if x.space.directed:
        raise ValueError("thresholding is defined on undirected weight vectors")
    return ThresholdGraph(x.space.n, np.flatnonzero(x.x <= p))
