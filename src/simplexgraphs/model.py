"""Core model types: edge indexing, weighted-simplex parameters, threshold graphs.

Edge weights live in a flat coordinate vector indexed by a canonical
lexicographic order over vertex pairs.  Undirected pairs (i, j), i < j, map to

    index(i, j) = start(i) + (j - i - 1),    start(k) = k*(2n-k-1)/2,

where start(k) is the first coordinate of row k.  The inverse takes
strictly increasing coordinates: one search of the n+1 integer row starts into them
counts each row, and the rows are repeated that many times, so it is exact
with no floating point and no search per coordinate.
Directed ordered pairs i != j map to ``i*(n-1) + (j - [j > i])``: the n x n
matrix read row-major without its diagonal (``off_diagonal``), inverted by
one divmod.  Every map vectorizes over numpy arrays.

All types here hold their arrays as read-only views, so they can be shared
freely across concurrent trial workers.  A view of an array the caller
passed in still sees the caller's own writes to it.
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
    """A read-only contiguous view; the caller's own array stays writable."""
    a = np.ascontiguousarray(a).view()
    a.flags.writeable = False
    return a


def per_coordinate(values, N: int) -> np.ndarray:
    """One read-only float per coordinate: a scalar as a zero-stride view of length N, a vector as a frozen copy."""
    a = np.asarray(values, dtype=float)
    if a.ndim == 0:
        return np.broadcast_to(a.copy(), (N,))
    return _frozen(np.broadcast_to(a, (N,)).copy())


def off_diagonal(m: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of an n x n matrix in row-major order, as n-1 rows of n.

    Flat entries 1..n^2-1, as n-1 rows of n+1, are n off-diagonal entries then a diagonal
    one each.  A view of a C-contiguous ``m``; on any other ``reshape(-1)`` copies.
    """
    n = m.shape[0]
    return m.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]


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
        return int(self.index_arrays(i, j))

    def pair(self, e: int):
        """Inverse of :meth:`index`."""
        if not 0 <= e < self.num_edges:
            raise ValueError(f"edge index {e} out of range for N={self.num_edges}")
        i, j = self.pair_arrays([e])
        return int(i[0]), int(j[0])

    def index_arrays(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        if self.directed:
            return i * (self.n - 1) + np.where(j > i, j - 1, j)
        lo = np.minimum(i, j)
        hi = np.maximum(i, j)
        return self._row_start(lo) + hi - lo - 1

    def pair_arrays(self, e: np.ndarray):
        """Vectorized inverse map; returns (tails, heads) with tails < heads when undirected.

        Directed coordinates, of any shape and order, are inverted by one divmod.
        Undirected ones must be a strictly increasing 1-D array in [0, N): one search
        of the n+1 row starts into ``e`` counts the coordinates of each row, and
        the tails and the per-row offsets start(k) - k - 1 are repeated that many
        times.  Any other array is a ValueError, never a wrong pair.
        """
        e = np.asarray(e, dtype=np.int64)
        if self.directed:
            i, r = np.divmod(e, self.n - 1)
            return i, np.where(r >= i, r + 1, r)
        if e.ndim != 1 or (e.size and (e[0] < 0 or e[-1] >= self.num_edges)) or np.any(e[1:] <= e[:-1]):
            raise ValueError(f"undirected coordinates must be a strictly increasing 1-D array in [0, {self.num_edges})")
        starts = self._row_start(np.arange(self.n + 1, dtype=np.int64))
        counts = np.diff(np.searchsorted(e, starts))
        rows = np.arange(self.n, dtype=np.int64)
        heads = np.repeat(starts[:-1] - rows - 1, counts)
        return np.repeat(rows, counts), np.subtract(e, heads, out=heads)

    def all_pairs(self):
        """(tails, heads) arrays for every coordinate in canonical order."""
        return self.pair_arrays(np.arange(self.num_edges))

    def to_matrix(self, values, diagonal: float) -> np.ndarray:
        """The n x n matrix with ``values[index(i, j)]`` at (i, j) and ``diagonal`` on its diagonal; directed only."""
        if not self.directed:
            raise ValueError("a coordinate vector lays out as a matrix only on a directed space")
        n = self.n
        m = np.full((n, n), diagonal, dtype=float)
        off_diagonal(m)[...] = np.reshape(values, (n - 1, n))
        return m

    def _row_start(self, k):
        """Undirected coordinate of the pair (k, k+1), the first of row k."""
        return k * (2 * self.n - k - 1) // 2

    def _check_pair(self, i: int, j: int):
        if i == j:
            raise ValueError(f"self-loop ({i},{j}) has no coordinate")
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"vertex pair ({i},{j}) out of range for n={self.n}")


@dataclass(frozen=True)
class SimplexModel:
    """Weight budget polytope {x >= 0 : sum_e alpha_e * x_e <= L}.

    ``alpha`` holds one positive coefficient per coordinate in canonical edge
    order, stored by ``per_coordinate``: a scalar alpha costs no O(N) memory.  ``L``
    left as None is the coordinate count N, the normalization under which
    the threshold formulas below take their simplest form.  ``M`` asserts
    1/M <= alpha_e <= M for every coordinate; left as None it is the least such
    bound, ``max(alpha_max, 1 / alpha_min)``.  ``alpha_min`` and
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
        object.__setattr__(self, "alpha", per_coordinate(a, self.space.num_edges))
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
        if self.M is None:
            object.__setattr__(self, "M", max(hi, 1.0 / lo))
        elif self.M < 1:
            raise ValueError("boundedness parameter M must be >= 1")
        elif lo < 1.0 / self.M - 1e-12 or hi > self.M + 1e-12:
            raise ValueError(f"alpha range [{lo:g}, {hi:g}] violates declared bound [1/{self.M:g}, {self.M:g}]")

    @classmethod
    def uniform(cls, n: int, L: float | None = None) -> "SimplexModel":
        """All-ones coefficients on an undirected space; the exchangeable case."""
        return cls(EdgeSpace(n), 1.0, L)

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

    def alpha_sum(self, edges) -> float:
        """alpha(S) = sum of coefficients over a set of coordinate indices."""
        idx = np.asarray(edges, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.space.num_edges):
            raise ValueError("edge index out of range")
        return float(self.alpha[idx].sum())


@dataclass(frozen=True)
class DecomposableWeights:
    """Per-vertex factors d_v inducing product coefficients alpha_{vw} = d_v * d_w."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        object.__setattr__(self, "d", _frozen(d.copy()))
        if d.ndim != 1:
            raise ValueError("vertex factors must be a 1-D array")
        EdgeSpace(d.size)  # one factor per vertex, n >= 2
        if not np.all(d > 0):
            raise ValueError("vertex factors must be positive")

    @property
    def n(self) -> int:
        return self.d.size

    @property
    def total(self) -> float:
        """D = sum of all vertex factors."""
        return float(self.d.sum())

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
        if x.size and not x.min() >= 0:  # min propagates NaN
            raise ValueError("weights must be non-negative numbers")
        object.__setattr__(self, "x", _frozen(x))

    def budget_used(self, model: SimplexModel) -> float:
        return float(model.alpha @ self.x)


class ThresholdGraph:
    """Graph on [n] keeping exactly the coordinates with weight <= p.

    Stores the kept coordinates as strictly increasing edge indices plus
    their endpoint arrays, decoded by ``EdgeSpace.pair_arrays``, in canonical
    edge order with tails < heads.  The decode checks the indices: anything
    but strictly increasing coordinates in [0, N) is a ValueError.
    """

    __slots__ = ("n", "edge_indices", "tails", "heads")

    def __init__(self, n: int, edge_indices: np.ndarray):
        self.n = n
        self.edge_indices = _frozen(np.asarray(edge_indices, dtype=np.int64))
        tails, heads = EdgeSpace(n).pair_arrays(self.edge_indices)
        self.tails = _frozen(tails)
        self.heads = _frozen(heads)

    @classmethod
    def from_edges(cls, n: int, pairs) -> "ThresholdGraph":
        """Build directly from an iterable of vertex pairs; repeated pairs count once."""
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


def threshold(x: WeightVector, p: float) -> ThresholdGraph:
    """Keep the coordinates with x_e <= p; monotone in p for a fixed vector."""
    if not p >= 0:
        raise ValueError(f"threshold must be non-negative, got {p}")
    if x.space.directed:
        raise ValueError("thresholding is defined on undirected weight vectors")
    return ThresholdGraph(x.space.n, np.flatnonzero(x.x <= p))
