"""Assignment-plus-patching heuristic for the asymmetric TSP, with exact oracles.

The heuristic solves the assignment relaxation (minimum-cost perfect matching
in the bipartite view) by shortest augmenting paths from a column-reduction
warm start (Jonker-Volgenant), decomposes the optimal permutation into
cycles, then repeatedly patches the smallest remaining cycle into the main
one: remove one edge (a,b) from the accumulator and one edge (c,d) from the
cycle being absorbed, add (a,d) and (c,b), scanning every edge pair for the
cheapest added cost X[a,d] + X[c,b].  Each patch cuts the cycle count by one,
so the procedure ends with a tour; the assignment cost is a certified lower
bound on any tour.

``held_karp`` provides the exact optimum by the Held-Karp subset DP, one
vectorised step per subset size, for n <= ``HELD_KARP_MAX_N``, used to measure
tour quality at desk scale.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .model import EdgeSpace, SimplexModel, off_diagonal
from .samplers import SeededRng, sample_simplex


class CostMatrix:
    """Non-negative directed costs X[i, j] for i != j; the diagonal is +inf."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ValueError("cost matrix must be square with n >= 2")
        if not (np.diag(m) == np.inf).all():
            raise ValueError("diagonal entries must be +inf (no self-loops)")
        off = off_diagonal(m)
        if not 0 <= off.min() <= off.max() < np.inf:  # both reductions propagate NaN
            raise ValueError("off-diagonal costs must be finite and non-negative")
        m.flags.writeable = False
        self.matrix = m

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def finite_sentinel(self) -> np.ndarray:
        """Copy with the diagonal replaced by a finite value no assignment can pick."""
        m = self.matrix.copy()
        np.fill_diagonal(m, (off_diagonal(m).max() + 1.0) * (self.n + 1))
        return m

    def write_csv(self, path_or_buf) -> None:
        buf = path_or_buf if hasattr(path_or_buf, "write") else open(path_or_buf, "w")
        try:
            buf.write(f"n={self.n}\n")
            for row in self.matrix:
                buf.write(",".join("inf" if math.isinf(v) else format(v, ".17g") for v in row))
                buf.write("\n")
        finally:
            if buf is not path_or_buf:
                buf.close()

    @classmethod
    def read_csv(cls, path_or_buf) -> "CostMatrix":
        buf = path_or_buf if hasattr(path_or_buf, "read") else open(path_or_buf)
        try:
            header = buf.readline().strip()
            if not header.startswith("n="):
                raise ValueError(f"expected header 'n=<int>', got {header!r}")
            n = int(header[2:])
            rows = []
            for _ in range(n):
                line = buf.readline()
                rows.append([float(tok) for tok in line.strip().split(",")])
            return cls(np.asarray(rows))
        finally:
            if buf is not path_or_buf:
                buf.close()

    def to_csv_text(self) -> str:
        s = io.StringIO()
        self.write_csv(s)
        return s.getvalue()


@dataclass(frozen=True)
class AssignmentResult:
    """Optimal assignment permutation, its cost, and its cycles (longest first)."""

    assignment: np.ndarray
    cost: float
    cycles: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Tour:
    """A single directed cycle visiting every vertex exactly once."""

    order: tuple[int, ...]
    cost: float

    def validate(self, costs: CostMatrix) -> None:
        n = costs.n
        if len(self.order) != n or set(self.order) != set(range(n)):
            raise ValueError("tour must visit every vertex exactly once")
        recomputed = tour_cost(self.order, costs)
        if not math.isclose(recomputed, self.cost, rel_tol=1e-9, abs_tol=1e-9):
            raise ValueError(f"stored cost {self.cost} disagrees with recomputation {recomputed}")


def tour_cost(order, costs: CostMatrix) -> float:
    seq = np.asarray(order)
    return float(costs.matrix[seq, np.roll(seq, -1)].sum())


def _cycles_of(perm: np.ndarray) -> tuple[tuple[int, ...], ...]:
    n = perm.size
    seen = np.zeros(n, dtype=bool)
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        c = [start]
        seen[start] = True
        v = int(perm[start])
        while v != start:
            c.append(v)
            seen[v] = True
            v = int(perm[v])
        cycles.append(tuple(c))
    cycles.sort(key=lambda c: (-len(c), c[0]))
    return tuple(cycles)


def hungarian(costs: CostMatrix) -> AssignmentResult:
    """Minimum-cost assignment by shortest augmenting paths (Jonker-Volgenant).

    Warm start by column reduction: v is the column minima, each column goes
    to its argmin row while that row is free, and u_i = min_j X_ij - v_j, so
    every reduced cost X_ij - u_i - v_j is non-negative and every matched
    pair is tight.  Each free row then runs a Dijkstra search over the
    columns in reduced costs until it reaches a free column.  As in Crouse's
    formulation the potentials of the visited rows and columns are updated
    once, at the end of the search, and the path is flipped.  A search step
    is a few O(n) numpy calls: w_j is the least X_rj + (d_r - u_r) over the
    rows r scanned so far (d_r the distance at which r was reached), and the
    predecessor row of a column is recovered only for the columns on the
    final path.  The permutation never touches the diagonal (the sentinel
    exceeds any derangement's cost), and its cost is a lower bound on every
    tour.
    """
    X = costs.finite_sentinel()
    n = costs.n
    v = X.min(axis=0)
    u = (X - v).min(axis=1)
    rows, cols = np.unique(X.argmin(axis=0), return_index=True)
    col4row = [-1] * n
    row4col = [-1] * n
    for i, j in zip(rows.tolist(), cols.tolist()):
        col4row[i], row4col[j] = j, i
    step = np.empty(n)
    for start in [i for i in range(n) if col4row[i] < 0]:
        w = X[start] - u[start]
        v_open = v.copy()  # -inf marks a visited column, so it is never picked again
        reached, offsets = [start], [-u[start]]
        visited, dists = [], []
        i = start
        while True:
            if i != start:
                np.minimum(w, np.add(X[i], offsets[-1], out=step), out=w)
            np.subtract(w, v_open, out=step)
            j = int(step.argmin())
            d = float(step[j])
            visited.append(j)
            dists.append(d)
            i = row4col[j]
            if i < 0:
                break
            v_open[j] = -np.inf
            reached.append(i)
            offsets.append(d - u[i])
        gap = d - np.asarray(dists)
        u[start] += d
        u[reached[1:]] += gap[:-1]
        v[visited] -= gap
        # flip the path back from the free column j; the predecessor of a
        # column is the first row scanned before it that attains its w
        scanned, offsets = np.asarray(reached), np.asarray(offsets)
        at = {j: k for k, j in enumerate(visited)}
        while True:
            k = at[j] + 1
            i = reached[int(np.argmin(X[scanned[:k], j] + offsets[:k]))]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break

    perm = np.asarray(col4row, dtype=np.int64)
    if (perm == np.arange(n)).any():
        raise RuntimeError("assignment selected a diagonal entry; sentinel too small")
    cost = float(costs.matrix[np.arange(n), perm].sum())
    return AssignmentResult(assignment=perm, cost=cost, cycles=_cycles_of(perm))


def patch(assignment: AssignmentResult, costs: CostMatrix) -> Tour:
    """Merge the assignment's cycles into a tour, smallest cycle first.

    The first (longest) cycle is the fixed accumulator.  For each merge the
    full |C_1| x |C_i| grid of removal pairs is scanned for the minimum added
    cost X[a,d] + X[c,b].
    """
    X = costs.matrix
    cycles = [list(c) for c in assignment.cycles]
    acc = cycles[0]
    for cyc in reversed(cycles[1:]):
        a = np.asarray(acc)
        b = np.roll(a, -1)
        c = np.asarray(cyc)
        d = np.roll(c, -1)
        added = X[a[:, None], d[None, :]] + X[c[None, :], b[:, None]]
        s, t = np.unravel_index(np.argmin(added), added.shape)
        acc = acc[: s + 1] + cyc[t + 1 :] + cyc[: t + 1] + acc[s + 1 :]
    return Tour(order=tuple(acc), cost=tour_cost(acc, costs))


HELD_KARP_MAX_N = 13  # largest n the DP table, 2^(n-1) by n, is built for


def held_karp(costs: CostMatrix) -> tuple[float, Tour]:
    """Exact ATSP optimum by the Held-Karp subset DP; capped at ``HELD_KARP_MAX_N`` vertices.

    ``dp[T, j]`` is the cheapest path that leaves vertex 0, visits exactly the
    vertex set T (a subset of 1..n-1, vertex v as bit v-1) and ends at j in T.
    The DP pulls one popcount layer at a time: every (T, j) pair of the layer
    takes ``min_k dp[T - {j}, k] + X[k, j]`` (first minimising k on ties) in
    one vectorised step, so the Python loop runs over the n-1 layers only.
    """
    n = costs.n
    if n > HELD_KARP_MAX_N:
        raise CapacityError(f"exact tour search capped at n={HELD_KARP_MAX_N}, got n={n}")
    X = costs.finite_sentinel()
    into = X.T  # into[j] = costs of the edges k -> j
    size = 1 << (n - 1)
    dp = np.full((size, n), np.inf)
    parent = np.full((size, n), -1, dtype=np.int8)
    dp[0, 0] = 0.0
    sets = np.arange(size)
    members = (sets[:, None] >> np.arange(n - 1)) & 1
    popcount = members.sum(axis=1)
    for count in range(1, n):
        layer = sets[popcount == count]
        at, bit = np.nonzero(members[layer])
        T, j = layer[at], bit + 1
        cand = dp[T ^ (1 << bit)] + into[j]
        k = np.argmin(cand, axis=1)
        dp[T, j] = cand[np.arange(k.size), k]
        parent[T, j] = k
    full = size - 1
    closing = dp[full] + X[:, 0]
    closing[0] = np.inf
    j = int(np.argmin(closing))
    best = float(closing[j])
    order = [j]
    mask = full
    while j != 0:
        k = int(parent[mask, j])
        mask ^= 1 << (j - 1)
        j = k
        order.append(j)
    order.reverse()
    return best, Tour(order=tuple(order), cost=best)


def row_symmetric_model(beta, n: int, L: float | None = None) -> SimplexModel:
    """Directed simplex whose coefficient depends only on the edge's head vertex."""
    space = EdgeSpace(n, directed=True)
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (n,))
    if not np.all((beta > 0) & (beta < np.inf)):
        raise ValueError("head-vertex weights beta must be finite and positive")
    # coordinate (i, j) has coefficient beta[j]: the off-diagonal of n rows of beta
    return SimplexModel(space, off_diagonal(np.tile(beta, (n, 1))).reshape(-1), L)


def sample_row_symmetric(model: SimplexModel, rng: SeededRng) -> CostMatrix:
    """Draw a cost matrix from a row-symmetric directed simplex (``to_matrix`` refuses an undirected one)."""
    space = model.space
    # row symmetry: alpha laid out as a matrix is constant down each column (its head)
    alpha = space.to_matrix(model.alpha, np.nan)
    if not np.allclose(np.fmin.reduce(alpha), np.fmax.reduce(alpha), rtol=1e-12, atol=0):
        raise ValueError("coefficients must depend on the head vertex only (row symmetry)")
    return CostMatrix(space.to_matrix(sample_simplex(model, rng).x, np.inf))
