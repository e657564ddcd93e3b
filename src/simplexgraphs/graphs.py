"""Deterministic graph predicates over threshold graphs.

Connectivity and component structure run on min-label hooking with pointer
jumping (a few numpy calls per round); diameter runs a bit-parallel BFS from
all sources at once (one bit per source and vertex, a few numpy calls over the
adjacency lists per BFS level); the perfect-matching check works across the
fixed vertex split [0, n/2) vs [n/2, n) with scipy's Hopcroft-Karp; the
Hamilton-cycle decision is exact backtracking with pruning, capped at
``HAMILTON_MAX_N`` vertices.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .model import ThresholdGraph, WeightVector


@dataclass(frozen=True)
class ComponentSummary:
    """Component census: count, sizes (descending), and a tree flag per component."""

    kappa: int
    sizes: tuple[int, ...]
    is_tree: tuple[bool, ...]
    n: int

    @property
    def largest_fraction(self) -> float:
        return self.sizes[0] / self.n

    def size_counts(self) -> dict[int, int]:
        """kappa_k: number of components with exactly k vertices."""
        return dict(Counter(self.sizes))

    def tree_counts(self) -> dict[int, int]:
        """tau_k: number of tree components with exactly k vertices."""
        return dict(Counter(s for s, t in zip(self.sizes, self.is_tree) if t))


def _component_labels(g: ThresholdGraph) -> np.ndarray:
    """Component number per vertex, components numbered by their least vertex.

    Min-label hooking with pointer jumping (Shiloach and Vishkin, 1982): a
    round hooks the root at each end of every edge onto the lesser of the two,
    then jumps pointers until every label is a root again.  Labels only fall
    and stay in their component, so each component ends rooted at its least
    vertex.
    """
    label = np.arange(g.n)
    while True:
        at_tails, at_heads = label[g.tails], label[g.heads]
        if (at_tails == at_heads).all():
            return np.unique(label, return_inverse=True)[1]
        lower = np.minimum(at_tails, at_heads)
        np.minimum.at(label, at_tails, lower)
        np.minimum.at(label, at_heads, lower)
        while (label != (jumped := label[label])).any():
            label = jumped


def components(g: ThresholdGraph) -> ComponentSummary:
    labels = _component_labels(g)
    sizes = np.bincount(labels)
    is_tree = np.bincount(labels[g.tails], minlength=sizes.size) == sizes - 1
    order = np.argsort(-sizes, kind="stable")
    return ComponentSummary(
        kappa=sizes.size,
        sizes=tuple(sizes[order].tolist()),
        is_tree=tuple(is_tree[order].tolist()),
        n=g.n,
    )


def is_connected(g: ThresholdGraph) -> bool:
    return g.edge_count >= g.n - 1 and not _component_labels(g).any()


# Byte budget of one gather of frontier words over the adjacency lists; it sets
# how many sources one block of the all-sources BFS serves.
_GATHER_BYTES = 1 << 22


def diameter(g: ThresholdGraph) -> int | float:
    """Longest shortest path; math.inf when disconnected.

    Runs a BFS from every source at once.  Sources are taken in blocks of
    64*W; word w of vertex v holds 64 bits, bit s set once v has been reached
    from source 64*w + s of the block.  The words are stored word-major, as W
    rows of n, so each pass below runs along contiguous rows.  The graph is
    held once as a symmetric adjacency grouped by vertex: each edge listed
    under both ends, grouped by one sort, with ``indptr`` from the degrees.
    One BFS level ORs each vertex's neighbours' frontier words into it: one
    ``take`` over the neighbour lists and one ``bitwise_or.reduceat`` over
    the n groups.  Once fewer than half of the columns (vertices) still miss
    a source of the block, a level gathers only their neighbour lists; the
    finished columns would gain no new bit.  W is at most the number of
    words whose gather over the adjacency fits ``_GATHER_BYTES``, and the
    blocks are balanced so the last one is not mostly empty.
    """
    n, m = g.n, g.edge_count
    deg = g.degrees()
    if deg.min() == 0:
        return math.inf
    # each edge under both ends as end * n + other; sorted, the remainders are
    # the neighbour lists grouped by vertex
    nbrs = np.empty(2 * m, dtype=np.int64)
    for ends, others, out in ((g.tails, g.heads, nbrs[:m]), (g.heads, g.tails, nbrs[m:])):
        np.multiply(ends, n, out=out)
        out += others
    nbrs.sort()
    np.remainder(nbrs, n, out=nbrs)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    starts = indptr[:-1]
    nwords = -(-n // 64)
    blocks = -(-nwords // max(1, min(nwords, _GATHER_BYTES // (16 * m))))
    words = -(-nwords // blocks)
    one = np.uint64(1)
    ecc_max = 1
    for s0 in range(0, n, 64 * words):
        s1 = min(n, s0 + 64 * words)
        # level 1: each block source reaches itself and its neighbours
        off = np.arange(s1 - s0)
        reach = np.zeros((words, n), dtype=np.uint64)
        reach[off >> 6, off + s0] = one << (off & 63).astype(np.uint64)
        off = np.repeat(off, deg[s0:s1])
        np.bitwise_or.at(reach, (off >> 6, nbrs[indptr[s0] : indptr[s1]]), one << (off & 63).astype(np.uint64))
        full = np.bitwise_or.reduce(reach, axis=1, keepdims=True)
        frontier = reach
        dist = 1
        while not (done := (reach == full).all(axis=0)).all():
            open_cols = np.flatnonzero(~done)
            if 2 * open_cols.size < n:
                # only the unfinished columns: their neighbour lists, back to back
                lens = deg[open_cols]
                firsts = np.cumsum(lens) - lens
                rows = np.arange(firsts[-1] + lens[-1]) + np.repeat(starts[open_cols] - firsts, lens)
                nxt = np.zeros_like(reach)
                nxt[:, open_cols] = np.bitwise_or.reduceat(np.take(frontier, nbrs[rows], axis=1), firsts, axis=1)
            else:
                nxt = np.bitwise_or.reduceat(np.take(frontier, nbrs, axis=1), starts, axis=1)
            nxt &= ~reach
            if not nxt.any():
                return math.inf
            reach |= nxt
            frontier = nxt
            dist += 1
        ecc_max = max(ecc_max, dist)
    return ecc_max


def bipartite_perfect_matching(g: ThresholdGraph) -> bool:
    """Perfect matching across the fixed split [0, n/2) vs [n/2, n)?

    Only edges crossing the split participate; since tails < heads, a
    crossing edge has its tail on the left.  Runs scipy's Hopcroft-Karp
    (``maximum_bipartite_matching``) on the left-by-right biadjacency matrix.
    csgraph is imported here, not with the module, because it adds ~9 MB
    to every process that imports the package.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    if g.n % 2:
        raise ValueError(f"perfect matching needs an even vertex count, got n={g.n}")
    half = g.n // 2
    cross = (g.tails < half) & (g.heads >= half)
    rows, cols = g.tails[cross], g.heads[cross] - half
    biadjacency = csr_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(half, half))
    return bool((maximum_bipartite_matching(biadjacency, perm_type="column") >= 0).all())


def _articulation_free(adj_mask: list[int], n: int) -> bool:
    disc = [-1] * n
    low = [0] * n
    timer = 0

    def neighbors(v: int):
        m = adj_mask[v]
        while m:
            b = m & -m
            yield b.bit_length() - 1
            m ^= b

    # iterative Tarjan articulation-point scan of vertex 0's component only; the search rejects a disconnected graph
    stack = [(0, -1, neighbors(0))]
    disc[0] = low[0] = timer
    timer += 1
    root_children = 0
    while stack:
        v, parent, it = stack[-1]
        advanced = False
        for w in it:
            if disc[w] == -1:
                disc[w] = low[w] = timer
                timer += 1
                if v == 0:
                    root_children += 1
                stack.append((w, v, neighbors(w)))
                advanced = True
                break
            elif w != parent:
                low[v] = min(low[v], disc[w])
        if not advanced:
            stack.pop()
            if stack:
                pv = stack[-1][0]
                low[pv] = min(low[pv], low[v])
                if pv != 0 and low[v] >= disc[pv]:
                    return False
    return root_children <= 1


HAMILTON_MAX_N = 24  # largest n the exact search accepts


def is_hamiltonian(g: ThresholdGraph) -> bool:
    """Exact Hamilton-cycle decision by pruned backtracking; capped at ``HAMILTON_MAX_N`` vertices."""
    n = g.n
    if n > HAMILTON_MAX_N:
        raise CapacityError(f"exact Hamiltonicity search capped at n={HAMILTON_MAX_N}, got n={n}")
    if n < 3:
        return False
    adj_mask = [0] * n
    for t, h in zip(g.tails.tolist(), g.heads.tolist()):
        adj_mask[t] |= 1 << h
        adj_mask[h] |= 1 << t
    if min(m.bit_count() for m in adj_mask) < 2:
        return False
    if not _articulation_free(adj_mask, n):
        return False

    full = (1 << n) - 1
    start_bit = 1

    def reachable(src_bit: int, allowed: int) -> int:
        seen = src_bit
        frontier = src_bit
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                nxt |= adj_mask[b.bit_length() - 1]
                m ^= b
            frontier = nxt & allowed & ~seen
            seen |= frontier
        return seen

    def extend(cur: int, visited: int) -> bool:
        if visited == full:
            return bool(adj_mask[cur] & start_bit)
        remaining = full & ~visited
        cand = adj_mask[cur] & remaining
        if not cand:
            return False
        if not (adj_mask[0] & remaining):
            return False
        # every remaining vertex still needs two usable incident edges
        probe = remaining
        avail = remaining | (1 << cur) | start_bit
        while probe:
            b = probe & -probe
            if (adj_mask[b.bit_length() - 1] & avail).bit_count() < 2:
                return False
            probe ^= b
        # all remaining vertices must be reachable from the path head
        if reachable(1 << cur, remaining) & remaining != remaining:
            return False
        m = cand
        while m:
            b = m & -m
            w = b.bit_length() - 1
            if extend(w, visited | b):
                return True
            m ^= b
        return False

    return extend(0, start_bit)


# Edges per vertex in Kruskal's first batch.  A uniform random complete graph
# is connected after about (n/2) ln n of its lightest edges, so the full sort
# of all N weights is seldom needed.
_KRUSKAL_BATCH = 8


def mst_weight(x: WeightVector) -> tuple[float, list[tuple[int, int]]]:
    """Minimum spanning tree of the complete weighted graph, by Kruskal.

    Edges are taken in increasing weight order with ties broken by coordinate
    index (ties have measure zero under every sampler, but the rule keeps the
    output deterministic).  The first batch is every edge lighter than the
    ``_KRUSKAL_BATCH * n``-th smallest weight (one ``partition``), sorted; it
    is exactly the head of the full stable order, which is built only if the
    tree is still unfinished.  Endpoints come from one vectorised
    ``pair_arrays`` call per batch (the first on the batch in index order, so
    its row search runs on sorted keys), and the union-find (path halving,
    union by size) runs over plain ints.  Returns (total weight, list of n-1
    tree edges), the total summed in the order the edges join the tree.
    """
    space = x.space
    if space.directed:
        raise ValueError("spanning trees are defined on undirected weight vectors")
    n, w = space.n, x.x
    k = min(w.size, _KRUSKAL_BATCH * n)
    lighter = np.flatnonzero(w < np.partition(w, k)[k]) if k < w.size else np.arange(w.size)
    order = np.argsort(w[lighter], kind="stable")
    head = lighter[order]
    parent = list(range(n))
    size = [1] * n
    tree: list[tuple[int, int]] = []
    total = 0.0

    def scan(tails: np.ndarray, heads: np.ndarray, weights: np.ndarray) -> bool:
        nonlocal total
        for i, j, we in zip(tails.tolist(), heads.tolist(), weights.tolist()):
            a, b = i, j
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a == b:
                continue
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
            tree.append((i, j))
            total += we
            if len(tree) == n - 1:
                return True
        return False

    tails, heads = space.pair_arrays(lighter)
    if not scan(tails[order], heads[order], w[head]):
        rest = np.argsort(w, kind="stable")[head.size :]
        scan(*space.pair_arrays(rest), w[rest])
    return total, tree
