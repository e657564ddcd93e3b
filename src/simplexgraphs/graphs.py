"""Deterministic graph predicates over threshold graphs.

Connectivity and component structure run on min-label hooking with pointer
jumping (a few numpy calls per round); diameter runs a bit-parallel BFS from
all sources at once (one bit per source and vertex; the adjacency lists come
from one sort of int32 keys, int64 past n = 46,340, and each block's first
level from one exact bincount over its sources' lists; then a few numpy calls
over the lists per BFS level, each vertex pulling its neighbours' reach and,
on dense levels, only as much of its list as it takes to hear from every
source); the perfect-matching check works across the fixed vertex split
[0, n/2) vs [n/2, n) with scipy's Hopcroft-Karp; the Hamilton-cycle decision
is exact backtracking with pruning, capped at ``HAMILTON_MAX_N`` vertices.
"""

from __future__ import annotations

import functools
import math
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


# Byte budget of one gather of reach words over the adjacency lists; it sets
# how many sources one block of the all-sources BFS serves.
_GATHER_BYTES = 1 << 22

# Chance, about, that a column still misses a source of its block after a
# level has pulled only a prefix of its neighbour list; it sets that prefix.
_PREFIX_MISS = 1e-2


def _lists(nbrs, starts, deg, cols, lo=0, hi=None):
    """Positions [lo, hi) of each listed column's neighbour list, back to back.

    Returns the neighbours and the start of each column's group among them.
    A list shorter than ``hi`` ends at its own length, ``hi=None`` runs to
    the end of every list, and every listed column must have more than
    ``lo`` neighbours.
    """
    lens = (deg[cols] if hi is None else np.minimum(deg[cols], hi)) - lo
    firsts = np.cumsum(lens) - lens
    rows = np.arange(firsts[-1] + lens[-1]) + np.repeat(starts[cols] + lo - firsts, lens)
    return nbrs[rows], firsts


def _pull(reach, lists):
    """OR of the reach words over each group of neighbours from ``_lists``."""
    got, firsts = lists
    return np.bitwise_or.reduceat(np.take(reach, got, axis=1), firsts, axis=1)


def diameter(g: ThresholdGraph) -> int | float:
    """Longest shortest path; math.inf when disconnected.

    Runs a BFS from every source at once.  Sources are taken in blocks of
    64*W; word w of vertex v holds 64 bits, bit s set once v has been reached
    from source 64*w + s of the block.  The words are stored word-major, as W
    rows of n, so each pass below runs along contiguous rows.  The graph is
    held once as a symmetric adjacency grouped by vertex: each edge listed
    under both ends as the key ``end * n + other``, and the keys sorted once.
    They are int32 while ``n * n < 2**31`` (n up to 46,340) and int64 above.
    ``indptr`` is where each ``v * n`` falls among the sorted keys, and the
    neighbour lists are the keys modulo n.

    A block's first level is one ``bincount`` over its sources' lists, which
    are one slice of them: source offset o with neighbour v adds ``2**(o %
    32)`` to half ``(o >> 5) & 1`` of word ``o >> 6`` of column v.  The
    sources of a word own distinct bits and each pair is listed once, so the
    sum is their OR, and each half stays below 2**32, exact in a double.
    Cast to little-endian uint32, the halves read as the block's uint64
    words.  The doubles take 16 * W * n bytes, twice the block's reach and,
    as no vertex is isolated, at most twice a full gather's 16 * W * m.  The
    block then adds its sources' own bits.

    One BFS level ORs each vertex's neighbours' reach words into it: one
    ``take`` over the neighbour lists and one ``bitwise_or.reduceat`` over
    the groups.  Pulling reach, not only the last level's frontier, gives
    the same words: a source in a neighbour's reach from an earlier level is
    already in the vertex's own reach.  Reach is denser, though, so a column
    (vertex) often holds every source of the block after a few neighbours.
    That decides how much a level gathers (never its result, as OR is
    monotone and the finished columns would gain no bit):

    * Once fewer than half of the columns still miss a source, the level
      gathers only their neighbour lists.  That is already little work, so
      the density below is not counted.
    * Otherwise, with d the block's reach density (set bits over
      sources * n), a column misses some source after k neighbours with
      chance about ``sources * (1 - d)**k``; k is the least length that
      puts this below ``_PREFIX_MISS``.  When 2k is at most the mean
      degree, the level gathers the first k neighbours of each unfinished
      column, then the rest of the list only for columns still missing a
      source (the bottom-up step of direction-optimizing BFS; Beamer,
      Asanovic and Patterson, SC 2012).  When no column is finished yet, as
      at the first level of a dense graph, the prefix lists are built once
      per length and shared by the blocks.  Else the level gathers every
      list.

    W is at most the number of words whose gather over the adjacency fits
    ``_GATHER_BYTES``, and the blocks are balanced so the last one is not
    mostly empty.
    """
    n, m = g.n, g.edge_count
    nwords = -(-n // 64)
    # each edge under both ends as end * n + other; sorted, the keys group
    # the neighbour lists by vertex
    keys = np.empty(2 * m, dtype=np.int32 if n * n < 2**31 else np.int64)
    for ends, others, half in ((g.tails, g.heads, slice(0, m)), (g.heads, g.tails, slice(m, None))):
        np.multiply(ends, n, out=keys[half])
        np.add(keys[half], others, out=keys[half])
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=keys.dtype) * n)
    deg = np.diff(indptr)
    if deg.min() == 0:
        return math.inf
    nbrs = np.remainder(keys, n, out=keys).astype(np.int64)
    del keys
    starts = indptr[:-1]
    blocks = -(-nwords // max(1, min(nwords, _GATHER_BYTES // (16 * m))))
    words = -(-nwords // blocks)
    one = np.uint64(1)
    ecc_max = 1

    @functools.cache
    def prefix(k):  # the first k neighbours of every column
        return _lists(nbrs, starts, deg, np.arange(n), hi=k)

    for s0 in range(0, n, 64 * words):
        s1 = min(n, s0 + 64 * words)
        # level 1: each block source reaches its neighbours, one exact sum of
        # bits per 32-bit half word, and itself
        off = np.arange(s1 - s0)
        slots = np.repeat(2 * n * (off >> 6) + ((off >> 5) & 1), deg[s0:s1])
        slots += 2 * nbrs[indptr[s0] : indptr[s1]]
        reach = np.bincount(slots, np.repeat(np.ldexp(1.0, off & 31), deg[s0:s1]), 2 * words * n)
        reach = reach.astype("<u4").view("<u8").reshape(words, n)
        reach[off >> 6, off + s0] |= one << (off & 63).astype(np.uint64)
        full = np.bitwise_or.reduce(reach, axis=1, keepdims=True)
        # sources * (1 - d)**k <= _PREFIX_MISS once k * -ln(1 - d) reaches this
        need = math.log((s1 - s0) / _PREFIX_MISS)
        dist = 1
        while not (done := (reach == full).all(axis=0)).all():
            cols = np.flatnonzero(~done)
            if 2 * cols.size < n:
                pulled = _pull(reach, _lists(nbrs, starts, deg, cols))
            else:
                bits = int(np.bitwise_count(reach).sum())
                k = max(1, math.ceil(need / -math.log1p(-bits / ((s1 - s0) * n))))
                if k * n <= m:
                    pulled = _pull(reach, prefix(k) if cols.size == n else _lists(nbrs, starts, deg, cols, hi=k))
                    rest = (deg[cols] > k) & ((pulled | reach[:, cols]) != full).any(axis=0)
                    if rest.any():
                        pulled[:, rest] |= _pull(reach, _lists(nbrs, starts, deg, cols[rest], lo=k))
                else:
                    cols = slice(None)
                    pulled = _pull(reach, (nbrs, starts))
            pulled &= ~reach[:, cols]
            if not pulled.any():
                return math.inf
            reach[:, cols] |= pulled
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
            # the closing edge exists: one call up, ``cur`` was the last remaining
            # vertex, and the ``adj_mask[0] & remaining`` prune kept it adjacent to 0
            # (so did the two-usable-edges prune, whose only candidates were the head and 0)
            return True
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
    output deterministic).  ``cut`` is the ``_KRUSKAL_BATCH * n``-th smallest
    weight (one ``partition``), or inf when there are fewer edges.  The edges
    lighter than ``cut`` form the first batch and the rest the second, read
    only if the tree is still unfinished: each batch is taken in index order,
    decoded by ``pair_arrays``, and ordered by a stable sort of its weights,
    so the two run in the full stable order.  The union-find (path halving,
    union by size) runs over plain ints.  Returns (total weight, list of n-1
    tree edges), the total summed in the order the edges join the tree.
    """
    space = x.space
    if space.directed:
        raise ValueError("spanning trees are defined on undirected weight vectors")
    n, w = space.n, x.x
    k = _KRUSKAL_BATCH * n
    cut = np.partition(w, k)[k] if k < w.size else math.inf
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

    for take in (np.less, np.greater_equal):
        e = np.flatnonzero(take(w, cut))
        weights = w[e]
        order = np.argsort(weights, kind="stable")
        tails, heads = space.pair_arrays(e)
        if scan(tails[order], heads[order], weights[order]):
            break
    return total, tree
