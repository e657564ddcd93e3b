"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive: boolean matrix powers for reachability,
a float-sqrt inverse of the undirected pair index, degrees as endpoint counts, a Python union-find for
component labels, per-vertex and per-pair loops for coefficient sums, edge
lookups and isolation probabilities, full enumeration over Prufer sequences
for spanning trees,
every 2^n subset for the spanning-tree series,
permutation scans for matchings, Hamilton cycles, assignments and tours, inclusion-exclusion
over the exact absence formula, the former Philox generator as the
reference for the law of the draws, and each family's own marginal CDF
formula.
These never share code with the implementations they check, apart from the
``pow_one_minus`` helper that the simplex CDF formula keeps.
"""

import itertools
import math
from collections import Counter

import numpy as np

from simplexgraphs import EdgeSpace, SeededRng, prob_all_absent
from simplexgraphs._numeric import pow_one_minus


def all_graphs(n):
    """Yield (mask_bits, adjacency) for every labeled graph on n vertices."""
    space = EdgeSpace(n)
    N = space.num_edges
    pairs = [space.pair(e) for e in range(N)]
    for bits in range(2**N):
        adj = np.zeros((n, n), dtype=bool)
        for e in range(N):
            if bits >> e & 1:
                i, j = pairs[e]
                adj[i, j] = adj[j, i] = True
        yield bits, adj


def reachability(adj):
    """Transitive closure by repeated boolean multiplication."""
    n = adj.shape[0]
    reach = adj | np.eye(n, dtype=bool)
    while True:
        nxt = reach @ reach
        if (nxt == reach).all():
            return reach
        reach = nxt


def components_brute(adj):
    """Component vertex sets, largest first."""
    reach = reachability(adj)
    seen = set()
    comps = []
    for v in range(adj.shape[0]):
        if v in seen:
            continue
        comp = frozenset(np.flatnonzero(reach[v]).tolist())
        seen |= comp
        comps.append(comp)
    comps.sort(key=lambda c: (-len(c), min(c)))
    return comps


def component_census_brute(adj):
    """(kappa_k, tau_k): the number of components, and of tree components, with k vertices."""
    sizes, trees = Counter(), Counter()
    for comp in components_brute(adj):
        idx = sorted(comp)
        sizes[len(idx)] += 1
        if adj[np.ix_(idx, idx)].sum() // 2 == len(idx) - 1:
            trees[len(idx)] += 1
    return dict(sizes), dict(trees)


def has_edge_brute(g, i, j):
    """Is the pair (i, j), in either order, among the graph's edge indices?"""
    return EdgeSpace(g.n).index(i, j) in set(g.edge_indices.tolist())


def vertex_alpha_brute(model, v):
    """alpha_v: the coefficients of the coordinates at v, summed in a loop over the other vertices."""
    space = model.space
    return math.fsum(float(model.alpha[space.index(v, w)]) for w in range(space.n) if w != v)


def factor_sum_brute(weights, vertices):
    """d_S: the vertex factors of a subset, summed in a loop."""
    return math.fsum(float(weights.d[v]) for v in vertices)


def xi_vertex_brute(model, v, p):
    """xi_v(p) = (1 - alpha_v p / L)^N, by Python float arithmetic."""
    return (1.0 - vertex_alpha_brute(model, v) * p / model.L) ** model.space.num_edges


def degrees_brute(g):
    """Degree of every vertex: how often it is a tail plus how often a head."""
    return np.bincount(g.tails, minlength=g.n) + np.bincount(g.heads, minlength=g.n)


def pair_arrays_sqrt_reference(n, e):
    """Undirected (tails, heads) of coordinates ``e`` by the quadratic formula.

    Row i is the largest k with k*(2n-k-1)/2 <= e.  The float sqrt gives it up
    to rounding, and one integer step each way corrects the jitter.
    """
    e = np.asarray(e, dtype=np.int64)
    b = 2 * n - 1
    i = ((b - np.sqrt(b * b - 8.0 * e)) / 2.0).astype(np.int64)

    def start(k):
        return k * (2 * n - k - 1) // 2

    i = np.where(start(i + 1) <= e, i + 1, i)
    i = np.where(start(i) > e, i - 1, i)
    return i, e - start(i) + i + 1


def component_labels_reference(g):
    """Union-find labels, components numbered in order of their first vertex.

    Path halving and union by size over Python ints, one loop per edge, then
    one loop per vertex that numbers the roots as they are first met.
    """
    parent = list(range(g.n))
    size = [1] * g.n

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for t, h in zip(g.tails.tolist(), g.heads.tolist()):
        ra, rb = find(t), find(h)
        if ra != rb:
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            size[ra] += size[rb]

    labels = np.empty(g.n, dtype=np.int64)
    seen = {}
    for v in range(g.n):
        labels[v] = seen.setdefault(find(v), len(seen))
    return labels


def diameter_brute(adj):
    n = adj.shape[0]
    if len(components_brute(adj)) > 1:
        return math.inf
    if n == 1:
        return 0
    dist = np.where(adj, 1, np.inf)
    np.fill_diagonal(dist, 0)
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return int(dist.max())


def prufer_tree_edges(seq, n):
    """Decode one Prufer sequence into the n-1 edges of its labeled tree."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        for leaf in range(n):
            if degree[leaf] == 1:
                edges.append((leaf, v))
                degree[leaf] -= 1
                degree[v] -= 1
                break
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return edges


def mst_weight_brute(x):
    """Minimum over all n^(n-2) labeled spanning trees."""
    space = x.space
    n = space.n
    best = math.inf
    for seq in itertools.product(range(n), repeat=max(0, n - 2)):
        w = sum(x.x[space.index(i, j)] for i, j in prufer_tree_edges(seq, n))
        best = min(best, w)
    return best


def kruskal_reference(x):
    """Kruskal over the full stable sort, components kept as relabelled sets.

    Returns (total, tree) with the tree edges in the order they join and the
    total summed in that order, so a faster Kruskal can be compared exactly.
    """
    space = x.space
    label = list(range(space.n))
    tree = []
    total = 0.0
    for e in np.argsort(x.x, kind="stable").tolist():
        i, j = space.pair(e)
        a, b = label[i], label[j]
        if a == b:
            continue
        label = [a if lab == b else lab for lab in label]
        tree.append((i, j))
        total += float(x.x[e])
        if len(tree) == space.n - 1:
            break
    return total, tree


def prim_weight(x):
    """Dense Prim's algorithm on the complete weighted graph."""
    space = x.space
    n = space.n
    w = np.zeros((n, n))
    for e in range(space.num_edges):
        i, j = space.pair(e)
        w[i, j] = w[j, i] = x.x[e]
    in_tree = [0]
    best = {v: w[0, v] for v in range(1, n)}
    total = 0.0
    while best:
        v = min(best, key=lambda u: (best[u], u))
        total += best.pop(v)
        in_tree.append(v)
        for u in best:
            best[u] = min(best[u], w[v, u])
    return total


def perfect_matching_brute(adj):
    """Does some bijection of [0, n/2) onto [n/2, n) use only edges of adj?"""
    half = adj.shape[0] // 2
    return any(
        all(adj[i, half + perm[i]] for i in range(half)) for perm in itertools.permutations(range(half))
    )


def hamiltonian_brute(adj):
    """Does some cyclic order of all the vertices, vertex 0 first, use only edges of adj?"""
    n = adj.shape[0]
    return n >= 3 and any(
        all(adj[a, b] for a, b in zip((0,) + perm, perm + (0,))) for perm in itertools.permutations(range(1, n))
    )


def assignment_brute(matrix):
    """Minimum cost over all fixed-point-free permutations."""
    n = matrix.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        if any(perm[i] == i for i in range(n)):
            continue
        best = min(best, sum(matrix[i, perm[i]] for i in range(n)))
    return best


def tour_brute(matrix):
    """Minimum cost over all directed Hamilton tours."""
    n = matrix.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(1, n)):
        order = (0,) + perm
        cost = sum(matrix[order[k], order[(k + 1) % n]] for k in range(n))
        best = min(best, cost)
    return best


def absent_present_exact(model, S, T, p):
    """P(S all absent, T all present) by inclusion-exclusion over Lemma-style exact absences."""
    total = 0.0
    T = list(T)
    for r in range(len(T) + 1):
        for sub in itertools.combinations(T, r):
            total += (-1) ** r * prob_all_absent(model, list(S) + list(sub), p)
    return total


def expected_mst_weight_exact(n, L=None):
    """Exact E[min spanning tree weight] for the all-ones simplex at small n.

    Writes the expectation as sum_m (avg kappa(m) - 1) * E[gap_m] where
    avg kappa(m) averages component counts over all m-edge graphs and
    E[gap_m] = L / ((N - m)(N + 1)) is the expected spacing between the m-th
    and (m+1)-st smallest coordinates of a uniform simplex point.
    """
    space = EdgeSpace(n)
    N = space.num_edges
    L = float(N) if L is None else L
    kappa_sum = np.zeros(N + 1)
    count = np.zeros(N + 1)
    for bits, adj in all_graphs(n):
        m = bin(bits).count("1")
        kappa_sum[m] += len(components_brute(adj))
        count[m] += 1
    avg_kappa = kappa_sum / count
    total = 0.0
    for m in range(N):
        total += (avg_kappa[m] - 1.0) * L / ((N - m) * (N + 1))
    return total


def mst_series_subset_reference(d):
    """The spanning-tree series as its 2^n - 1 subset terms, one per bit mask, for n <= 20.

    Subset S adds (|S|-1)! prod_{v in S} d_v / (D^|S| d_S^2), in logs.
    """
    from scipy.special import gammaln

    d = np.asarray(d, dtype=float)
    n = d.size
    assert n <= 20, "the reference enumerates every subset"
    log_d_total = math.log(d.sum())
    log_d = np.log(d)
    total = 0.0
    chunk = 1 << 16
    cols = np.arange(n, dtype=np.uint32)
    for start in range(1, 1 << n, chunk):
        masks = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint32)
        bits = ((masks[:, None] >> cols) & 1).astype(float)
        k = bits.sum(axis=1)
        total += float(np.exp(gammaln(k) - k * log_d_total + bits @ log_d - 2.0 * np.log(bits @ d)).sum())
    return total


def simplex_batch_reference(model, rng, count):
    """The allocating N+1-exponentials formula: a fresh array at every step."""
    N = model.space.num_edges
    e = -np.log1p(-rng.uniform((count, N + 1)))
    y = model.L * e[:, :N] / e.sum(axis=1, keepdims=True)
    return y / model.alpha


def product_exponential_reference(rates, space, rng):
    """Independent exponential coordinates, allocating: -log1p(-U) / lambda."""
    return -np.log1p(-rng.uniform(space.num_edges)) / rates


def marginal_cdf_reference(model, e, p):
    """CDF of coordinate e at p by each family's own formula, as written before the shared unit law.

    The simplex formula keeps its ``pow_one_minus`` call, so that at unit
    alpha and L = N its bits are the ones the frozen ``marginals`` CSV holds.
    """
    N = model.space.num_edges
    if model.kind == "simplex":
        return 1.0 - pow_one_minus(model.simplex.alpha[e] * p / model.simplex.L, N)
    if model.kind == "exponential":
        return -math.expm1(-model.rates[e] * p)
    from scipy.special import betainc

    x = min((p / model.radius) ** 2, 1.0)
    return float(betainc(0.5, (N + 1) / 2.0, x))


def orthant_ball_reference(radius, space, rng):
    """Orthant-ball point, allocating: |g| * (R U^(1/N) / ||g||)."""
    N = space.num_edges
    g = rng.standard_normal(N)
    u = float(rng.uniform())
    r = radius * u ** (1.0 / N)
    return np.abs(g) * (r / np.linalg.norm(g))


class PhiloxRng(SeededRng):
    """The former ``SeededRng``: Philox keyed by (seed mod 2^64, stream mod 2^64).

    The reference generator for the two-sample tests of the law: every frozen
    CSV hash before PCG64DXSM was recorded from these draws.  It draws on one
    thread whatever ``threads`` says, which gave the same numbers; the
    inherited ``exponential_leaves`` then streams its draw on one thread,
    from this generator.
    """

    def __init__(self, seed, stream=0, threads=1):
        self.threads = 1
        key = np.array([int(seed) % 2**64, int(stream) % 2**64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, size=None):
        return self._gen.random(size)

    def exponential(self, size=None):
        return -np.log1p(-self._gen.random(size))

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)
