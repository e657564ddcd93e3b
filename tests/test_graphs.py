import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree, shortest_path

from brutes import (
    kruskal_reference,
    all_graphs,
    component_census_brute,
    component_labels_reference,
    components_brute,
    degrees_brute,
    diameter_brute,
    hamiltonian_brute,
    mst_weight_brute,
    perfect_matching_brute,
    prim_weight,
)
from simplexgraphs import (
    CapacityError,
    CostMatrix,
    DensityModel,
    EdgeSpace,
    SeededRng,
    ThresholdGraph,
    WeightVector,
    bipartite_perfect_matching,
    components,
    diameter,
    held_karp,
    is_connected,
    is_hamiltonian,
    mst_weight,
    graphs,
    threshold,
)


def graph_from_adj(adj):
    n = adj.shape[0]
    return ThresholdGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if adj[i, j]])


def cycle_graph(n):
    return ThresholdGraph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def complete_graph(n):
    return ThresholdGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n):
    return ThresholdGraph.from_edges(n, [(0, v) for v in range(1, n)])


def random_graph_adj(n, seed, reach, density, isolated, cut):
    """Random tree (each vertex joins one of the ``reach`` before it) plus
    independent extra edges; then ``isolated`` vertices lose every edge and,
    when ``cut`` is set, the edges across [0, cut) vs [cut, n) are dropped."""
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < density, 1)
    for v in range(1, n):
        adj[v - 1 - rng.integers(min(reach, v)), v] = True
    adj |= adj.T
    lonely = rng.choice(n, size=isolated, replace=False)
    adj[lonely, :] = adj[:, lonely] = False
    if cut:
        adj[:cut, cut:] = adj[cut:, :cut] = False
    return adj


def assert_diameter_matches_references(adj):
    g = graph_from_adj(adj)
    hops = shortest_path(csr_matrix(adj.astype(float)), directed=False, unweighted=True)
    assert diameter(g) == diameter_brute(adj) == hops.max()


class TestComponents:
    def test_empty_graph(self):
        s = components(ThresholdGraph.from_edges(5, []))
        assert s.kappa == 5
        assert s.sizes == (1, 1, 1, 1, 1)
        assert all(s.is_tree)

    def test_complete_graph(self):
        s = components(complete_graph(5))
        assert s.kappa == 1
        assert s.largest_fraction == 1.0
        assert not s.is_tree[0]

    def test_path_plus_isolated(self):
        s = components(ThresholdGraph.from_edges(4, [(0, 1), (1, 2)]))
        assert s.kappa == 2
        assert s.sizes == (3, 1)
        assert s.is_tree == (True, True)

    def test_size_and_tree_counts(self):
        g = ThresholdGraph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)])
        s = components(g)
        sizes, trees = component_census_brute(adjacency(g))
        assert sizes == {3: 1, 2: 2}
        assert trees == {2: 2}  # the triangle is not a tree
        assert dict(Counter(s.sizes)) == sizes
        assert dict(Counter(k for k, tree in zip(s.sizes, s.is_tree) if tree)) == trees

    def test_size_ties_keep_first_vertex_order(self):
        triangle, path = [(0, 1), (1, 2), (0, 2)], [(3, 4), (4, 5)]
        assert components(ThresholdGraph.from_edges(6, triangle + path)).is_tree == (False, True)
        swapped = [(5 - i, 5 - j) for i, j in triangle + path]
        assert components(ThresholdGraph.from_edges(6, swapped)).is_tree == (True, False)

    def test_exhaustive_n5_against_matrix_powers(self):
        for bits, adj in all_graphs(5):
            g = graph_from_adj(adj)
            ours = components(g)
            brute = components_brute(adj)
            assert ours.kappa == len(brute)
            assert ours.sizes == tuple(len(c) for c in brute)
            assert is_connected(g) == (len(brute) == 1)


def bit_reversed_path(bits):
    """Path through all 2^bits vertices, visited in bit-reversed order of their ids."""
    n = 1 << bits
    order = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]
    return ThresholdGraph.from_edges(n, zip(order, order[1:]))


@st.composite
def permuted_graphs(draw):
    """A random tree on the first k vertices plus random extra edges, under a random vertex permutation."""
    n = draw(st.integers(2, 150))
    k = draw(st.integers(1, n))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, k)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), max_size=2 * n))
    pairs += [(i, (i + d) % n) for i, d in extra]
    perm = draw(st.permutations(range(n)))
    return ThresholdGraph.from_edges(n, [(perm[i], perm[j]) for i, j in pairs])


def adjacency(g):
    adj = np.zeros((g.n, g.n), dtype=bool)
    adj[g.tails, g.heads] = adj[g.heads, g.tails] = True
    return adj


class TestComponentLabels:
    """Hooking labels equal the union-find's exactly: same partition, same numbering."""

    @settings(max_examples=150, deadline=None)
    @given(g=permuted_graphs())
    def test_property_against_union_find_and_matrix_powers(self, g):
        np.testing.assert_array_equal(graphs._component_labels(g), component_labels_reference(g))
        brute = components_brute(adjacency(g))
        s = components(g)
        assert s.kappa == len(brute)
        assert s.sizes == tuple(len(c) for c in brute)
        inside = [int(sum(t in c for t in g.tails.tolist())) for c in brute]
        assert s.is_tree == tuple(m == len(c) - 1 for m, c in zip(inside, brute))
        assert is_connected(g) == (len(brute) == 1)

    @pytest.mark.parametrize(
        "g",
        [
            pytest.param(bit_reversed_path(10), id="bit-reversed-path-1024"),
            pytest.param(bit_reversed_path(14), id="bit-reversed-path-16384"),
            pytest.param(
                ThresholdGraph.from_edges(1023, [(1022 - v, 1022 - (v - 1) // 2) for v in range(1, 1023)]),
                id="binary-tree-reversed-ids",
            ),
            pytest.param(ThresholdGraph.from_edges(500, [(v, 499) for v in range(499)]), id="star-centre-last"),
            pytest.param(ThresholdGraph.from_edges(300, [(2 * v, 2 * v + 1) for v in range(150)]), id="matching"),
            pytest.param(ThresholdGraph.from_edges(40, []), id="empty"),
            pytest.param(ThresholdGraph.from_edges(2, []), id="n2-empty"),
            pytest.param(ThresholdGraph.from_edges(2, [(0, 1)]), id="n2-edge"),
        ],
    )
    def test_named_cases(self, g):
        labels = graphs._component_labels(g)
        np.testing.assert_array_equal(labels, component_labels_reference(g))
        assert components(g).kappa == int(labels.max()) + 1 == g.n - g.edge_count  # all are forests


class TestConnectivityAndDiameter:
    def test_examples(self):
        assert is_connected(complete_graph(5))
        assert not is_connected(ThresholdGraph.from_edges(3, []))
        assert is_connected(ThresholdGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))

    def test_diameter_examples(self):
        assert diameter(complete_graph(5)) == 1
        assert diameter(ThresholdGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])) == 3
        assert diameter(ThresholdGraph.from_edges(4, [(0, 1), (2, 3)])) == math.inf

    def test_exhaustive_n5_against_floyd_warshall(self):
        for bits, adj in all_graphs(5):
            assert diameter(graph_from_adj(adj)) == diameter_brute(adj)

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.one_of(st.sampled_from([2, 63, 64, 65, 128, 129]), st.integers(2, 200)),
        seed=st.integers(0, 2**32 - 1),
        reach=st.integers(1, 200),
        density=st.sampled_from([0.0, 0.002, 0.01, 0.05, 0.3]),
        isolated=st.sampled_from([0, 0, 0, 1, 2]),
        cut=st.one_of(st.just(0), st.integers(0, 200)),
    )
    def test_property_against_floyd_warshall_and_csgraph(self, n, seed, reach, density, isolated, cut):
        adj = random_graph_adj(n, seed, reach, density, min(isolated, n), cut % n)
        assert_diameter_matches_references(adj)

    def test_one_word_blocks(self, monkeypatch):
        # a one-word gather budget gives 64-source blocks, so every graph
        # with n > 64 runs the multi-block loop, full and partial blocks alike
        monkeypatch.setattr(graphs, "_GATHER_BYTES", 8)
        assert diameter(ThresholdGraph.from_edges(129, [(v, v + 1) for v in range(128)])) == 128
        assert diameter(cycle_graph(130)) == 65
        for seed, (n, reach, density, isolated, cut) in enumerate(
            [(65, 3, 0.0, 0, 0), (128, 1, 0.01, 0, 0), (129, 40, 0.02, 0, 0), (200, 200, 0.05, 0, 0),
             (150, 5, 0.0, 1, 0), (192, 10, 0.01, 0, 64), (200, 200, 0.05, 0, 199)]
        ):
            assert_diameter_matches_references(random_graph_adj(n, seed, reach, density, isolated, cut))

    @pytest.mark.parametrize("words", [2, 3])
    @pytest.mark.parametrize("n", [129, 130, 193, 257])
    def test_multi_word_blocks(self, monkeypatch, n, words):
        # a budget of 16*words bytes per edge (8 per word at each end) allows
        # blocks of up to `words` words; balancing then shrinks a 3-word limit to 2 at n=193 (four
        # words in two blocks), and every n here ends in a partial last word
        for seed, (reach, density, isolated, cut) in enumerate(
            [(1, 0.0, 0, 0), (3, 0.01, 0, 0), (n, 0.03, 0, 0), (5, 0.0, 1, 0), (n, 0.02, 0, n // 2)]
        ):
            adj = random_graph_adj(n, seed, reach, density, isolated, cut)
            monkeypatch.setattr(graphs, "_GATHER_BYTES", 16 * words * max(1, int(np.triu(adj).sum())))
            assert_diameter_matches_references(adj)
        # a Hamilton path whose two ends share one source word (a word of one
        # vertex holds one end): only a BFS from that word sees the diameter n-1
        monkeypatch.setattr(graphs, "_GATHER_BYTES", 16 * words * (n - 1))
        for a in range(0, n, 64):
            b = min(a + 63, n - 1)
            order = [a] + [v for v in range(n) if v not in (a, b)] + ([b] if b != a else [])
            assert diameter(ThresholdGraph.from_edges(n, zip(order, order[1:]))) == n - 1

    def test_erdos_renyi_cross_model_sanity(self):
        # independent-coordinate sampler at edge prob 2 ln n / n: connected in
        # at least 90% of trials
        n = 100
        density = DensityModel.product_exponential(1.0, EdgeSpace(n))
        target = 2.0 * math.log(n) / n
        p = -math.log1p(-target)  # rate-one exponential threshold hitting that edge prob
        hits = 0
        trials = 500
        for t in range(trials):
            x = density.sample(SeededRng(50, t))
            hits += is_connected(threshold(x, p))
        assert hits / trials >= 0.9


def path_edges(vertices):
    return list(zip(vertices, vertices[1:]))


def lollipop_adj(clique, tail):
    """A clique on [0, clique) with a path of ``tail`` more vertices hung from vertex clique-1."""
    n = clique + tail
    adj = np.zeros((n, n), dtype=bool)
    adj[:clique, :clique] = True
    for v in range(clique - 1, n - 1):
        adj[v, v + 1] = adj[v + 1, v] = True
    np.fill_diagonal(adj, False)
    return adj


def chorded_cycle_adj(n, chords, seed):
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n), dtype=bool)
    for v in range(n):
        adj[v, (v + 1) % n] = adj[(v + 1) % n, v] = True
    for a, b in rng.integers(0, n, size=(chords, 2)):
        if a != b:
            adj[a, b] = adj[b, a] = True
    return adj


class TestDiameterLastLevels:
    """Graphs whose last BFS levels leave few unfinished columns, so a level pulls only those."""

    @pytest.mark.parametrize("n", [2, 3, 65, 200])
    def test_paths_against_references(self, n):
        adj = np.zeros((n, n), dtype=bool)
        for v in range(n - 1):
            adj[v, v + 1] = adj[v + 1, v] = True
        assert_diameter_matches_references(adj)

    @pytest.mark.parametrize("n", [300, 700])
    def test_long_paths(self, n):
        # vertex labels shuffled, so a neighbour list is not a label range
        order = np.random.default_rng(n).permutation(n).tolist()
        assert diameter(ThresholdGraph.from_edges(n, path_edges(order))) == n - 1

    @pytest.mark.parametrize("clique, tail", [(3, 10), (40, 60), (150, 50), (100, 130)])
    def test_lollipop(self, clique, tail):
        adj = lollipop_adj(clique, tail)
        assert diameter_brute(adj) == tail + 1
        assert_diameter_matches_references(adj)

    @pytest.mark.parametrize("n, chords", [(100, 2), (200, 3), (257, 5)])
    def test_chorded_cycle(self, n, chords):
        assert_diameter_matches_references(chorded_cycle_adj(n, chords, seed=n))

    @pytest.mark.parametrize("words", [1, 2])
    def test_chorded_cycle_in_small_blocks(self, monkeypatch, words):
        adj = chorded_cycle_adj(257, 4, seed=3)
        monkeypatch.setattr(graphs, "_GATHER_BYTES", 16 * words * int(np.triu(adj).sum()))
        assert_diameter_matches_references(adj)

    @pytest.mark.parametrize(
        "parts",
        [
            [("path", 150), ("path", 50)],
            [("lollipop", 120), ("cycle", 80)],
            [("cycle", 3), ("lollipop", 197)],
        ],
    )
    def test_two_components_without_isolated_vertices(self, parts):
        blocks = []
        for shape, size in parts:
            if shape == "path":
                blocks.append(lollipop_adj(2, size - 2))
            elif shape == "lollipop":
                blocks.append(lollipop_adj(size // 3, size - size // 3))
            else:
                blocks.append(chorded_cycle_adj(size, 0, seed=0))
        n = sum(b.shape[0] for b in blocks)
        adj = np.zeros((n, n), dtype=bool)
        at = 0
        for b in blocks:
            adj[at : at + b.shape[0], at : at + b.shape[0]] = b
            at += b.shape[0]
        # relabel so both components interleave across source words
        perm = np.random.default_rng(n).permutation(n)
        adj = adj[np.ix_(perm, perm)]
        assert degrees_brute(graph_from_adj(adj)).min() > 0
        assert diameter(graph_from_adj(adj)) == math.inf
        assert_diameter_matches_references(adj)

    @settings(max_examples=80, deadline=None)
    @given(
        core=st.integers(2, 60),
        tails=st.lists(st.integers(1, 60), min_size=1, max_size=4),
        density=st.sampled_from([0.05, 0.2, 0.6]),
        split=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_random_core_with_tails(self, core, tails, density, split, seed):
        # most columns finish early and the tails' ends finish last
        assert_diameter_matches_references(core_with_tails_adj(core, tails, density, split, seed))


def core_with_tails_adj(core, tails, density, split, seed):
    """A random core (a random tree plus independent edges of ``density``) with
    paths of the given lengths hung from it, at most 200 vertices, labels
    shuffled; ``split`` detaches the first path."""
    rng = np.random.default_rng(seed)
    n = min(200, core + sum(tails))
    adj = np.zeros((n, n), dtype=bool)
    adj[:core, :core] = np.triu(rng.random((core, core)) < density, 1)
    for v in range(1, core):
        adj[rng.integers(v), v] = True
    v = core
    for i, length in enumerate(tails):
        prev = int(rng.integers(core)) if not (split and i == 0) else None
        for _ in range(length):
            if v >= n:
                break
            if prev is not None:
                adj[prev, v] = True
            prev = v
            v += 1
    adj |= adj.T
    perm = rng.permutation(n)
    return adj[np.ix_(perm, perm)]


def dense_pair_adj(sizes, density, bridge, seed):
    """Two random dense components (each a random tree plus independent edges),
    joined by one edge when ``bridge`` is set, labels interleaved."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    adj = np.zeros((n, n), dtype=bool)
    at = 0
    for size in sizes:
        block = np.triu(rng.random((size, size)) < density, 1)
        for v in range(1, size):
            block[rng.integers(v), v] = True
        adj[at : at + size, at : at + size] = block
        at += size
    if bridge:
        adj[sizes[0] - 1, sizes[0]] = True
    adj |= adj.T
    perm = rng.permutation(n)
    return adj[np.ix_(perm, perm)]


def hub_lollipop_adj(clique, tail):
    """A lollipop plus a last vertex joined to every other.  Its column holds
    every source after the first level, so the next level's prefix skips it;
    it comes last in every other list, so it is not in their prefixes."""
    adj = np.zeros((clique + tail + 1, clique + tail + 1), dtype=bool)
    adj[:-1, :-1] = lollipop_adj(clique, tail)
    adj[-1, :-1] = adj[:-1, -1] = True
    return adj


@pytest.fixture
def list_spans(monkeypatch):
    """Record the (lo, hi) span of every neighbour-list build in ``graphs.diameter``."""
    spans = []
    build = graphs._lists

    def spy(nbrs, starts, deg, cols, lo=0, hi=None):
        spans.append((lo, hi))
        return build(nbrs, starts, deg, cols, lo, hi)

    monkeypatch.setattr(graphs, "_lists", spy)
    return spans


def force_prefix(monkeypatch, n, need):
    """Shorten the prefix: for a graph of n <= 200 vertices (one block of n
    sources) a level's prefix is then ceil(need / -ln(1 - d)) neighbours,
    and one neighbour at need=0."""
    monkeypatch.setattr(graphs, "_PREFIX_MISS", n * math.exp(-need))


PREFIX_GRAPHS = {
    "lollipop-40-60": lambda: lollipop_adj(40, 60),
    "lollipop-150-50": lambda: lollipop_adj(150, 50),
    "lollipop-100-99": lambda: lollipop_adj(100, 99),
    "hub-lollipop": lambda: hub_lollipop_adj(60, 40),
    "core-with-tails": lambda: core_with_tails_adj(120, [30, 20, 15], 0.5, False, 1),
    "core-with-detached-tail": lambda: core_with_tails_adj(150, [40, 10], 0.6, True, 2),
    "two-dense-components": lambda: dense_pair_adj((90, 110), 0.4, False, 3),
    "two-dense-components-bridged": lambda: dense_pair_adj((60, 140), 0.5, True, 4),
}


class TestDiameterPrefixPull:
    """Graphs dense enough that a level pulls a prefix of each neighbour list first.

    A larger ``_PREFIX_MISS`` shortens the prefix, so small graphs take that
    branch with columns still open after it, and the rest of their lists must
    be pulled."""

    @pytest.mark.parametrize("need", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("family", sorted(PREFIX_GRAPHS))
    def test_forced_prefix_against_references(self, monkeypatch, list_spans, family, need):
        adj = PREFIX_GRAPHS[family]()
        force_prefix(monkeypatch, adj.shape[0], need)
        assert_diameter_matches_references(adj)
        assert any(hi is not None for _, hi in list_spans)
        assert any(lo > 0 for lo, _ in list_spans)  # some columns stayed open after their prefix

    @settings(max_examples=60, deadline=None)
    @given(
        core=st.integers(2, 200),
        tails=st.lists(st.integers(1, 40), max_size=3),
        density=st.sampled_from([0.1, 0.3, 0.6, 0.9]),
        split=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        need=st.sampled_from([0.0, 0.3, 1.0, 3.0]),
    )
    def test_property_forced_prefix(self, core, tails, density, split, seed, need):
        adj = core_with_tails_adj(core, tails, density, split, seed)
        with pytest.MonkeyPatch.context() as mp:
            force_prefix(mp, adj.shape[0], need)
            assert_diameter_matches_references(adj)

    def test_dense_graph_takes_the_prefix(self, list_spans):
        # at the default miss chance: 300 sources, reach density ~0.5 after
        # level 1, so the prefix is ~15 neighbours of a mean degree ~150
        adj = random_graph_adj(300, 5, 300, 0.5, 0, 0)
        assert_diameter_matches_references(adj)
        prefixes = [hi for lo, hi in list_spans if lo == 0 and hi is not None]
        assert prefixes and all(2 * hi <= adj.sum() / 300 for hi in prefixes)

    def test_sparse_graph_gathers_whole_lists(self, list_spans):
        # mean degree ~4: no prefix is short enough, so every list is whole
        assert_diameter_matches_references(random_graph_adj(200, 6, 200, 0.01, 0, 0))
        assert all(hi is None for _, hi in list_spans)


def hub_cycle_edges(n):
    """Vertex 0 joined to 1..n-7, and the 9-cycle 0, n-7, n-6, ..., n-1, 1, 0
    through it: a path over the top seven vertices closed by the chord
    (n-1, 1).  A leaf of the hub is 1 + 4 from cycle vertices n-4 and n-3."""
    return [(0, v) for v in range(1, n - 6)] + path_edges(list(range(n - 7, n)) + [1])


class TestDiameterWideKeys:
    """Graphs at the edge of int32 adjacency keys end * n + other.  The keys
    are int32 while n * n < 2**31, which holds up to n = 46,340, and int64
    from n = 46,341; a table of every source word would take n**2 / 8 bytes,
    268 MB at n = 46,341."""

    @staticmethod
    def diameter_and_peak(g):
        tracemalloc.start()
        try:
            d = diameter(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return d, peak

    @pytest.mark.parametrize("n", [46_336, 46_340, 46_341])
    def test_star_at_the_top_vertex(self, n):
        d, peak = self.diameter_and_peak(ThresholdGraph.from_edges(n, [(v, n - 1) for v in range(n - 1)]))
        assert d == 2
        assert peak < 64 << 20

    def test_path_with_chord_through_the_top_vertices(self):
        for small in (10, 70, 200):  # the same shape against both references
            adj = np.zeros((small, small), dtype=bool)
            for a, b in hub_cycle_edges(small):
                adj[a, b] = adj[b, a] = True
            assert diameter_brute(adj) == 5
            assert_diameter_matches_references(adj)
        n = 46_341
        g = ThresholdGraph.from_edges(n, hub_cycle_edges(n))
        d, peak = self.diameter_and_peak(g)
        assert d == 5
        assert peak < 64 << 20
        adj = csr_matrix((np.ones(g.edge_count), (g.tails, g.heads)), shape=(n, n))
        hops = shortest_path(adj, directed=False, unweighted=True, indices=[2, n - 4, n - 3])
        assert hops.max() == 5 and np.isfinite(hops).all()


class TestBipartiteMatching:
    def test_complete_has_matching(self):
        assert bipartite_perfect_matching(complete_graph(4))

    def test_empty_has_none(self):
        assert not bipartite_perfect_matching(ThresholdGraph.from_edges(4, []))

    def test_hall_violation(self):
        # crossing edges {0-2, 0-3} only: vertex 1 cannot be matched
        g = ThresholdGraph.from_edges(4, [(0, 2), (0, 3)])
        assert not bipartite_perfect_matching(g)

    def test_within_side_edges_ignored(self):
        g = ThresholdGraph.from_edges(4, [(0, 1), (2, 3), (0, 2)])
        assert not bipartite_perfect_matching(g)
        g2 = ThresholdGraph.from_edges(4, [(0, 2), (1, 3), (0, 1)])
        assert bipartite_perfect_matching(g2)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            bipartite_perfect_matching(ThresholdGraph.from_edges(5, []))

    def test_monotone_under_edge_additions(self):
        rng = np.random.default_rng(8)
        n = 8
        for _ in range(60):
            adj = rng.random((n, n)) < 0.3
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if adj[i, j]]
            g = ThresholdGraph.from_edges(n, pairs)
            before = bipartite_perfect_matching(g)
            extra = (int(rng.integers(0, n // 2)), int(rng.integers(n // 2, n)))
            g2 = ThresholdGraph.from_edges(n, pairs + [extra])
            after = bipartite_perfect_matching(g2)
            if before:
                assert after


    @settings(max_examples=150, deadline=None)
    @given(half=st.integers(1, 5), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_property_against_brute_force(self, half, density, seed):
        n = 2 * half
        rng = np.random.default_rng(seed)
        adj = np.triu(rng.random((n, n)) < density, 1)
        adj |= adj.T
        assert bipartite_perfect_matching(graph_from_adj(adj)) == perfect_matching_brute(adj)


class TestHamiltonian:
    def test_cycle_graphs(self):
        for n in range(3, 11):
            assert is_hamiltonian(cycle_graph(n))

    def test_complete_graphs(self):
        for n in range(3, 11):
            assert is_hamiltonian(complete_graph(n))

    def test_stars(self):
        for n in range(3, 11):
            assert not is_hamiltonian(star_graph(n))

    def test_path_not_hamiltonian(self):
        g = ThresholdGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert not is_hamiltonian(g)

    def test_cycle_with_chord(self):
        g = ThresholdGraph.from_edges(6, [(v, (v + 1) % 6) for v in range(6)] + [(0, 3)])
        assert is_hamiltonian(g)

    def test_two_triangles_sharing_vertex(self):
        # articulation at the shared vertex: no Hamilton cycle
        g = ThresholdGraph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert not is_hamiltonian(g)

    def test_two_disjoint_triangles(self):
        # minimum degree 2 and no cut vertex inside either triangle, but disconnected
        g = ThresholdGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not is_hamiltonian(g)

    def test_unbalanced_bipartite_not_hamiltonian(self):
        # K_{2,3} is connected with min degree 2 but not Hamiltonian
        g = ThresholdGraph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        assert not is_hamiltonian(g)

    def test_two_cliques_sharing_a_vertex_are_refused_fast(self):
        # two K_10 on [0, 10) and [9, 19): minimum degree 9 and connected, but vertex 9
        # cuts them.  The cut-vertex guard answers in well under a millisecond; the
        # backtracking search alone takes seconds on this graph
        edges = [(i, j) for i in range(19) for j in range(i + 1, 19) if j < 10 or i >= 9]
        g = ThresholdGraph.from_edges(19, edges)
        start = time.perf_counter()
        assert not is_hamiltonian(g)
        assert time.perf_counter() - start < 0.5

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(9, 13), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_property_against_held_karp(self, n, density, seed):
        # a Hamilton cycle is a tour of cost 0 when each edge costs 0 and each non-edge 1
        rng = np.random.default_rng(seed)
        adj = np.triu(rng.random((n, n)) < density, 1)
        adj |= adj.T
        costs = np.where(adj, 0.0, 1.0)
        np.fill_diagonal(costs, np.inf)
        assert is_hamiltonian(graph_from_adj(adj)) == (held_karp(CostMatrix(costs))[0] == 0.0)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            is_hamiltonian(ThresholdGraph.from_edges(25, [(0, 1)]))

    def test_small_n(self):
        assert not is_hamiltonian(complete_graph(2))

    def test_exhaustive_up_to_n5_against_permutations(self):
        # the non-Hamiltonian graphs here with a Hamilton path from vertex 0
        # include K_{2,3} with 0 on the side of three
        for n in range(3, 6):
            for bits, adj in all_graphs(n):
                assert is_hamiltonian(graph_from_adj(adj)) == hamiltonian_brute(adj)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(3, 8), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_property_against_brute_force(self, n, density, seed):
        rng = np.random.default_rng(seed)
        adj = np.triu(rng.random((n, n)) < density, 1)
        adj |= adj.T
        assert is_hamiltonian(graph_from_adj(adj)) == hamiltonian_brute(adj)


def mst_instance(n, seed, kind):
    space = EdgeSpace(n)
    rng = np.random.default_rng(seed)
    if kind == "integer":
        return WeightVector(space, rng.integers(1, 4, space.num_edges).astype(float))
    w = rng.uniform(0.01, 1.0, space.num_edges)
    if kind == "heavy_vertex":
        tails, _ = space.all_pairs()
        w[tails == 0] += 1.0
    return WeightVector(space, w)


class TestMstWeight:
    def test_hand_instance(self):
        x = WeightVector(EdgeSpace(3), np.array([0.1, 0.2, 0.9]))
        w, tree = mst_weight(x)
        assert w == pytest.approx(0.3)
        assert sorted(tree) == [(0, 1), (0, 2)]

    def test_all_equal_weights(self):
        x = WeightVector(EdgeSpace(6), np.full(15, 0.25))
        w, tree = mst_weight(x)
        assert w == pytest.approx(5 * 0.25)
        assert len(tree) == 5

    def test_tie_break_by_edge_index(self):
        x = WeightVector(EdgeSpace(4), np.full(6, 1.0))
        _, tree = mst_weight(x)
        space = EdgeSpace(4)
        assert [space.index(i, j) for i, j in tree] == [0, 1, 2]

    def test_against_prufer_enumeration(self):
        rng = np.random.default_rng(17)
        for trial in range(100):
            n = int(rng.integers(3, 7))
            space = EdgeSpace(n)
            x = WeightVector(space, rng.uniform(0.0, 1.0, space.num_edges))
            w, tree = mst_weight(x)
            assert len(tree) == n - 1
            assert w == pytest.approx(mst_weight_brute(x), abs=1e-12)

    def test_against_prim(self):
        rng = np.random.default_rng(18)
        for trial in range(1000):
            n = int(rng.integers(3, 9))
            space = EdgeSpace(n)
            x = WeightVector(space, rng.uniform(0.0, 1.0, space.num_edges))
            assert mst_weight(x)[0] == pytest.approx(prim_weight(x), abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), integer=st.booleans())
    def test_property_against_prufer_enumeration(self, n, seed, integer):
        x = mst_instance(n, seed, "integer" if integer else "uniform")
        w, tree = mst_weight(x)
        assert len(tree) == n - 1
        assert w == pytest.approx(mst_weight_brute(x), abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.one_of(st.sampled_from([17, 18, 40, 60]), st.integers(2, 60)),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["uniform", "integer", "heavy_vertex"]),
    )
    def test_property_against_reference_kruskal_and_csgraph(self, n, seed, kind):
        # integer weights put ties at the first batch's cut; a heavy vertex
        # keeps the first batch disconnected once n >= 18, so the full sort runs
        x = mst_instance(n, seed, kind)
        total, tree = mst_weight(x)
        assert (total, tree) == kruskal_reference(x)
        dense = np.zeros((n, n))
        tails, heads = x.space.all_pairs()
        dense[tails, heads] = x.x
        assert total == pytest.approx(minimum_spanning_tree(dense).sum(), rel=1e-12)

    def test_first_batch_too_small(self):
        # vertex 0's edges are the heaviest, so the 8n lightest edges miss it
        x = mst_instance(40, 5, "heavy_vertex")
        tails, heads = x.space.all_pairs()
        assert (x.x[tails == 0] > np.partition(x.x, 8 * 40)[8 * 40]).all()
        assert mst_weight(x) == kruskal_reference(x)

    def test_rejects_directed(self):
        x = WeightVector(EdgeSpace(3, directed=True), np.ones(6))
        with pytest.raises(ValueError):
            mst_weight(x)


class TestDiameterRegimes:
    def test_k3_regime_reachable(self):
        # theta close to 1/2 puts n=3000 solidly in the diameter-3 window
        n = 3000
        from simplexgraphs import SimplexModel, sample_simplex

        model = SimplexModel.uniform(n)
        p = n ** (0.49 - 1.0)
        diams = []
        for t in range(3):
            x = sample_simplex(model, SeededRng(77, t))
            diams.append(diameter(threshold(x, p)))
        assert diams == [3, 3, 3]
