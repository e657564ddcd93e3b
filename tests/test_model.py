import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brutes import factor_sum_brute, has_edge_brute, pair_arrays_sqrt_reference, vertex_alpha_brute
from simplexgraphs import (
    DecomposableWeights,
    EdgeSpace,
    SimplexModel,
    ThresholdGraph,
    WeightVector,
    threshold,
)


class TestEdgeIndex:
    def test_first_lexicographic_pair(self):
        assert EdgeSpace(4).index(0, 1) == 0

    def test_last_pair_n4(self):
        # enumerate all 6 pairs lexicographically: (2,3) comes last
        space = EdgeSpace(4)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        assert pairs.index((2, 3)) == 5
        assert space.index(2, 3) == 5

    def test_directed_round_trip(self):
        space = EdgeSpace(3, directed=True)
        e = space.index(2, 0)
        assert 0 <= e < 6
        assert space.pair(e) == (2, 0)

    def test_normalizes_undirected_order(self):
        space = EdgeSpace(5)
        assert space.index(3, 1) == space.index(1, 3)

    @pytest.mark.parametrize("directed", [False, True])
    def test_bijection_exhaustive_up_to_64(self, directed):
        for n in range(2, 65):
            space = EdgeSpace(n, directed=directed)
            N = space.num_edges
            tails, heads = space.all_pairs()
            # distinct, in range, and mutually inverse
            round_trip = space.index_arrays(tails, heads)
            assert np.array_equal(round_trip, np.arange(N))
            seen = set(zip(tails.tolist(), heads.tolist()))
            assert len(seen) == N
            if not directed:
                TestUndirectedDecode.assert_decodes(n, np.arange(N))

    @pytest.mark.parametrize("n", [2, 3, 7, 300])
    def test_to_matrix_equals_pair_scatter(self, n):
        space = EdgeSpace(n, directed=True)
        values = np.random.default_rng(n).uniform(0.0, 1.0, space.num_edges)
        tails, heads = space.all_pairs()
        for diagonal in (np.inf, np.nan):
            reference = np.full((n, n), diagonal)
            reference[tails, heads] = values
            laid_out = space.to_matrix(values, diagonal)
            assert laid_out.dtype == np.float64
            assert np.array_equal(laid_out.view(np.uint64), reference.view(np.uint64))

    def test_to_matrix_needs_directed_space(self):
        with pytest.raises(ValueError, match="directed"):
            EdgeSpace(4).to_matrix(np.ones(6), np.inf)

    def test_vectorized_decode_large_n(self):
        space = EdgeSpace(3000)
        e = np.arange(space.num_edges)
        tails, heads = space.pair_arrays(e)
        assert np.array_equal(space.index_arrays(tails, heads), e)
        assert (tails < heads).all()

    def test_errors(self):
        space = EdgeSpace(4)
        with pytest.raises(ValueError):
            space.index(2, 2)
        with pytest.raises(ValueError):
            space.index(0, 4)
        with pytest.raises(ValueError):
            space.pair(6)
        with pytest.raises(ValueError):
            EdgeSpace(1)


class TestUndirectedDecode:
    """pair_arrays counts each row's coordinates among the integer row starts.

    On non-decreasing coordinates it must equal the float-sqrt inverse and
    round-trip through index_arrays, with integer endpoints 0 <= tail < head < n.
    """

    @staticmethod
    def assert_decodes(n, e):
        space = EdgeSpace(n)
        e = np.asarray(e, dtype=np.int64)
        tails, heads = space.pair_arrays(e)
        ref_tails, ref_heads = pair_arrays_sqrt_reference(n, e)
        assert tails.dtype == heads.dtype == np.int64
        assert np.array_equal(tails, ref_tails) and np.array_equal(heads, ref_heads)
        assert np.array_equal(space.index_arrays(tails, heads), e)
        assert ((0 <= tails) & (tails < heads) & (heads < n)).all()

    @pytest.mark.parametrize("n", [2, 3, 4097, 10**5])
    def test_row_ends_and_sampled_coordinates(self, n):
        # row k holds the n-1-k pairs (k, k+1), ..., (k, n-1)
        lengths = np.arange(n - 1, 0, -1)
        first = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        last = first + lengths - 1
        N = n * (n - 1) // 2
        assert last[-1] == N - 1
        inside = np.random.default_rng(n).integers(0, N, 10_000)
        self.assert_decodes(n, np.sort(np.concatenate((first, last, inside))))
        space = EdgeSpace(n)
        tails, heads = space.pair_arrays(first)
        assert np.array_equal(tails, np.arange(n - 1)) and np.array_equal(heads, tails + 1)
        assert np.array_equal(space.pair_arrays(last)[1], np.full(n - 1, n - 1))
        assert space.pair(N - 1) == (n - 2, n - 1)
        for e in (-1, N, N + n):
            with pytest.raises(ValueError, match="out of range"):
                space.pair(e)

    @pytest.mark.parametrize("n", [2, 3, 64, 65, 300, 1000])
    def test_row_count_decode_of_increasing_coordinates(self, n):
        space = EdgeSpace(n)
        N = space.num_edges
        rng = np.random.default_rng(n)
        rows = [0, n // 2 - 1, n - 2]  # the first row, a middle one and the last, one pair long
        subsets = [np.arange(0), np.arange(N), np.repeat(np.arange(N), 2), np.sort(rng.integers(0, N, 3 * n))]
        subsets += [np.arange(space.index(k, k + 1), space.index(k, n - 1) + 1) for k in rows]
        subsets += [np.flatnonzero(rng.random(N) < q) for q in (0.001, 0.1, 0.5, 0.99)]
        for e in subsets:
            tails, heads = space.pair_arrays(e)
            ref_tails, ref_heads = pair_arrays_sqrt_reference(n, e)
            assert tails.dtype == heads.dtype == np.int64
            assert np.array_equal(tails, ref_tails) and np.array_equal(heads, ref_heads)
        assert all(np.array_equal(a, b) for a, b in zip(space.all_pairs(), pair_arrays_sqrt_reference(n, np.arange(N))))

    @pytest.mark.parametrize("e", [[1, 0], [0, 2, 1, 3], [3, 3, 2], [-1, 0], [0, 6], [[0, 1]], 0])
    def test_refuses_what_it_cannot_decode(self, e):
        # decreasing, out of range or not 1-D: an error, never a wrong pair
        with pytest.raises(ValueError, match="non-decreasing 1-D array in \\[0, 6\\)"):
            EdgeSpace(4).pair_arrays(e)

    @given(st.integers(2, 2 * 10**5).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n * (n - 1) // 2 - 1))))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        n, e = case
        self.assert_decodes(n, [e])
        assert EdgeSpace(n).pair(e) == tuple(int(v[0]) for v in pair_arrays_sqrt_reference(n, [e]))


class TestSimplexModel:
    def test_uniform_defaults(self):
        m = SimplexModel.uniform(4)
        assert m.space.num_edges == 6
        assert m.L == 6.0
        assert np.all(m.alpha == 1.0)
        assert m.M == 1.0 == max(m.alpha_max, 1.0 / m.alpha_min)

    def test_alpha_positive_required(self):
        space = EdgeSpace(3)
        with pytest.raises(ValueError):
            SimplexModel(space, np.array([1.0, -1.0, 1.0]), 3.0)

    # 1.5e308 * 53 ln 2 overflows; at 1e-320 a coordinate's mean L / (N+1) is subnormal
    @pytest.mark.parametrize("L", [math.inf, -math.inf, math.nan, 0.0, -1.0, 1.5e308, 1e-320])
    def test_budget_must_be_finite_and_positive(self, L):
        with pytest.raises(ValueError, match="budget"):
            SimplexModel.uniform(5, L=L)

    def test_budget_over_smallest_coefficient_must_be_finite(self):
        with pytest.raises(ValueError, match="budget"):
            SimplexModel(EdgeSpace(3), 1e-320, 3.0)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, 0.0, 1e308])
    def test_alpha_positive_with_finite_sums(self, alpha):
        # 1e308 is finite, but three of them sum past the largest double
        with pytest.raises(ValueError, match="alpha coefficients"):
            SimplexModel(EdgeSpace(3), alpha, 100.0)

    def test_m_bound_checked(self):
        space = EdgeSpace(3)
        with pytest.raises(ValueError):
            SimplexModel(space, np.array([1.0, 5.0, 1.0]), 3.0, M=2.0)
        with pytest.raises(ValueError, match="M must be >= 1"):
            SimplexModel(space, 1.0, 3.0, M=0.5)
        assert SimplexModel(space, np.array([0.5, 2.0, 1.0]), 3.0, M=2.0).M == 2.0
        # a declared M is kept even where the coefficients would give a smaller one
        assert SimplexModel(space, np.array([0.8, 1.2, 1.0]), 3.0, M=2.0).M == 2.0

    @pytest.mark.parametrize("alpha", [2.5, 0.25, "random"])
    def test_m_formed_from_coefficients(self, alpha):
        if alpha == "random":
            alpha = np.random.default_rng(4).uniform(0.1, 9.0, 10)
        model = SimplexModel(EdgeSpace(5), alpha)
        assert model.M == max(model.alpha_max, 1.0 / model.alpha_min)
        assert model.M >= 1.0

    def test_vertex_alpha_all_ones(self):
        m = SimplexModel.uniform(4)
        for v in range(4):
            assert m.vertex_alphas()[v] == pytest.approx(3.0) == vertex_alpha_brute(m, v)

    def test_vertex_alpha_decomposable_hand_value(self):
        # d = (1, 2, 3): alpha_0 = 1*2 + 1*3 = 5
        m = DecomposableWeights(np.array([1.0, 2.0, 3.0])).to_simplex_model()
        assert m.vertex_alphas().tolist() == pytest.approx([5.0, 2.0 + 6.0, 3.0 + 6.0])
        assert [vertex_alpha_brute(m, v) for v in range(3)] == pytest.approx([5.0, 2.0 + 6.0, 3.0 + 6.0])

    def test_vertex_alpha_double_counts_edges(self):
        rng = np.random.default_rng(5)
        space = EdgeSpace(7)
        m = SimplexModel(space, rng.uniform(0.5, 2.0, space.num_edges), 21.0)
        assert m.vertex_alphas().sum() == pytest.approx(2.0 * m.alpha.sum())

    @pytest.mark.parametrize("n", [7, 300, 1000])
    @pytest.mark.parametrize("a", [1.0, 0.1, 3.7, 1e-5])
    def test_constant_vertex_alphas_equal_add_at_sums(self, n, a):
        # the constant-alpha shortcut keeps the sums of the general path, bit for bit
        space = EdgeSpace(n)
        tails, heads = space.all_pairs()
        ref = np.zeros(n)
        np.add.at(ref, tails, np.full(space.num_edges, a))
        np.add.at(ref, heads, np.full(space.num_edges, a))
        got = SimplexModel(space, a).vertex_alphas()
        assert np.array_equal(got, ref)
        assert not got.flags.writeable

    def test_alpha_sum(self):
        m = SimplexModel.uniform(4)
        assert m.alpha_sum([0, 2, 5]) == pytest.approx(3.0)
        assert m.alpha_sum([]) == 0.0

    def test_constant_alpha_stored_once(self):
        m = SimplexModel(EdgeSpace(30), 2.5, 10.0)
        assert m.alpha.shape == (435,) and m.alpha.strides == (0,)
        assert not m.alpha.flags.writeable
        assert (m.alpha_min, m.alpha_max) == (2.5, 2.5) and not m.unit_alpha
        assert SimplexModel.uniform(30).unit_alpha
        # the model keeps its own copy of a 0-d input
        a = np.array(3.0)
        m = SimplexModel(EdgeSpace(4), a, 6.0)
        a[()] = 5.0
        assert m.alpha[0] == 3.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_constant_alpha_positive_required(self, bad):
        with pytest.raises(ValueError):
            SimplexModel(EdgeSpace(4), bad, 6.0)

    @pytest.mark.parametrize("value", [1.0, 2.0, 0.37])
    def test_constant_alpha_equals_the_equal_vector(self, value):
        # draws, oracle values and vertex sums are bit-equal whether the
        # constant is stored once or as a full vector
        from simplexgraphs import DensityModel, IsolationProfile, SeededRng, prob_all_absent, solve_p0
        from simplexgraphs.oracle import sigma_simplex
        from simplexgraphs.samplers import marginal_cdf, sample_simplex_batch

        space = EdgeSpace(40)
        scalar = SimplexModel(space, value, 700.0)
        vector = SimplexModel(space, np.full(space.num_edges, value), 700.0)
        assert scalar.alpha.strides == (0,) and vector.alpha.strides == (8,)
        assert scalar.unit_alpha == vector.unit_alpha == (value == 1.0)
        a = sample_simplex_batch(scalar, SeededRng(3, 1), 4)
        b = sample_simplex_batch(vector, SeededRng(3, 1), 4)
        assert np.array_equal(a, b)
        assert np.array_equal(scalar.vertex_alphas(), vector.vertex_alphas())
        assert solve_p0(scalar) == solve_p0(vector)
        for p in (0.01, 0.5, 3.0):
            assert prob_all_absent(scalar, [0, 7, 100], p) == prob_all_absent(vector, [0, 7, 100], p)
            assert IsolationProfile(scalar).total(p) == IsolationProfile(vector).total(p)
            assert marginal_cdf(DensityModel.from_simplex(scalar), 5, p) == marginal_cdf(
                DensityModel.from_simplex(vector), 5, p
            )
        assert sigma_simplex(scalar, 9) == sigma_simplex(vector, 9)
        assert scalar.alpha_sum([1, 2, 3]) == vector.alpha_sum([1, 2, 3])


class TestDecomposableWeights:
    def test_total_and_subset(self):
        w = DecomposableWeights(np.array([1.0, 2.0, 3.0, 4.0]))
        assert w.total == 10.0
        assert factor_sum_brute(w, [1, 3]) == 6.0

    def test_induced_model_is_valid(self):
        w = DecomposableWeights(np.array([0.5, 1.0, 2.0]))
        m = w.to_simplex_model()
        space = m.space
        for i in range(3):
            for j in range(i + 1, 3):
                assert m.alpha[space.index(i, j)] == pytest.approx(w.d[i] * w.d[j])

    def test_cut_identity_exhaustive(self):
        # sum over cross pairs of d_v d_w equals d_S (D - d_S), for every subset
        rng = np.random.default_rng(11)
        for n in range(2, 11):
            d = rng.uniform(0.5, 2.0, n)
            w = DecomposableWeights(d)
            D = w.total
            for mask in range(1, 2**n - 1):
                inside = [v for v in range(n) if mask >> v & 1]
                outside = [v for v in range(n) if not mask >> v & 1]
                cross = sum(d[a] * d[b] for a in inside for b in outside)
                ds = factor_sum_brute(w, inside)
                assert cross == pytest.approx(ds * (D - ds), rel=1e-10)


class TestWeightVector:
    def test_shape_checked(self):
        with pytest.raises(ValueError):
            WeightVector(EdgeSpace(4), np.zeros(5))

    def test_non_negative(self):
        with pytest.raises(ValueError):
            WeightVector(EdgeSpace(3), np.array([0.1, -0.2, 0.3]))
        with pytest.raises(ValueError):
            WeightVector(EdgeSpace(4), np.array([np.nan, 1, 2, 3, 4, 5]))


class TestThreshold:
    def test_direct_comparison(self):
        x = WeightVector(EdgeSpace(3), np.array([0.1, 0.5, 0.9]))
        g = threshold(x, 0.5)
        assert g.edge_count == 2
        assert set(g.edge_indices.tolist()) == {0, 1}

    def test_p_zero_all_positive_weights(self):
        x = WeightVector(EdgeSpace(4), np.full(6, 0.3))
        assert threshold(x, 0.0).edge_count == 0

    def test_negative_p_rejected(self):
        x = WeightVector(EdgeSpace(3), np.ones(3))
        with pytest.raises(ValueError):
            threshold(x, -0.1)

    def test_nan_p_rejected(self):
        x = WeightVector(EdgeSpace(3), np.ones(3))
        with pytest.raises(ValueError, match="threshold"):
            threshold(x, float("nan"))

    def test_monotone_coupling_example(self):
        rng = np.random.default_rng(3)
        x = WeightVector(EdgeSpace(6), rng.uniform(0, 1, 15))
        small = set(threshold(x, 0.2).edge_indices.tolist())
        large = set(threshold(x, 0.6).edge_indices.tolist())
        assert small <= large

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(st.floats(0, 10, allow_nan=False), min_size=10, max_size=10),
        thresholds=st.tuples(st.floats(0, 10), st.floats(0, 10)),
    )
    def test_monotone_coupling_property(self, weights, thresholds):
        x = WeightVector(EdgeSpace(5), np.asarray(weights))
        p_lo, p_hi = sorted(thresholds)
        assert set(threshold(x, p_lo).edge_indices.tolist()) <= set(
            threshold(x, p_hi).edge_indices.tolist()
        )

    def test_adjacency_consistent_with_edges(self):
        rng = np.random.default_rng(9)
        x = WeightVector(EdgeSpace(8), rng.uniform(0, 1, 28))
        g = threshold(x, 0.4)
        space = EdgeSpace(8)
        assert np.array_equal(g.edge_indices, np.flatnonzero(x.x <= 0.4))
        from_ends = set(zip(g.tails.tolist(), g.heads.tolist()))
        from_indices = {space.pair(e) for e in g.edge_indices.tolist()}
        assert from_ends == from_indices
        assert (g.tails < g.heads).all()
        # the sorted edge indices agree with the pairs, in both orientations
        for i in range(8):
            for j in range(8):
                if i != j:
                    assert has_edge_brute(g, i, j) == ((min(i, j), max(i, j)) in from_indices)

    def test_from_edges_round_trip(self):
        g = ThresholdGraph.from_edges(5, [(0, 1), (3, 4), (1, 2)])
        assert g.edge_count == 3
        assert has_edge_brute(g, 4, 3)
        assert not has_edge_brute(g, 0, 4)

    def test_from_edges_sorts_and_merges_repeats(self):
        g = ThresholdGraph.from_edges(5, [(3, 4), (1, 0), (0, 1), (2, 1)])
        space = EdgeSpace(5)
        assert g.edge_indices.tolist() == sorted({space.index(0, 1), space.index(1, 2), space.index(3, 4)})
        assert ThresholdGraph.from_edges(5, []).edge_count == 0

    @pytest.mark.parametrize("pairs", [[(2, 2)], [(0, 5)], [(-1, 2)]])
    def test_from_edges_rejects_bad_pairs(self, pairs):
        with pytest.raises(ValueError):
            ThresholdGraph.from_edges(5, pairs)

    @pytest.mark.parametrize("indices", [[3, 1], [2, 2], [-1, 0], [0, 10], [[0, 1]]])
    def test_rejects_indices_not_strictly_increasing_in_range(self, indices):
        with pytest.raises(ValueError):
            ThresholdGraph(5, np.asarray(indices))

    def test_directed_vectors_not_thresholdable(self):
        x = WeightVector(EdgeSpace(3, directed=True), np.ones(6))
        with pytest.raises(ValueError):
            threshold(x, 0.5)

    def test_edge_pair_alias(self):
        assert EdgeSpace(4).pair(5) == (2, 3)
