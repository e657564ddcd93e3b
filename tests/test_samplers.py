import math
import os
import sys
import threading
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chi2_contingency

from brutes import (
    marginal_cdf_reference,
    orthant_ball_reference,
    product_exponential_reference,
    simplex_batch_reference,
)
from simplexgraphs import (
    DecomposableWeights,
    DensityModel,
    EdgeSpace,
    SeededRng,
    SimplexModel,
    marginal_cdf,
    sample_simplex,
    sample_simplex_batch,
    threshold,
)
from simplexgraphs.atsp import row_symmetric_model
from simplexgraphs.oracle import check_basic_bounds, sigma_simplex
from simplexgraphs.model import MAX_UNIT_EXPONENTIAL, ThresholdGraph
from simplexgraphs import samplers
from simplexgraphs.samplers import _LEAF, _tree_leaves, _tree_sum

KS_LIMIT = 0.0062  # 1e5-sample critical value used throughout


def ks_distance(samples: np.ndarray, cdf) -> float:
    vals = np.sort(samples)
    probs = cdf(vals)
    k = np.arange(1, vals.size + 1)
    return max(np.max(k / vals.size - probs), np.max(probs - (k - 1) / vals.size))


def _ball_marginal_pdf(N: int, R: float):
    norm = quad(lambda t: (1 - (t / R) ** 2) ** ((N - 1) / 2), 0, R)[0]
    return lambda t: (1 - (t / R) ** 2) ** ((N - 1) / 2) / norm


class _FakeRng(SeededRng):
    """A SeededRng whose exponentials are ``values(positions)``: its per-leaf fill is replaced, for every draw."""

    def __init__(self, threads=1):
        super().__init__(0, threads=threads)

    def _fill(self, gen, leaf, start):
        leaf[:] = self.values(np.arange(start, start + leaf.size))


class OverBudgetRng(_FakeRng):
    # a negative "exponential" shrinks the normalizing sum, so the draw lands
    # outside the polytope; the check must survive python -O.  Rows of
    # ``width`` values: each row's last one is -1.5
    def __init__(self, width, threads=1):
        super().__init__(threads)
        self.width = width

    def values(self, pos):
        return np.where(pos % self.width == self.width - 1, -1.5, 1.0)


class TinyNegativeSlackRng(OverBudgetRng):
    # unit exponentials but each row's slack, -1e-14 times the others' sum: the
    # formed budget exceeds L by about 1e-14 relative, inside a 1e-12 tolerance
    def values(self, pos):
        return np.where(pos % self.width == self.width - 1, -1e-14 * (self.width - 1), 1.0)


class ThirdRowOverBudgetRng(OverBudgetRng):
    """Rows of unit exponentials served in order, one per draw or several per batch; the third row's slack is -1.5."""

    def __init__(self, width, threads=1):
        super().__init__(width, threads)
        self.rows = 0
        self.lock = threading.Lock()  # a draw's leaves may be filled on two threads

    def values(self, pos):
        e = np.ones(pos.size)
        ends = np.flatnonzero(pos % self.width == self.width - 1)
        with self.lock:
            if 0 <= 2 - self.rows < ends.size:
                e[ends[2 - self.rows]] = -1.5
            self.rows += ends.size
        return e


class LargestUniformRng(_FakeRng):
    # every uniform is 1 - 2^-53, the largest the generator returns, so every
    # exponential is the largest a draw can see and L * E_e is the largest product
    def values(self, pos):
        return -np.log1p(-np.full(pos.size, 1.0 - 2.0**-53))


class FirstValueRng(_FakeRng):
    """Unit exponentials but the draw's first value, which is ``value``."""

    def __init__(self, value, threads=1):
        super().__init__(threads)
        self.value = value

    def values(self, pos):
        return np.where(pos == 0, self.value, 1.0)


def _largest_budget() -> float:
    """The largest L with L * MAX_UNIT_EXPONENTIAL finite."""
    L = sys.float_info.max / MAX_UNIT_EXPONENTIAL
    while not math.isfinite(L * MAX_UNIT_EXPONENTIAL):
        L = math.nextafter(L, 0.0)
    while math.isfinite(math.nextafter(L, math.inf) * MAX_UNIT_EXPONENTIAL):
        L = math.nextafter(L, math.inf)
    return L


_LARGEST_L = _largest_budget()


class TestSimplexSampler:
    def test_budget_constraint_always_holds(self):
        model = SimplexModel.uniform(8, L=10.0)
        xs = sample_simplex_batch(model, SeededRng(1, 0), 2000)
        assert (xs >= 0).all()
        assert (xs @ model.alpha <= model.L * (1 + 1e-12)).all()

    def test_over_budget_draw_raises(self):
        with pytest.raises(FloatingPointError, match="budget polytope"):
            sample_simplex_batch(SimplexModel.uniform(3), OverBudgetRng(4), 2)

    def test_largest_budget_draws_finite_coordinates(self):
        assert LargestUniformRng().exponential(1)[0] == MAX_UNIT_EXPONENTIAL
        with pytest.raises(ValueError, match="budget"):
            SimplexModel.uniform(3, L=math.nextafter(_LARGEST_L, math.inf))
        x = sample_simplex_batch(SimplexModel.uniform(3, L=_LARGEST_L), LargestUniformRng(), 2)
        assert np.isfinite(x).all() and (x > 0).all()

    def test_single_draw_is_weight_vector(self):
        model = SimplexModel.uniform(5)
        x = sample_simplex(model, SeededRng(2, 0))
        assert x.budget_used(model) <= model.L

    def test_marginal_frequency_matches_closed_form(self):
        # n=20, L=N: P(X_e <= 0.5) = 1 - (1 - 0.5/190)^190
        model = SimplexModel.uniform(20)
        xs = sample_simplex_batch(model, SeededRng(3, 0), 100_000)
        p = 0.5
        expected = 1.0 - (1.0 - p / model.L) ** model.space.num_edges
        freq = (xs[:, 7] <= p).mean()
        se = math.sqrt(expected * (1 - expected) / xs.shape[0])
        assert abs(freq - expected) < 3 * se

    def test_second_moment_matches_formula(self):
        # n=4, L=6: E(X_e^2) = 2 L^2 / ((N+1)(N+2)) = 72/56
        model = SimplexModel.uniform(4, L=6.0)
        xs = sample_simplex_batch(model, SeededRng(4, 0), 100_000)
        sq = xs[:, 0] ** 2
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - 72.0 / 56.0) < 3 * se

    def test_general_alpha_lands_in_weighted_simplex(self):
        rng = np.random.default_rng(7)
        space = EdgeSpace(6)
        model = SimplexModel(space, rng.uniform(0.5, 2.0, space.num_edges), 9.0)
        xs = sample_simplex_batch(model, SeededRng(5, 0), 500)
        assert (xs @ model.alpha <= model.L * (1 + 1e-12)).all()

    def test_ks_against_exact_marginal(self):
        model = SimplexModel.uniform(20)
        density = DensityModel.from_simplex(model)
        xs = sample_simplex_batch(model, SeededRng(6, 0), 100_000)
        N = model.space.num_edges
        d = ks_distance(xs[:, 0], lambda v: 1.0 - (1.0 - np.minimum(v / model.L, 1.0)) ** N)
        assert d < KS_LIMIT
        # spot agreement with the library CDF
        assert marginal_cdf(density, 0, 0.5) == pytest.approx(1.0 - (1.0 - 0.5 / 190) ** 190)

    @pytest.mark.parametrize("p", [-0.1, math.nan])
    def test_marginal_cdf_rejects_bad_threshold(self, p):
        density = DensityModel.from_simplex(SimplexModel.uniform(5))
        with pytest.raises(ValueError, match="threshold"):
            marginal_cdf(density, 0, p)

    def test_exchangeability_under_relabeling(self):
        # all-ones coefficients: a fixed edge relabeling must not change the
        # distribution of how many of k tracked coordinates fall below p
        model = SimplexModel.uniform(8)
        N = model.space.num_edges
        perm_rng = np.random.default_rng(12)
        S = perm_rng.choice(N, size=6, replace=False)
        perm = perm_rng.permutation(N)
        xs1 = sample_simplex_batch(model, SeededRng(13, 0), 30_000)
        xs2 = sample_simplex_batch(model, SeededRng(13, 1), 30_000)
        p = 0.6
        counts1 = (xs1[:, S] <= p).sum(axis=1)
        counts2 = (xs2[:, perm[S]] <= p).sum(axis=1)
        table = np.vstack(
            [np.bincount(counts1, minlength=7), np.bincount(counts2, minlength=7)]
        )
        table = table[:, table.sum(axis=0) > 0]
        _, pvalue, _, _ = chi2_contingency(table)
        assert pvalue > 1e-3

    def test_bit_identical_reproducibility(self):
        model = SimplexModel.uniform(10)
        a = sample_simplex_batch(model, SeededRng(99, 5), 50)
        b = sample_simplex_batch(model, SeededRng(99, 5), 50)
        assert np.array_equal(a, b)
        c = sample_simplex_batch(model, SeededRng(99, 6), 50)
        assert not np.array_equal(a, c)


def _ones_but_one(n, value):
    space = EdgeSpace(n)
    alpha = np.ones(space.num_edges)
    alpha[-1] = value
    return SimplexModel(space, alpha, float(space.num_edges))


class TestInPlaceDrawsMatchReference:
    """The in-place samplers equal the allocating formulas in tests/brutes.py bit for bit."""

    @pytest.mark.parametrize(
        "model, count",
        [
            (SimplexModel.uniform(40), 1),
            (SimplexModel.uniform(300), 1),
            (DecomposableWeights(np.random.default_rng(41).uniform(0.5, 2.0, 30)).to_simplex_model(), 1),
            (_ones_but_one(25, 2.0), 1),
            (_ones_but_one(25, 0.5), 1),
            (SimplexModel.uniform(20, L=7.5), 1),
            (SimplexModel(EdgeSpace(15), np.random.default_rng(42).uniform(0.2, 3.0, 105), 33.0), 5),
            (SimplexModel.uniform(12), 40),
            (row_symmetric_model(np.random.default_rng(43).uniform(0.5, 2.0, 20), 20), 2),
            # N+1 = 319,601: four leaves, two runs on two threads
            (SimplexModel(EdgeSpace(800), np.random.default_rng(44).uniform(0.5, 2.0, 319_600), 1e5), 1),
            (SimplexModel.uniform(800), 1),
        ],
        ids=["unit-40", "unit-300", "decomposable", "ones-but-2", "ones-but-half", "L-not-N", "general-count-5",
             "unit-count-40", "row-symmetric", "iid-L-split", "unit-split"],
    )
    def test_simplex_batch(self, model, count):
        got = sample_simplex_batch(model, SeededRng(17, 3, threads=2), count)
        assert np.array_equal(got, simplex_batch_reference(model, SeededRng(17, 3), count))

    @pytest.mark.parametrize("size", [(), 7, (3, 11)])  # () is a 0-d draw of one value
    def test_exponential_is_inverse_cdf(self, size):
        got = SeededRng(5, 9).exponential(size)
        assert np.array_equal(got, -np.log1p(-SeededRng(5, 9).uniform(size)))
        assert np.shape(got) == np.shape(SeededRng(5, 9).uniform(size))

    @pytest.mark.parametrize("rates", [1.0, 2.5, np.linspace(0.5, 3.0, 190)])
    def test_product_exponential(self, rates):
        space = EdgeSpace(20)
        got = DensityModel.product_exponential(rates, space).sample(SeededRng(6, 1)).x
        assert np.array_equal(got, product_exponential_reference(rates, space, SeededRng(6, 1)))

    @pytest.mark.parametrize("radius", [1.0, 2.5])
    def test_orthant_ball(self, radius):
        space = EdgeSpace(20)
        got = DensityModel.orthant_ball(radius, space).sample(SeededRng(7, 1)).x
        assert np.array_equal(got, orthant_ball_reference(radius, space, SeededRng(7, 1)))


_TWO_LEAVES = 1 << 17  # two leaves of 2^16 values
_FOUR_LEAVES = 2 * _TWO_LEAVES


# What the stream draws before the split.  "mid-block" (3 doubles) is an odd
# offset; it left the former Philox generator part way through its 4-value
# block.  A 32-bit draw takes half of a 64-bit output and keeps the other
# half for the next 32-bit draw, so "1-uint32" and "3-uint32" end with half
# an output buffered, which the split must hand on.
_PRIOR_DRAWS = {
    "fresh": lambda rng: None,
    "mid-block": lambda rng: rng.uniform(3),
    "1-uint32": lambda rng: rng._gen.integers(2**32, size=1, dtype=np.uint32),
    "3-uint32": lambda rng: rng._gen.integers(2**32, size=3, dtype=np.uint32),
}


class TestSplitDraw:
    """A draw split across threads equals the one-thread draw, and leaves the same stream behind."""

    @pytest.mark.parametrize("prior", list(_PRIOR_DRAWS))
    @pytest.mark.parametrize(
        "size",
        [
            _FOUR_LEAVES - 4,
            _FOUR_LEAVES - 1,
            _FOUR_LEAVES,
            _FOUR_LEAVES + 1,
            _FOUR_LEAVES + 6,
            3 * _TWO_LEAVES + 3,
            (3, _TWO_LEAVES + 5),
            4 * _TWO_LEAVES + 5,  # eight leaves: four runs on four threads
        ],
    )
    def test_threads_give_the_same_bits(self, size, prior):
        draws = []
        for threads in (1, 2, 3, 4):
            rng = SeededRng(8, 21, threads=threads)
            _PRIOR_DRAWS[prior](rng)
            before = threading.active_count()
            e = rng.exponential(size)
            assert threading.active_count() == before
            after = rng._gen.integers(2**32, size=3, dtype=np.uint32)  # the first reads any buffered half
            draws.append((e, after, rng.uniform(7), rng.standard_normal(3)))
        (e1, i1, u1, z1) = draws[0]
        assert e1.shape == np.empty(size).shape
        for e, i, u, z in draws[1:]:
            assert np.array_equal(e.view(np.uint64), e1.view(np.uint64))
            assert np.array_equal(i, i1)
            assert np.array_equal(u.view(np.uint64), u1.view(np.uint64))
            assert np.array_equal(z.view(np.uint64), z1.view(np.uint64))

    @pytest.mark.parametrize(
        "size, prior, threads, split",
        [
            (_FOUR_LEAVES, 0, 2, True),
            (_LEAF, 0, 2, False),  # one leaf
            (_LEAF + 1, 0, 2, True),  # two leaves
            (3 * _TWO_LEAVES, 0, 3, True),
            (_FOUR_LEAVES, 3, 2, True),  # any offset splits
            (_FOUR_LEAVES, 4, 2, True),
            (_FOUR_LEAVES, 0, 1, False),
            # threads left out: the CPU count
            pytest.param(
                _FOUR_LEAVES, 0, None, True, marks=pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU")
            ),
        ],
    )
    def test_when_a_draw_splits(self, size, prior, threads, split):
        rng = SeededRng(8, 21) if threads is None else SeededRng(8, 21, threads=threads)
        if prior:
            rng.uniform(prior)
        assert (len(rng._slice_generators(_tree_leaves(0, size))) > 1) == split

    @pytest.mark.parametrize(
        "count", [_FOUR_LEAVES, _FOUR_LEAVES + 13, 3 * _TWO_LEAVES + 3, 4 * _TWO_LEAVES + 5, 4 * _TWO_LEAVES + 29]
    )
    def test_threads_give_the_same_sum(self, count):
        # the leaves' sums, taken on their runs' threads and added along numpy's pairwise tree, are the whole sum
        whole = SeededRng(8, 22, threads=1).exponential(count).reshape(1, -1).sum(axis=1)[0]
        for threads in (1, 2, 3, 4):
            sums = SeededRng(8, 22, threads=threads).exponential_leaves(count, lambda leaf, start: leaf.sum())
            assert np.float64(_tree_sum(sums, count)).view(np.uint64) == whole.view(np.uint64)

    # Draw sizes at and either side of the first with 2, 3, 4, 5 and 6 leaves, and two larger ones
    RUN_COUNTS = [
        1, _LEAF, _LEAF + 1, _LEAF + 2, 2 * _LEAF, 2 * _LEAF + 1, 2 * _LEAF + 2, 2 * _LEAF + 15, 2 * _LEAF + 16,
        2 * _LEAF + 17, 4 * _LEAF, 4 * _LEAF + 1, 4 * _LEAF + 2, 4 * _LEAF + 15, 4 * _LEAF + 16, 4 * _LEAF + 17,
        _FOUR_LEAVES, 2 * _FOUR_LEAVES,
    ]

    def test_run_counts_cover_one_to_five_leaves(self):
        leaves = [len(_tree_leaves(0, c)) for c in self.RUN_COUNTS]
        assert leaves == [1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 4, 8]

    @pytest.mark.parametrize(
        "count, threads, slices",
        [(c, t, min(t, len(_tree_leaves(0, c)))) for c in RUN_COUNTS for t in (1, 2, 3, 4)],
    )
    def test_slices_sit_on_the_sum_tree(self, count, threads, slices):
        # min(threads, leaves) slices, each a run of whole leaves, drawn by a generator at its first value
        rng = SeededRng(8, 21, threads=threads)
        rng.uniform(3)
        pieces = rng._slice_generators(_tree_leaves(0, count))
        assert len(pieces) == slices
        assert all(run for run, _ in pieces)
        assert [leaf for run, _ in pieces for leaf in run] == _tree_leaves(0, count)
        stream = SeededRng(8, 21).uniform(3 + count)[3:]
        for run, gen in pieces:
            assert gen.random() == stream[run[0][0]]


# Draw sizes either side of one and two leaves, of 2^18 values (four leaves) and of eight leaves
_STREAM_COUNTS = [
    _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF - 1, 2 * _LEAF, 2 * _LEAF + 1,
    _FOUR_LEAVES - 1, _FOUR_LEAVES, _FOUR_LEAVES + 1, 4 * _TWO_LEAVES - 3, 4 * _TWO_LEAVES + 5,
]


class TestStreamedDraw:
    """``exponential_leaves`` draws what ``exponential`` draws, leaf by leaf, and leaves the same stream behind."""

    @pytest.mark.parametrize("prior", ["fresh", "3-uint32"])
    @pytest.mark.parametrize("count", _STREAM_COUNTS)
    def test_leaves_are_the_dense_draw(self, count, prior):
        dense = SeededRng(9, 4, threads=1)
        _PRIOR_DRAWS[prior](dense)
        e = dense.exponential(count)
        after = dense._gen.integers(2**32, size=3, dtype=np.uint32), dense.uniform(5)
        for threads in (1, 2, 3, 4):
            rng = SeededRng(9, 4, threads=threads)
            _PRIOR_DRAWS[prior](rng)
            before = threading.active_count()
            leaves = rng.exponential_leaves(count, lambda leaf, start: (start, leaf.copy(), leaf.sum()))
            assert threading.active_count() == before
            starts, parts, sums = zip(*leaves)
            assert list(zip(starts, [*starts[1:], count])) == _tree_leaves(0, count)
            assert max(part.size for part in parts) <= _LEAF
            assert np.array_equal(np.concatenate(parts).view(np.uint64), e.view(np.uint64))
            assert np.float64(_tree_sum(list(sums), count)).view(np.uint64) == e.sum().view(np.uint64)
            assert np.array_equal(rng._gen.integers(2**32, size=3, dtype=np.uint32), after[0])
            assert np.array_equal(rng.uniform(5).view(np.uint64), after[1].view(np.uint64))

    def test_a_leaf_is_overwritten_by_the_next(self):
        # one buffer row per slice: ``work`` must copy what it keeps
        rows = SeededRng(9, 4, threads=1).exponential_leaves(3 * _LEAF, lambda leaf, start: leaf)
        assert len(rows) > 1 and all(np.shares_memory(rows[0], row) for row in rows)


class TestTreeSum:
    """The streamed draw relies on numpy's pairwise sum.

    numpy sums c > 128 doubles as the sum of the first c//2 - (c//2) % 8 plus the sum of the rest.
    """

    # odd sizes, sizes with (c // 2) % 8 != 0, the threaded draws' sizes and sizes just past one and two leaves
    SIZES = [
        *range(520, 560), 777, 1001, 4099, 65_537, 98_305, 196_609, 262_145, 262_151, 319_601, 524_295, 1_999_001,
        4_498_501,
    ]

    def test_sizes_cover_every_cut_remainder(self):
        assert {(c // 2) % 8 for c in self.SIZES} == set(range(8))
        assert {c % 2 for c in self.SIZES} == {0, 1}

    @pytest.mark.parametrize("leaf", [128, 200, 1000, 4096, _LEAF])
    def test_leaf_sums_fold_to_the_whole_sum(self, leaf):
        gen = np.random.default_rng(6)
        for c in self.SIZES:
            e = gen.exponential(size=c)
            leaves = _tree_leaves(0, c, leaf)
            assert leaves[0][0] == 0 and leaves[-1][1] == c
            assert all(b == a for (_, b), (a, _) in zip(leaves, leaves[1:]))
            sizes = [b - a for a, b in leaves]
            assert max(sizes) <= leaf
            assert c <= leaf or min(sizes) > leaf // 2 - 8  # a leaf holds more than half a leaf's values
            parts = [e[a:b].sum() for a, b in leaves]
            whole = e.reshape(1, -1).sum(axis=1)[0]
            assert np.float64(_tree_sum(parts, c, leaf)).view(np.uint64) == whole.view(np.uint64), (c, leaf)


def _same_graph_and_stream(model: DensityModel, seed: int, p: float, threads: int = 1) -> ThresholdGraph:
    """The graph of ``model.threshold_draw``, checked to equal the dense one and to leave the same stream."""
    fused, dense = SeededRng(seed, 3, threads=threads), SeededRng(seed, 3, threads=threads)
    g = model.threshold_draw(fused, p)
    ref = threshold(model.sample(dense), p)
    assert g.n == ref.n
    assert np.array_equal(g.edge_indices, ref.edge_indices), (seed, p, threads)
    assert np.array_equal(fused.uniform(4), dense.uniform(4))
    return g


def _boundary_thresholds(x: np.ndarray, rank: float) -> list[float]:
    """A coordinate of ``x`` and the doubles just below and above it."""
    p = float(np.sort(x)[int(rank * (x.size - 1))])
    return [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]


class TestThresholdDraw:
    """``DensityModel.threshold_draw`` keeps exactly the coordinates the dense sample keeps."""

    def test_split_draw_non_unit_alpha_budget_not_n(self):
        # N+1 = 604,451 values, eight leaves: two, three and four runs on 2, 3 and 4 threads
        space = EdgeSpace(1100)
        model = DensityModel.from_simplex(
            SimplexModel(space, np.random.default_rng(7).uniform(0.5, 2.0, space.num_edges), 1e5)
        )
        x = model.sample(SeededRng(4, 3)).x
        for p in _boundary_thresholds(x, 0.003):
            for threads in (1, 2, 3, 4):
                _same_graph_and_stream(model, 4, p, threads)
        # the level overflows to inf: every coordinate is a candidate
        assert _same_graph_and_stream(model, 4, math.inf, 2).edge_count == space.num_edges

    @pytest.mark.parametrize("rates", [2.0, np.random.default_rng(8).uniform(0.5, 3.0, 319_600)])
    def test_split_draw_exponential(self, rates):
        model = DensityModel.product_exponential(rates, EdgeSpace(800))
        x = model.sample(SeededRng(5, 3)).x
        for p in _boundary_thresholds(x, 0.005):
            for threads in (1, 2):
                _same_graph_and_stream(model, 5, p, threads)
        assert _same_graph_and_stream(model, 5, math.inf, 2).edge_count == x.size

    # N + 1 (simplex) or N (exponential) just below and above one leaf, two leaves and 2^18 values (four leaves)
    EDGE_SIZES = [443, 444, 627, 628, 724, 725]

    def test_edge_sizes_straddle_the_cuts(self):
        counts = sorted(n * (n - 1) // 2 + extra for n in self.EDGE_SIZES for extra in (0, 1))
        for cut in (_LEAF, 2 * _LEAF, _FOUR_LEAVES):
            assert any(cut - 600 < c <= cut for c in counts) and any(cut < c < cut + 700 for c in counts)

    @pytest.mark.parametrize("n", EDGE_SIZES)
    def test_streamed_draw_at_the_cuts(self, n):
        space = EdgeSpace(n)
        coefficients = np.random.default_rng(n).uniform(0.5, 2.0, space.num_edges)
        for model in (
            DensityModel.from_simplex(SimplexModel(space, coefficients, 3.5 * space.num_edges)),
            DensityModel.product_exponential(coefficients, space),
        ):
            x = model.sample(SeededRng(n, 3)).x
            for p in _boundary_thresholds(x, 0.01):
                for threads in (1, 2, 3, 4):
                    _same_graph_and_stream(model, n, p, threads)

    def test_ball_is_the_dense_graph(self):
        _same_graph_and_stream(DensityModel.orthant_ball(1.5, EdgeSpace(40)), 6, 0.01)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 30),
        family=st.sampled_from(["ones", "const:0.5", "iid", "exponential", "exponential-iid"]),
        L=st.sampled_from([None, 7.5, 1e-290, 1e300]),
        seed=st.integers(0, 2**32 - 1),
        pick=st.sampled_from(["zero", "coordinate", "subnormal", "tiny"]),
        rank=st.floats(0.0, 1.0),
    )
    def test_property_equals_dense(self, n, family, L, seed, pick, rank):
        space = EdgeSpace(n)
        N = space.num_edges
        coefficients = np.random.default_rng(seed).uniform(0.5, 2.0, N)
        if family.startswith("exponential"):
            model = DensityModel.product_exponential(coefficients if family.endswith("iid") else 2.0, space)
            scale = 1.0
        else:
            alpha = {"ones": 1.0, "const:0.5": 0.5, "iid": coefficients}[family]
            model = DensityModel.from_simplex(SimplexModel(space, alpha, L))
            scale = model.simplex.L / (N + 1)  # L / S, about
        x = model.sample(SeededRng(seed, 3)).x
        if pick == "zero":
            ps = [0.0]
        elif pick == "coordinate":
            ps = _boundary_thresholds(x, rank)
        elif pick == "subnormal":  # p * S / L below the smallest normal double
            ps = [scale * 2.0**-1040, sys.float_info.min * rank]
        else:
            ps = [5e-324, math.nextafter(float(x.min()), 0.0)]
        for p in ps:
            _same_graph_and_stream(model, seed, p)

    @pytest.mark.parametrize("alpha, L, first", [(1e307, 100.0, 1e-7), (1e300, 1e-5, 3e-9), (1.0, 1e-300, 1e-12)])
    def test_subnormal_weights_compare_every_coordinate(self, alpha, L, first):
        # x_0 is subnormal, so p * S / L * alpha_max rounds with an absolute error
        # far above the margin, and a level that skipped its check would miss x_0
        model = SimplexModel(EdgeSpace(3), alpha, L)
        x0 = float(sample_simplex(model, FirstValueRng(first)).x[0])
        assert 0 < x0 < sys.float_info.min
        for p in (x0, math.nextafter(x0, 0.0), math.nextafter(x0, math.inf)):
            g = DensityModel.from_simplex(model).threshold_draw(FirstValueRng(first), p)
            ref = threshold(sample_simplex(model, FirstValueRng(first)), p)
            assert np.array_equal(g.edge_indices, ref.edge_indices)
            assert g.edge_count == (1 if p >= x0 else 0)

    @pytest.mark.parametrize("p", [-1.0, math.nan])
    def test_refuses_a_bad_threshold(self, p):
        for model in (
            DensityModel.from_simplex(SimplexModel.uniform(5)),
            DensityModel.product_exponential(1.0, EdgeSpace(5)),
            DensityModel.orthant_ball(1.0, EdgeSpace(5)),
        ):
            with pytest.raises(ValueError, match="non-negative"):
                model.threshold_draw(SeededRng(1, 0), p)

    def test_refuses_a_directed_space(self):
        model = DensityModel.from_simplex(row_symmetric_model(np.ones(5), 5))
        with pytest.raises(ValueError, match="undirected"):
            model.threshold_draw(SeededRng(1, 0), 0.5)


class TestThresholdDrawFallback:
    """Where the streamed draw cannot vouch for its candidates, the trial is the dense one, from the same stream."""

    MODELS = {
        "one-leaf": lambda: DensityModel.from_simplex(SimplexModel.uniform(30)),
        "leaves": lambda: DensityModel.from_simplex(SimplexModel.uniform(520, L=900.0)),
        "split": lambda: DensityModel.from_simplex(
            SimplexModel(EdgeSpace(800), np.random.default_rng(44).uniform(0.5, 2.0, 319_600), 1e5)
        ),
    }

    @staticmethod
    def _dense_calls(monkeypatch) -> list:
        calls = []
        sample = DensityModel.sample

        def counted(self, rng):
            calls.append(rng)
            return sample(self, rng)

        monkeypatch.setattr(DensityModel, "sample", counted)
        return calls

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", list(MODELS))
    def test_sum_above_its_bound_draws_dense(self, monkeypatch, name, threads):
        model = self.MODELS[name]()
        x = model.sample(SeededRng(12, 3)).x
        # S_hi at half the sum's mean: every draw's S exceeds it
        monkeypatch.setattr(samplers, "_sum_bound", lambda k: 0.5 * k)
        calls = self._dense_calls(monkeypatch)
        for p in _boundary_thresholds(x, 0.02):
            calls.clear()
            _same_graph_and_stream(model, 12, p, threads)
            assert len(calls) == 2  # the fallback's and the reference's

    @pytest.mark.parametrize("threads", [1, 2])
    def test_unchecked_level_draws_dense(self, monkeypatch, threads):
        # a level that fails its check after the draw: the generator goes back and the dense draw runs
        model = self.MODELS["split"]()
        x = model.sample(SeededRng(13, 3)).x
        level = samplers._candidate_level
        checked = []

        def second_fails(*args):
            checked.append(args)
            return level(*args) if len(checked) == 1 else math.inf

        monkeypatch.setattr(samplers, "_candidate_level", second_fails)
        calls = self._dense_calls(monkeypatch)
        p = _boundary_thresholds(x, 0.02)[0]
        _same_graph_and_stream(model, 13, p, threads)
        assert len(checked) == 2 and len(calls) == 2

    def test_normal_draw_stays_streamed(self, monkeypatch):
        calls = self._dense_calls(monkeypatch)
        model = self.MODELS["split"]()
        model.threshold_draw(SeededRng(14, 3, threads=2), 0.01)
        assert calls == []


class TestThresholdDrawMemory:
    """A thresholded trial never holds its N+1 exponentials."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", ["simplex", "exponential"])
    def test_peak_is_below_an_eighth_of_the_draw(self, kind, threads):
        n = 2000
        space = EdgeSpace(n)
        N = space.num_edges
        if kind == "simplex":
            model = DensityModel.from_simplex(SimplexModel.uniform(n))
        else:
            model = DensityModel.product_exponential(1.0, space)
        p = 2 * math.log(n) / n  # about 15k of the 2M coordinates kept
        tracemalloc.start()
        try:
            g = model.threshold_draw(SeededRng(3, 0, threads=threads), p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 10_000 < g.edge_count < 20_000
        # the dense draw alone holds 8 (N + 1) bytes
        assert peak < (N + 1) * 8 / 8, peak


class TestThresholdDrawRefusals:
    """The fused draw refuses what the dense sample refuses, with the same error, without forming x."""

    @staticmethod
    def _both(model: SimplexModel, rng_factory, p: float):
        return (
            lambda: DensityModel.from_simplex(model).threshold_draw(rng_factory(), p),
            lambda: threshold(sample_simplex(model, rng_factory()), p),
        )

    def test_negative_slack_leaves_the_polytope(self):
        for draw in self._both(SimplexModel.uniform(3), partial(OverBudgetRng, 4), 0.5):
            with pytest.raises(FloatingPointError, match="budget polytope"):
                draw()

    def test_negative_slack_inside_a_tolerance_is_refused(self):
        # the check is exact: a budget formed from this draw is within L (1 + 1e-12)
        e = TinyNegativeSlackRng(4).exponential((1, 4))
        assert 3.0 < 3.0 * e[0, :3].sum() / e.sum() <= 3.0 * (1 + 1e-12)
        for draw in self._both(SimplexModel.uniform(3), partial(TinyNegativeSlackRng, 4), 0.5):
            with pytest.raises(FloatingPointError, match="budget polytope"):
                draw()

    def test_each_row_is_checked(self):
        model = SimplexModel.uniform(3)
        assert (sample_simplex_batch(model, ThirdRowOverBudgetRng(4), 2) == 0.75).all()
        with pytest.raises(FloatingPointError, match=r"budget polytope: S=1\.5, slack=-1\.5$"):
            sample_simplex_batch(model, ThirdRowOverBudgetRng(4), 3)
        dense, fused = ThirdRowOverBudgetRng(4), ThirdRowOverBudgetRng(4)
        one_row_draws = (
            lambda: sample_simplex(model, dense),
            lambda: DensityModel.from_simplex(model).threshold_draw(fused, 1.0),
        )
        for draw in one_row_draws:
            draw()
            draw()
            with pytest.raises(FloatingPointError, match=r"budget polytope: S=1\.5, slack=-1\.5$"):
                draw()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_exponential_is_refused(self, value):
        for draw in self._both(SimplexModel.uniform(3), lambda: FirstValueRng(value), 0.5):
            # both paths refuse the sum before forming a weight, so no inf / inf is taken
            with pytest.raises(FloatingPointError, match="budget polytope"), np.errstate(all="raise"):
                draw()

    def test_negative_coordinate_is_refused(self):
        for draw in self._both(SimplexModel.uniform(3), lambda: FirstValueRng(-0.5), 0.5):
            with pytest.raises(ValueError, match="non-negative"):
                draw()

    @pytest.mark.parametrize("p", [0.0, 1.0, _LARGEST_L / 4, _LARGEST_L])
    def test_largest_budget_is_finite_and_dense(self, p):
        fused, dense = self._both(SimplexModel.uniform(3, L=_LARGEST_L), LargestUniformRng, p)
        g, ref = fused(), dense()
        assert np.array_equal(g.edge_indices, ref.edge_indices)
        x = sample_simplex(SimplexModel.uniform(3, L=_LARGEST_L), LargestUniformRng()).x
        assert np.isfinite(x).all()
        assert g.edge_count == (3 if p >= x[0] else 0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_every_fake_reaches_a_draw_of_leaves(self, threads):
        # N+1 = 179,701 values at n=600: two leaves, one run per thread at threads=2
        model = SimplexModel.uniform(600)
        width = model.space.num_edges + 1
        assert len(_tree_leaves(0, width)) == 2
        refusals = [
            (partial(OverBudgetRng, width, threads), FloatingPointError, "budget polytope"),
            (partial(TinyNegativeSlackRng, width, threads), FloatingPointError, "budget polytope"),
            (partial(FirstValueRng, math.nan, threads), FloatingPointError, "budget polytope"),
            (partial(FirstValueRng, -0.5, threads), ValueError, "non-negative"),
        ]
        for factory, error, message in refusals:
            for draw in self._both(model, factory, 0.5):
                with pytest.raises(error, match=message):
                    draw()
        dense, fused = ThirdRowOverBudgetRng(width, threads), ThirdRowOverBudgetRng(width, threads)
        one_row_draws = (
            lambda: sample_simplex(model, dense),
            lambda: DensityModel.from_simplex(model).threshold_draw(fused, 1.0),
        )
        for draw in one_row_draws:
            draw()
            draw()
            with pytest.raises(FloatingPointError, match=r"budget polytope: S=179698\.5, slack=-1\.5$"):
                draw()
        largest = SimplexModel.uniform(600, L=_LARGEST_L)
        x0 = float(sample_simplex(largest, LargestUniformRng(threads)).x[0])
        for p in (0.0, x0, _LARGEST_L):
            fused, dense = self._both(largest, partial(LargestUniformRng, threads), p)
            g, ref = fused(), dense()
            assert np.array_equal(g.edge_indices, ref.edge_indices)
            assert g.edge_count == (width - 1 if p >= x0 else 0)


class TestSeededRng:
    @pytest.mark.parametrize("seed, stream", [(0, 0), (8, 21), (-3, 1 << 48), (2**64 + 5, -1)])
    def test_seeding_is_pinned(self, seed, stream):
        """The one seeding path: PCG64DXSM keyed by SeedSequence([seed, stream]), each mod 2^64."""
        key = np.random.SeedSequence([seed % 2**64, stream % 2**64])
        expected = np.random.Generator(np.random.PCG64DXSM(key)).random(1000)
        assert np.array_equal(SeededRng(seed, stream).uniform(1000).view(np.uint64), expected.view(np.uint64))


class TestExponentialSampler:
    def test_edge_probability(self):
        # lambda=1, p=0.1: per-edge probability 1 - e^{-0.1}
        density = DensityModel.product_exponential(1.0, EdgeSpace(10))
        rng = SeededRng(21, 0)
        hits = np.array([density.sample(rng).x[0] <= 0.1 for _ in range(20_000)])
        expected = 1.0 - math.exp(-0.1)
        assert expected == pytest.approx(0.09516, abs=5e-6)
        se = math.sqrt(expected * (1 - expected) / hits.size)
        assert abs(hits.mean() - expected) < 3 * se

    def test_independence_of_edge_indicators(self):
        density = DensityModel.product_exponential(1.0, EdgeSpace(6))
        rng = SeededRng(22, 0)
        xs = np.stack([density.sample(rng).x for _ in range(100_000)])
        p = 0.3
        a = (xs[:, 2] <= p).astype(float)
        b = (xs[:, 9] <= p).astype(float)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(xs.shape[0])

    def test_second_moment(self):
        space = EdgeSpace(4)
        density = DensityModel.product_exponential(np.full(6, 2.0), space)
        assert density.second_moment(0) == pytest.approx(2.0 / 4.0)

    def test_rate_validation(self):
        space = EdgeSpace(3)
        # 1e-320: the largest unit exponential over this rate overflows
        for rate in (-1.0, 0.0, math.inf, math.nan, 1e-320):
            with pytest.raises(ValueError, match="rate"):
                DensityModel.product_exponential(rate, space)

    def test_ks(self):
        density = DensityModel.product_exponential(1.5, EdgeSpace(3))
        rng = SeededRng(23, 0)
        samples = np.concatenate([density.sample(rng).x for _ in range(34_000)])[:100_000]
        d = ks_distance(samples, lambda v: 1.0 - np.exp(-1.5 * v))
        assert d < KS_LIMIT


class TestOrthantBallSampler:
    def test_support(self):
        density = DensityModel.orthant_ball(2.0, EdgeSpace(5))
        rng = SeededRng(31, 0)
        for _ in range(200):
            x = density.sample(rng)
            assert (x.x >= 0).all()
            assert np.linalg.norm(x.x) <= 2.0 + 1e-12

    def test_second_moment_mc_and_quadrature(self):
        space = EdgeSpace(4)  # N = 6
        R = 1.5
        density = DensityModel.orthant_ball(R, space)
        rng = SeededRng(32, 0)
        xs = np.stack([density.sample(rng).x for _ in range(60_000)])
        sq = xs[:, 3] ** 2
        expected = R**2 / (space.num_edges + 2)
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - expected) < 3 * se
        pdf = _ball_marginal_pdf(space.num_edges, R)
        by_quad = quad(lambda t: t * t * pdf(t), 0, R)[0]
        assert by_quad == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0, 1.5e308])
    def test_rejects_bad_radius(self, radius):
        space = EdgeSpace(4)
        with pytest.raises(ValueError, match="radius"):
            DensityModel.orthant_ball(radius, space)

    def test_reduces_to_uniform_interval_when_single_coordinate(self):
        space = EdgeSpace(2)  # N = 1
        density = DensityModel.orthant_ball(2.0, space)
        assert marginal_cdf(density, 0, 0.5) == pytest.approx(0.25)
        assert marginal_cdf(density, 0, 2.0) == pytest.approx(1.0)

    def test_cdf_matches_numerical_integration(self):
        space = EdgeSpace(7)  # N = 21
        R = 1.2
        density = DensityModel.orthant_ball(R, space)
        pdf = _ball_marginal_pdf(space.num_edges, R)
        for p in (0.05, 0.2, 0.5, 1.0):
            assert marginal_cdf(density, 0, p) == pytest.approx(quad(pdf, 0, p)[0], abs=1e-10)

    def test_ks(self):
        space = EdgeSpace(3)  # N = 3
        R = 1.0
        density = DensityModel.orthant_ball(R, space)
        rng = SeededRng(33, 0)
        samples = np.concatenate([density.sample(rng).x for _ in range(34_000)])[:100_000]
        d = ks_distance(samples, lambda v: np.asarray([marginal_cdf(density, 0, float(t)) for t in v]))
        assert d < KS_LIMIT


class TestMarginalCdf:
    def test_simplex_hand_value(self):
        density = DensityModel.from_simplex(SimplexModel.uniform(4, L=6.0))
        assert marginal_cdf(density, 0, 0.5) == pytest.approx(1.0 - (11.0 / 12.0) ** 6)
        assert marginal_cdf(density, 0, 0.5) == pytest.approx(0.40670, abs=1e-5)

    def test_zero_threshold(self):
        for density in (
            DensityModel.from_simplex(SimplexModel.uniform(4)),
            DensityModel.product_exponential(1.0, EdgeSpace(4)),
            DensityModel.orthant_ball(1.0, EdgeSpace(4)),
        ):
            assert marginal_cdf(density, 0, 0.0) == 0.0

    def test_simplex_support_boundary(self):
        density = DensityModel.from_simplex(SimplexModel.uniform(4, L=6.0))
        assert marginal_cdf(density, 0, 6.0) == 1.0
        assert marginal_cdf(density, 0, 9.0) == 1.0

    def test_negative_threshold_rejected(self):
        density = DensityModel.product_exponential(1.0, EdgeSpace(3))
        with pytest.raises(ValueError):
            marginal_cdf(density, 0, -0.5)


class TestMomentConventions:
    def test_simplex_sd_below_rms(self):
        density = DensityModel.from_simplex(SimplexModel.uniform(20))
        assert density.std_dev(0) < math.sqrt(density.second_moment(0))

    def test_exponential_sd_equals_mean(self):
        density = DensityModel.product_exponential(2.0, EdgeSpace(5))
        assert density.std_dev(0) == pytest.approx(0.5)
        assert density.second_moment(0) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "density, sd, m2",
        [
            # scale 1e200: E(X_e^2) is 2e399 (ball, N=3) and 2e400 (exponential), past the largest double
            (DensityModel.orthant_ball(1e200, EdgeSpace(3)), 1e200 * math.sqrt(1 / 5 - 0.375**2), math.inf),
            (DensityModel.product_exponential(1e-200, EdgeSpace(3)), 1e200, math.inf),
            # R^2 = 4e308 overflows, E(X_e^2) = R^2 / 5 does not
            (DensityModel.orthant_ball(2e154, EdgeSpace(3)), 2e154 * math.sqrt(1 / 5 - 0.375**2), 8e307),
            (DensityModel.product_exponential(1e-153, EdgeSpace(3)), 1e153, 2e306),
        ],
        ids=["ball-1e200", "exponential-1e-200", "ball-2e154", "exponential-1e-153"],
    )
    def test_moments_at_extreme_scales(self, density, sd, m2):
        # every moment comes from the scale in Python floats: no overflow error and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert density.std_dev(0) == pytest.approx(sd, rel=1e-12)
            assert density.second_moment(0) == pytest.approx(m2, rel=1e-12)
            assert density.sigma_min == density.sigma_max == pytest.approx(math.sqrt(m2), rel=1e-12)
            checks = check_basic_bounds(density, 0, [0.0, 0.1 * sd, 10 * sd])
        assert all(c.upper_ok and c.lower_ok for c in checks)

    def test_sigma_min_max(self):
        space = EdgeSpace(4)
        density = DensityModel.product_exponential(np.array([1.0, 2.0, 4.0, 1.0, 1.0, 1.0]), space)
        assert density.sigma_max == pytest.approx(math.sqrt(2.0))
        assert density.sigma_min == pytest.approx(math.sqrt(2.0 / 16.0))

    def test_ball_mean_matches_quadrature(self):
        space = EdgeSpace(6)
        R = 1.3
        density = DensityModel.orthant_ball(R, space)
        pdf = _ball_marginal_pdf(space.num_edges, R)
        assert density.mean(0) == pytest.approx(quad(lambda t: t * pdf(t), 0, R)[0], rel=1e-10)

    def test_mode_values(self):
        simplex = DensityModel.from_simplex(SimplexModel.uniform(4, L=6.0))
        assert simplex.mode_value(0) == pytest.approx(1.0)  # N alpha / L = 6/6
        expo = DensityModel.product_exponential(3.0, EdgeSpace(3))
        assert expo.mode_value(0) == pytest.approx(3.0)
        ball = DensityModel.orthant_ball(2.0, EdgeSpace(2))  # N=1: uniform on [0, 2]
        assert ball.mode_value(0) == pytest.approx(0.5)


class TestUnitLaw:
    """Every per-axis value is one unit law applied to p / scale(e)."""

    @staticmethod
    def _families(n, seed):
        rng = np.random.default_rng(seed)
        space = EdgeSpace(n)
        N = space.num_edges
        yield DensityModel.from_simplex(SimplexModel(space, rng.uniform(0.3, 5.0, N), L=0.7 * N))
        yield DensityModel.product_exponential(rng.uniform(0.1, 9.0, N), space)
        for radius in (0.3, 1.7, 11.0):
            yield DensityModel.orthant_ball(radius, space)

    @staticmethod
    def _top(density, e):
        """scale(e), spelled out per family: L / alpha_e, 1 / rate_e or the radius."""
        if density.kind == "simplex":
            return density.simplex.L / density.simplex.alpha[e]
        return 1.0 / density.rates[e] if density.kind == "exponential" else density.radius

    @pytest.mark.parametrize("n, seed", [(3, 1), (7, 2), (20, 3)])
    def test_cdf_within_16_ulp_of_each_formula(self, n, seed):
        for density in self._families(n, seed):
            for e in (0, 1, density.space.num_edges - 1):
                for p in np.linspace(0.0, 1.2, 13) * self._top(density, e):
                    got, want = marginal_cdf(density, e, float(p)), marginal_cdf_reference(density, e, float(p))
                    assert abs(got - want) <= 16 * math.ulp(want), (density.kind, e, p, got, want)

    def test_cdf_bits_at_unit_alpha_and_budget_n(self):
        # the frozen ``marginals`` sweep: unit alpha at L = N, where p / (L / 1) is alpha p / L
        density = DensityModel.from_simplex(SimplexModel.uniform(6))
        for e in (0, 14):
            for p in [0.4, 0.8, *np.linspace(0.0, 16.0, 41)]:
                assert marginal_cdf(density, e, float(p)) == marginal_cdf_reference(density, e, float(p))

    @pytest.mark.parametrize("kind", ["simplex", "exponential", "ball"])
    def test_moments_and_mode_match_quadrature(self, kind):
        space = EdgeSpace(6)
        N, e = space.num_edges, 4
        if kind == "simplex":  # coordinate 4 has alpha 17/14 and L = 11: scale 154/17
            density = DensityModel.from_simplex(SimplexModel(space, np.linspace(0.5, 3.0, N), L=11.0))
            top = 11.0 / density.simplex.alpha[e]
            pdf = lambda t: N / top * (1.0 - t / top) ** (N - 1)
        elif kind == "exponential":
            density = DensityModel.product_exponential(np.linspace(0.7, 2.9, N), space)
            rate, top = density.rates[e], math.inf
            pdf = lambda t: rate * math.exp(-rate * t)
        else:
            density, top = DensityModel.orthant_ball(1.7, space), 1.7
            pdf = _ball_marginal_pdf(N, top)
        m1 = quad(lambda t: t * pdf(t), 0, top)[0]
        m2 = quad(lambda t: t * t * pdf(t), 0, top)[0]
        assert density.mean(e) == pytest.approx(m1, rel=1e-10)
        assert density.second_moment(e) == pytest.approx(m2, rel=1e-10)
        assert density.std_dev(e) == pytest.approx(math.sqrt(m2 - m1 * m1), rel=1e-9)
        assert density.mode_value(e) == pytest.approx(pdf(0.0), rel=1e-12)
        assert max(pdf(t) for t in np.linspace(0.0, min(top, 10.0), 200)) <= density.mode_value(e) * (1 + 1e-12)


class TestCoordinateRange:
    # N = 6 on 4 vertices; coordinate 5 differs from the others, so a wrapped -1 would read it
    SPACE = EdgeSpace(4)
    FAMILIES = {
        "simplex": DensityModel.from_simplex(SimplexModel(SPACE, [1.0, 1.0, 1.0, 1.0, 1.0, 3.0])),
        "exponential": DensityModel.product_exponential([1.0, 1.0, 1.0, 1.0, 1.0, 3.0], SPACE),
        "ball": DensityModel.orthant_ball(1.5, SPACE),
    }
    PER_AXIS = {
        "marginal_cdf": lambda d, e: marginal_cdf(d, e, 0.5),
        "mode_value": lambda d, e: d.mode_value(e),
        "mean": lambda d, e: d.mean(e),
        "std_dev": lambda d, e: d.std_dev(e),
        "second_moment": lambda d, e: d.second_moment(e),
        "check_basic_bounds": lambda d, e: check_basic_bounds(d, e, [0.1]),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("function", sorted(PER_AXIS))
    def test_rejects_index_outside_coordinates(self, family, function):
        density, call = self.FAMILIES[family], self.PER_AXIS[function]
        call(density, 0)
        call(density, 5)
        for e in (-1, 6):
            with pytest.raises(ValueError, match="out of range"):
                call(density, e)

    @pytest.mark.parametrize("e", [-1, 6])
    def test_sigma_simplex_rejects_index_outside_coordinates(self, e):
        with pytest.raises(ValueError, match="out of range"):
            sigma_simplex(self.FAMILIES["simplex"].simplex, e)


class TestSdGridBounds:
    """p/(2 sd) <= P(X_e <= p) <= p * M_f on a 100-point grid p in [0, sd].

    Checked for the exponential and simplex marginals, where the marginal mode
    satisfies M_f ~ 1/sd so the chained lower bound holds.  (For the ball
    marginal M_f is strictly below 1/sd and the sd-form lower bound provably
    fails near p = sd; the mode-form bounds for all kinds live in the
    check_basic_bounds tests.)
    """

    @pytest.mark.parametrize(
        "density",
        [
            DensityModel.product_exponential(1.0, EdgeSpace(5)),
            DensityModel.product_exponential(3.5, EdgeSpace(5)),
            DensityModel.from_simplex(SimplexModel.uniform(20)),
            DensityModel.from_simplex(SimplexModel.uniform(6, L=4.0)),
        ],
    )
    def test_grid(self, density):
        sd = density.std_dev(0)
        mode = density.mode_value(0)
        for p in np.linspace(0.0, sd, 100):
            cdf = marginal_cdf(density, 0, float(p))
            assert cdf <= p * mode + 1e-12
            assert cdf >= p / (2.0 * sd) - 1e-12
