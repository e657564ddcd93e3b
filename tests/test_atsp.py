import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from brutes import assignment_brute, tour_brute
from simplexgraphs import (
    CapacityError,
    CostMatrix,
    EdgeSpace,
    SeededRng,
    held_karp,
    hungarian,
    patch,
    prob_all_absent,
    row_symmetric_model,
    sample_row_symmetric,
    tour_cost,
)


def random_costs(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.01, 1.0, (n, n))
    np.fill_diagonal(m, np.inf)
    return CostMatrix(m)


def property_costs(n, seed, integer):
    # integer costs tie often: equal optimal costs, several optimal permutations
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 5, (n, n)).astype(float) if integer else rng.uniform(0.01, 1.0, (n, n))
    np.fill_diagonal(m, np.inf)
    return CostMatrix(m)


def bad_cost_matrices(n):
    """Matrices a CostMatrix refuses: one bad value at the first or the last off-diagonal entry, or a bad diagonal."""
    for value in (np.nan, np.inf, -1.0):
        for i, j in ((0, 1), (n - 1, n - 2)):
            m = random_costs(n, n).matrix.copy()
            m[i, j] = value
            yield m
    for value in (-np.inf, np.nan):
        m = random_costs(n, n).matrix.copy()
        np.fill_diagonal(m, value)
        yield m


class TestCostMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            CostMatrix(np.ones((3, 3)))  # finite diagonal
        bad = np.full((3, 3), -1.0)
        np.fill_diagonal(bad, np.inf)
        with pytest.raises(ValueError):
            CostMatrix(bad)
        with pytest.raises(ValueError):
            CostMatrix(np.full((2, 3), np.inf))
        for n in (2, 3, 7):
            for m in bad_cost_matrices(n):
                with pytest.raises(ValueError):
                    CostMatrix(m)

    @pytest.mark.parametrize("n", [2, 3, 7, 300])
    def test_finite_sentinel_equals_mask_formula(self, n):
        c = random_costs(n, n)
        reference = c.matrix.copy()
        off = ~np.eye(n, dtype=bool)
        reference[~off] = (c.matrix[off].max() + 1.0) * (n + 1)
        assert np.array_equal(c.finite_sentinel().view(np.uint64), reference.view(np.uint64))

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_fortran_ordered_matrix(self, n):
        transposed = random_costs(n, n).matrix.T
        assert transposed.flags.f_contiguous and not transposed.flags.c_contiguous
        c = CostMatrix(transposed)
        assert np.array_equal(c.matrix, transposed)
        assert np.array_equal(c.finite_sentinel(), CostMatrix(np.ascontiguousarray(transposed)).finite_sentinel())
        for m in bad_cost_matrices(n):
            with pytest.raises(ValueError):
                CostMatrix(np.asfortranarray(m))

    def test_csv_round_trip(self, tmp_path):
        c = random_costs(5, 1)
        path = tmp_path / "costs.csv"
        c.write_csv(path)
        back = CostMatrix.read_csv(path)
        assert np.array_equal(
            np.nan_to_num(back.matrix, posinf=-1), np.nan_to_num(c.matrix, posinf=-1)
        )

    def test_csv_text_format(self):
        c = random_costs(3, 2)
        text = c.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "n=3"
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "inf"
        assert CostMatrix.read_csv(io.StringIO(text)).n == 3

    def test_csv_bad_header(self):
        with pytest.raises(ValueError):
            CostMatrix.read_csv(io.StringIO("m=3\n"))


class TestHungarian:
    def test_n2_forced_cycle(self):
        m = np.array([[np.inf, 3.0], [5.0, np.inf]])
        res = hungarian(CostMatrix(m))
        assert res.cost == pytest.approx(8.0)
        assert res.cycles == ((0, 1),)

    def test_3x3_hand_example(self):
        m = np.array([[np.inf, 2.0, 9.0], [1.0, np.inf, 6.0], [8.0, 7.0, np.inf]])
        res = hungarian(CostMatrix(m))
        assert res.cost == pytest.approx(assignment_brute(m))
        assert res.cost == pytest.approx(16.0)

    def test_brute_force_100_random_7x7(self):
        for seed in range(100):
            c = random_costs(7, 1000 + seed)
            res = hungarian(c)
            assert abs(res.cost - assignment_brute(c.matrix)) < 1e-9
            # permutation structure
            assert sorted(res.assignment.tolist()) == list(range(7))
            assert (res.assignment != np.arange(7)).all()

    def test_against_scipy_on_larger_instances(self):
        for seed in (5, 6, 7):
            c = random_costs(30, seed)
            sentinel = c.finite_sentinel()
            rows, cols = linear_sum_assignment(sentinel)
            assert hungarian(c).cost == pytest.approx(sentinel[rows, cols].sum(), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1), integer=st.booleans())
    def test_property_against_brute_force(self, n, seed, integer):
        c = property_costs(n, seed, integer)
        res = hungarian(c)
        assert sorted(res.assignment.tolist()) == list(range(n))
        assert (res.assignment != np.arange(n)).all()
        assert res.cost == float(c.matrix[np.arange(n), res.assignment].sum())
        assert abs(res.cost - assignment_brute(c.matrix)) < 1e-9
        assert sorted(v for cy in res.cycles for v in cy) == list(range(n))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1), integer=st.booleans())
    def test_property_against_scipy(self, n, seed, integer):
        c = property_costs(n, seed, integer)
        sentinel = c.finite_sentinel()
        rows, cols = linear_sum_assignment(sentinel)
        res = hungarian(c)
        assert res.cost == pytest.approx(sentinel[rows, cols].sum(), abs=1e-9)
        if not integer:  # continuous costs have a unique optimum
            assert np.array_equal(res.assignment, cols)

    def test_row_shift_leaves_argmin_unchanged(self):
        c = random_costs(9, 8)
        base = hungarian(c).assignment
        shifted = c.matrix.copy()
        shifted[4, :] = shifted[4, :] + 5.0
        res = hungarian(CostMatrix(shifted))
        assert np.array_equal(res.assignment, base)

    def test_cycles_cover_and_sorted(self):
        c = random_costs(12, 9)
        res = hungarian(c)
        lengths = [len(cy) for cy in res.cycles]
        assert sum(lengths) == 12
        assert lengths == sorted(lengths, reverse=True)
        assert min(lengths) >= 2  # no fixed points possible
        seen = sorted(v for cy in res.cycles for v in cy)
        assert seen == list(range(12))


class TestPatch:
    def test_two_2cycles_all_four_options(self):
        # assignment 0<->1, 2<->3: enumerate the four removal pairs by hand
        rng = np.random.default_rng(12)
        m = rng.uniform(0.1, 1.0, (4, 4))
        np.fill_diagonal(m, np.inf)
        # force the assignment to be the two 2-cycles
        for i, j in ((0, 1), (1, 0), (2, 3), (3, 2)):
            m[i, j] = 0.001
        c = CostMatrix(m)
        res = hungarian(c)
        assert sorted(len(cy) for cy in res.cycles) == [2, 2]
        tour = patch(res, c)
        tour.validate(c)
        options = []
        for a, b in ((0, 1), (1, 0)):
            for x, y in ((2, 3), (3, 2)):
                # remove (a,b) and (x,y), add (a,y) and (x,b)
                cost = res.cost - m[a, b] - m[x, y] + m[a, y] + m[x, b]
                options.append(cost)
        # the patching rule picks the pair minimizing the added cost, which for
        # 2-cycles (both removal edges cost the same either way) is the best option
        assert tour.cost == pytest.approx(min(options))

    def test_single_cycle_unchanged(self):
        m = np.array([[np.inf, 1.0, 9.0], [9.0, np.inf, 1.0], [1.0, 9.0, np.inf]])
        c = CostMatrix(m)
        res = hungarian(c)
        assert len(res.cycles) == 1
        tour = patch(res, c)
        assert tour.cost == pytest.approx(res.cost)
        assert set(tour.order) == {0, 1, 2}

    def test_tour_cost_at_least_assignment(self):
        for seed in range(30):
            c = random_costs(10, 200 + seed)
            res = hungarian(c)
            tour = patch(res, c)
            tour.validate(c)
            assert tour.cost >= res.cost - 1e-12

    def test_tour_structure_always_valid(self):
        for seed in range(20):
            n = 5 + seed % 9
            c = random_costs(n, 300 + seed)
            tour = patch(hungarian(c), c)
            assert len(tour.order) == n
            assert set(tour.order) == set(range(n))
            assert tour.cost == pytest.approx(tour_cost(tour.order, c))


class TestHeldKarp:
    def test_n3_two_triangles(self):
        m = np.array([[np.inf, 1.0, 5.0], [2.0, np.inf, 1.0], [1.0, 4.0, np.inf]])
        c = CostMatrix(m)
        best, tour = held_karp(c)
        # the two directed triangles cost 1+1+1=3 and 5+4+2=11
        assert best == pytest.approx(3.0)
        tour.validate(c)

    def test_n4_matches_enumeration(self):
        for seed in range(25):
            c = random_costs(4, 400 + seed)
            best, tour = held_karp(c)
            assert best == pytest.approx(tour_brute(c.matrix), abs=1e-12)
            tour.validate(c)

    def test_assignment_lower_bounds_optimum(self):
        for seed in range(25):
            c = random_costs(8, 500 + seed)
            assert hungarian(c).cost <= held_karp(c)[0] + 1e-9

    def test_patched_tour_at_least_optimum(self):
        for seed in range(25):
            c = random_costs(9, 600 + seed)
            assert patch(hungarian(c), c).cost >= held_karp(c)[0] - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), integer=st.booleans())
    def test_property_against_enumeration(self, n, seed, integer):
        c = property_costs(n, seed, integer)
        best, tour = held_karp(c)
        tour.validate(c)
        assert tour.order[0] == 0
        assert tour.cost == best
        assert best == pytest.approx(tour_brute(c.matrix), abs=1e-12)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            held_karp(random_costs(14, 1))


class TestRowSymmetricSampling:
    def test_model_and_budget(self):
        n = 8
        model = row_symmetric_model(np.ones(n), n)
        assert model.space.directed
        assert model.L == n * (n - 1)
        rng = SeededRng(60, 0)
        costs = sample_row_symmetric(model, rng)
        off = costs.matrix[~np.eye(n, dtype=bool)]
        assert (off >= 0).all()
        tails, heads = model.space.all_pairs()
        assert model.alpha @ costs.matrix[tails, heads] <= model.L * (1 + 1e-12)

    @pytest.mark.parametrize("n", [2, 3, 7, 300])
    def test_alpha_is_beta_at_the_head(self, n):
        beta = np.random.default_rng(n).uniform(0.5, 2.0, n)
        model = row_symmetric_model(beta, n)
        _, heads = model.space.all_pairs()
        assert np.array_equal(model.alpha.view(np.uint64), beta[heads].view(np.uint64))
        assert model.M == max(model.alpha_max, 1.0 / model.alpha_min) == max(beta.max(), 1.0 / beta.min())

    def test_head_weighted_coefficients(self):
        beta = np.array([1.0, 2.0, 4.0])
        model = row_symmetric_model(beta, 3)
        space = model.space
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert model.alpha[space.index(i, j)] == beta[j]

    def test_rejects_non_positive_beta(self):
        with pytest.raises(ValueError):
            row_symmetric_model(np.array([1.0, -2.0, 1.0]), 3)

    def test_rejects_asymmetric_model(self):
        space = EdgeSpace(4, directed=True)
        rng = np.random.default_rng(3)
        from simplexgraphs import SimplexModel

        model = SimplexModel(space, rng.uniform(0.5, 2.0, space.num_edges), float(space.num_edges))
        with pytest.raises(ValueError):
            sample_row_symmetric(model, SeededRng(0, 0))

    def test_rejects_undirected_model(self):
        from simplexgraphs import SimplexModel

        with pytest.raises(ValueError, match="directed"):
            sample_row_symmetric(SimplexModel.uniform(4), SeededRng(0, 0))

    @pytest.mark.parametrize("coordinate", [0, -1])
    def test_rejects_model_changed_in_one_coordinate(self, coordinate):
        from simplexgraphs import SimplexModel

        symmetric = row_symmetric_model(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 5)
        alpha = symmetric.alpha.copy()
        alpha[coordinate] *= 1.5
        sample_row_symmetric(symmetric, SeededRng(0, 0))
        with pytest.raises(ValueError, match="row symmetry"):
            sample_row_symmetric(SimplexModel(symmetric.space, alpha), SeededRng(0, 0))

    def test_coordinate_cdf_matches_exact_law(self):
        # single-coordinate absence law on the directed space
        n = 6
        model = row_symmetric_model(np.ones(n), n)
        p = 1.0
        expected = 1.0 - prob_all_absent(model, [0], p)
        hits = 0
        trials = 20_000
        for t in range(trials):
            costs = sample_row_symmetric(model, SeededRng(61, t))
            i, j = model.space.pair(0)
            hits += costs.matrix[i, j] <= p
        freq = hits / trials
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(freq - expected) < 3 * se

    def test_cycle_count_near_log_n(self):
        # uniform random assignment structure: mean cycle count tracks ln n
        n = 100
        model = row_symmetric_model(np.ones(n), n)
        counts = []
        for t in range(500):
            costs = sample_row_symmetric(model, SeededRng(62, t))
            counts.append(len(hungarian(costs).cycles))
        mean = float(np.mean(counts))
        assert abs(mean - math.log(n)) < 1.0
