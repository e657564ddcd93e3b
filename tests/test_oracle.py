import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brutes import absent_present_exact, mst_series_subset_reference, xi_vertex_brute
from simplexgraphs import oracle
from simplexgraphs import (
    DecomposableWeights,
    DensityModel,
    EdgeSpace,
    IsolationProfile,
    SeededRng,
    SimplexModel,
    CapacityError,
    check_basic_bounds,
    edge_count_variance_bound,
    edge_prob_q,
    expected_edge_count,
    mst_series,
    prob_absent_present,
    prob_all_absent,
    sample_simplex_batch,
    sigma_simplex,
    solve_p0,
)


class TestProbAllAbsent:
    def test_hand_value(self):
        # n=4, L=6, |S|=2, p=0.5: (1 - 1/6)^6 = (5/6)^6
        m = SimplexModel.uniform(4, L=6.0)
        assert prob_all_absent(m, [0, 1], 0.5) == pytest.approx((5.0 / 6.0) ** 6)
        assert prob_all_absent(m, [0, 1], 0.5) == pytest.approx(0.33490, abs=1e-5)

    def test_empty_set(self):
        m = SimplexModel.uniform(5)
        for p in (0.0, 0.3, 10.0):
            assert prob_all_absent(m, [], p) == 1.0

    def test_star_equals_isolation_probability(self):
        rng = np.random.default_rng(2)
        space = EdgeSpace(6)
        m = SimplexModel(space, rng.uniform(0.5, 2.0, space.num_edges), float(space.num_edges))
        star = [space.index(2, w) for w in range(6) if w != 2]
        p = 0.4
        assert prob_all_absent(m, star, p) == pytest.approx(IsolationProfile(m).xi(p)[2])
        assert prob_all_absent(m, star, p) == pytest.approx(xi_vertex_brute(m, 2, p))

    def test_monotone_in_s_exhaustive_n4(self):
        m = SimplexModel.uniform(4)
        p = 0.7
        for bits in range(2**6):
            S = [e for e in range(6) if bits >> e & 1]
            base = prob_all_absent(m, S, p)
            for e in range(6):
                if e not in S:
                    assert prob_all_absent(m, S + [e], p) <= base + 1e-15

    def test_depends_only_on_alpha_sum(self):
        rng = np.random.default_rng(3)
        space = EdgeSpace(5)
        alpha = rng.uniform(0.5, 2.0, space.num_edges)
        alpha[3] = alpha[7]  # make two disjoint sets with equal alpha mass
        m = SimplexModel(space, alpha, 10.0)
        assert prob_all_absent(m, [3], 0.2) == pytest.approx(prob_all_absent(m, [7], 0.2))

    def test_clamps_beyond_support(self):
        m = SimplexModel.uniform(4, L=6.0)
        assert prob_all_absent(m, [0, 1, 2], 3.0) == 0.0

    def test_rejects_duplicates_and_negative_p(self):
        m = SimplexModel.uniform(4)
        with pytest.raises(ValueError):
            prob_all_absent(m, [1, 1], 0.2)
        with pytest.raises(ValueError):
            prob_all_absent(m, [1], -0.2)

    def test_matches_monte_carlo(self):
        m = SimplexModel.uniform(7)
        S = [0, 4, 9]
        p = 0.6
        prob = prob_all_absent(m, S, p)
        xs = sample_simplex_batch(m, SeededRng(40, 0), 40_000)
        freq = (xs[:, S] > p).all(axis=1).mean()
        se = math.sqrt(prob * (1 - prob) / xs.shape[0])
        assert abs(freq - prob) < 3 * se


class TestProbAbsentPresent:
    def test_empty_t_is_exact(self):
        m = SimplexModel.uniform(6)
        est = prob_absent_present(m, [0, 1], [], 0.3)
        exact = prob_all_absent(m, [0, 1], 0.3)
        assert est.value == pytest.approx(exact)
        assert est.lower == pytest.approx(exact)
        assert est.upper == pytest.approx(exact)

    def test_overlap_rejected(self):
        m = SimplexModel.uniform(5)
        with pytest.raises(ValueError):
            prob_absent_present(m, [0, 1], [1, 2], 0.1)

    def test_single_edge_value_and_bracket(self):
        # n=30, T one edge, S empty, p=0.05: value N p / L = 0.05
        m = SimplexModel.uniform(30)
        est = prob_absent_present(m, [], [0], 0.05)
        assert est.value == pytest.approx(0.05)
        q = edge_prob_q(m, 0.05)
        assert est.contains(q)
        xs = sample_simplex_batch(m, SeededRng(41, 0), 100_000)
        freq = (xs[:, 0] <= 0.05).mean()
        assert est.lower - 3e-3 <= freq <= est.upper + 3e-3

    def test_star_case_brackets_monte_carlo(self):
        # n=8, |T|=2 away from vertex 0, S = all 7 edges at vertex 0
        space = EdgeSpace(8)
        m = SimplexModel.uniform(8)
        S = [space.index(0, w) for w in range(1, 8)]
        T = [space.index(1, 2), space.index(3, 4)]
        p = 0.05
        est = prob_absent_present(m, S, T, p)
        xs = sample_simplex_batch(m, SeededRng(42, 0), 1_000_000)
        absent = (xs[:, S] > p).all(axis=1)
        present = (xs[:, T] <= p).all(axis=1)
        freq = (absent & present).mean()
        assert est.lower <= freq <= est.upper

    def test_exact_inclusion_exclusion_in_bracket(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(8, 25))
            m = SimplexModel.uniform(n)
            N = m.space.num_edges
            t_size = int(rng.integers(1, 4))
            idx = rng.choice(N, size=t_size + 5, replace=False)
            T, S = idx[:t_size].tolist(), idx[t_size:].tolist()
            p = float(rng.uniform(0.01, 0.1))
            est = prob_absent_present(m, S, T, p)
            exact = absent_present_exact(m, S, T, p)
            assert est.lower <= exact <= est.upper


class TestEdgeCountMoments:
    def test_q_hand_value(self):
        m = SimplexModel.uniform(4, L=6.0)
        assert edge_prob_q(m, 0.5) == pytest.approx(0.40670, abs=1e-5)
        assert expected_edge_count(m, 0.5) == pytest.approx(6 * 0.4067078, abs=1e-4)

    def test_boundaries(self):
        m = SimplexModel.uniform(4, L=6.0)
        assert edge_prob_q(m, 0.0) == 0.0
        assert edge_prob_q(m, 6.0) == 1.0
        assert edge_prob_q(m, 7.5) == 1.0

    def test_requires_all_ones(self):
        space = EdgeSpace(4)
        m = SimplexModel(space, np.full(6, 2.0), 6.0)
        with pytest.raises(ValueError):
            edge_prob_q(m, 0.5)
        with pytest.raises(ValueError):
            edge_count_variance_bound(m, 0.5)

    def test_variance_bound_hand_value(self):
        m = SimplexModel.uniform(4, L=6.0)
        assert edge_count_variance_bound(m, 0.5) == pytest.approx(2.4402, abs=1e-3)
        assert edge_count_variance_bound(m, 0.0) == 0.0

    def test_empirical_variance_below_bound(self):
        m = SimplexModel.uniform(30)
        xs = sample_simplex_batch(m, SeededRng(43, 0), 4000)
        counts = (xs <= 0.1).sum(axis=1)
        assert counts.var(ddof=1) <= 1.15 * edge_count_variance_bound(m, 0.1)

    def test_two_sided_count_interval(self):
        # the symmetric E(m) +- sqrt(E(m) w) interval holds in nearly all trials
        m = SimplexModel.uniform(30)
        em = expected_edge_count(m, 0.1)
        omega = 10.0
        half = math.sqrt(em * omega)
        xs = sample_simplex_batch(m, SeededRng(44, 0), 2000)
        counts = (xs <= 0.1).sum(axis=1)
        inside = ((counts >= em - half) & (counts <= em + half)).mean()
        assert inside >= 1.0 - 1.0 / omega


class TestBadThreshold:
    # pow_one_minus clamps NaN like a value >= 1, so every public caller
    # must reject a bad threshold before it gets there
    @pytest.mark.parametrize("p", [math.nan, math.inf, -0.1])
    def test_each_oracle_rejects(self, p):
        m = SimplexModel.uniform(10)
        profile = IsolationProfile(m)
        calls = [
            lambda: prob_all_absent(m, [0, 1], p),
            lambda: prob_absent_present(m, [0], [1], p),
            lambda: edge_prob_q(m, p),
            lambda: expected_edge_count(m, p),
            lambda: edge_count_variance_bound(m, p),
            lambda: profile.xi(p),
            lambda: profile.total(p),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="finite and non-negative"):
                call()


class TestSolveP0:
    def test_hand_value_n4(self):
        # 4 (1 - p/2)^6 = 1  =>  p = 2 (1 - 4^(-1/6))
        m = SimplexModel.uniform(4)
        assert solve_p0(m) == pytest.approx(2.0 * (1.0 - 4.0 ** (-1.0 / 6.0)), abs=1e-10)
        assert solve_p0(m) == pytest.approx(0.41260, abs=1e-5)

    def test_residual_tiny(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            space = EdgeSpace(60)
            m = SimplexModel(space, rng.uniform(0.5, 2.0, space.num_edges), float(space.num_edges))
            p0 = solve_p0(m)
            assert abs(IsolationProfile(m).total(p0) - 1.0) < 1e-9

    def test_large_n_asymptotics(self):
        m = SimplexModel.uniform(1000)
        p0 = solve_p0(m)
        ref = math.log(1000) / 999
        assert 0.95 * ref <= p0 <= 1.05 * ref

    def test_scaling_identity(self):
        # doubling every coefficient exactly halves p0
        n = 50
        space = EdgeSpace(n)
        rng = np.random.default_rng(10)
        alpha = rng.uniform(0.5, 2.0, space.num_edges)
        m1 = SimplexModel(space, alpha, float(space.num_edges))
        m2 = SimplexModel(space, 2.0 * alpha, float(space.num_edges))
        assert solve_p0(m2) == pytest.approx(solve_p0(m1) / 2.0, rel=1e-9)

    def test_isolation_profile_monotone(self):
        m = SimplexModel.uniform(8)
        prof = IsolationProfile(m)
        xs = prof.xi(0.1)
        assert ((xs >= 0) & (xs <= 1)).all()
        assert prof.total(0.2) < prof.total(0.1)


class TestSigmaSimplex:
    def test_hand_value(self):
        # alpha=1, L=N, n=4: 2 N^2 / ((N+1)(N+2)) = 72/56 = 9/7
        m = SimplexModel.uniform(4)
        assert sigma_simplex(m, 0) == pytest.approx(9.0 / 7.0)

    def test_alpha_scaling(self):
        space = EdgeSpace(4)
        alpha = np.ones(6)
        alpha[2] = 2.0
        m = SimplexModel(space, alpha, 6.0)
        assert sigma_simplex(m, 2) == pytest.approx(sigma_simplex(m, 0) / 4.0)

    def test_matches_monte_carlo(self):
        m = SimplexModel.uniform(6)
        xs = sample_simplex_batch(m, SeededRng(45, 0), 100_000)
        sq = xs[:, 2] ** 2
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - sigma_simplex(m, 2)) < 3 * se

    def test_agrees_with_density_model(self):
        m = SimplexModel.uniform(9, L=11.0)
        density = DensityModel.from_simplex(m)
        assert sigma_simplex(m, 5) == pytest.approx(density.second_moment(5))

    def test_finite_where_l_squared_overflows(self):
        # L^2 = 1e310 overflows, but the second moment, about 2 (L/N)^2 = 8e298, does not
        m = SimplexModel.uniform(1000, L=1e155)
        N = m.space.num_edges
        assert sigma_simplex(m, 0) == pytest.approx(2.0 * (1e155 / N) ** 2, rel=1e-5)

    def test_isolation_past_the_double_range_is_zero(self):
        # alpha_v p / L overflows: every vertex is surely joined, without an overflow warning
        m = SimplexModel.uniform(4, L=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert IsolationProfile(m).total(1e300) == 0.0


@st.composite
def factor_vectors(draw):
    """(d, permutation): n in 2..12 factors taking 1..n distinct values, and an order of them."""
    n = draw(st.integers(2, 12))
    r = draw(st.integers(1, n))
    values = draw(st.lists(st.floats(0.05, 20.0), min_size=r, max_size=r, unique=True))
    # every value is held once, the other n - r vertices take any of them
    held = list(range(r)) + draw(st.lists(st.integers(0, r - 1), min_size=n - r, max_size=n - r))
    return np.array([values[i] for i in held]), draw(st.permutations(range(n)))


class TestMstSeries:
    def test_four_term_hand_sum(self):
        w = DecomposableWeights(np.ones(4))
        expected = 1.0 + 6.0 / 64.0 + 8.0 / 576.0 + 6.0 / 4096.0
        assert expected == pytest.approx(1.1091037326388889)
        assert mst_series(w) == pytest.approx(expected, abs=1e-12)

    def test_approaches_zeta3(self):
        zeta3 = sum(1.0 / k**3 for k in range(1, 200_001))
        w = DecomposableWeights(np.ones(200))
        assert abs(mst_series(w) - zeta3) < 0.02

    def test_equals_subset_reference_two_valued(self):
        d = np.array([0.8] * 8 + [1.25] * 8)
        assert abs(mst_series(DecomposableWeights(d)) - mst_series_subset_reference(d)) < 1e-10

    @settings(max_examples=150, deadline=None)
    @given(case=factor_vectors())
    def test_equals_subset_reference(self, case):
        d, order = case
        value = mst_series(DecomposableWeights(d))
        assert value == pytest.approx(mst_series_subset_reference(d), rel=1e-12, abs=0)
        assert mst_series(DecomposableWeights(d[order])) == value

    def test_shifted_blocks_equal_subset_reference(self):
        # 2^18 vectors: a block of 16 values' counts, shifted by the 4 choices of the other two
        d = np.linspace(1.0, 2.0, 18)
        assert mst_series(DecomposableWeights(d)) == pytest.approx(mst_series_subset_reference(d), rel=1e-12, abs=0)

    def test_one_count_past_the_chunk(self):
        # unit factors: sum_k prod_{j<k} (1 - j/n) / k^3; 70,001 count vectors run in two
        # chunks.  log C(n, k) differences of lgamma values near n log n lose about
        # n log n 2^-53 ~ 1e-10 relative, so the tolerance is 1e-9
        n = 70_000
        terms, falling = [], 1.0
        for k in range(1, 4000):  # the term at k = 4000 is below 1e-60
            falling *= (n - k + 1) / n
            terms.append(falling / k**3)
        assert mst_series(DecomposableWeights(np.ones(n))) == pytest.approx(math.fsum(terms), rel=1e-9)

    def test_cap_is_on_the_vector_count(self, monkeypatch):
        # ones(n) has n + 1 count vectors, the zero vector among them
        monkeypatch.setattr(oracle, "SERIES_MAX_TERMS", 7)
        assert mst_series(DecomposableWeights(np.ones(7))) > 0
        with pytest.raises(CapacityError, match="1 distinct factor values at n=8"):
            mst_series(DecomposableWeights(np.ones(8)))

    @pytest.mark.parametrize("r", [25, 10_000])
    def test_cap_names_the_distinct_value_count(self, r):
        # 2^r - 1 subsets; the refusal builds no enumeration array and stays one short line
        w = DecomposableWeights(np.linspace(1.0, 2.0, r))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError) as info:
                mst_series(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        message = str(info.value)
        assert f"{r} distinct factor values" in message
        assert "\n" not in message and len(message) < 120
        assert peak < 1 << 20


class TestCheckBasicBounds:
    def test_exponential_hand_values(self):
        density = DensityModel.product_exponential(1.0, EdgeSpace(3))
        (report,) = check_basic_bounds(density, 0, [0.5])
        assert report.cdf == pytest.approx(0.39347, abs=1e-5)
        assert report.upper == pytest.approx(0.5)
        assert report.lower == pytest.approx(0.25)
        assert report.upper_ok and report.lower_ok and not report.skipped

    def test_zero_point_equality(self):
        density = DensityModel.product_exponential(2.0, EdgeSpace(3))
        (report,) = check_basic_bounds(density, 0, [0.0])
        assert report.cdf == report.upper == report.lower == 0.0
        assert report.upper_ok and report.lower_ok

    def test_simplex_midpoint(self):
        density = DensityModel.from_simplex(SimplexModel.uniform(20))
        sd = density.std_dev(0)
        (report,) = check_basic_bounds(density, 0, [sd / 2])
        assert report.upper_ok and report.lower_ok

    def test_beyond_sd_is_skipped(self):
        density = DensityModel.product_exponential(1.0, EdgeSpace(3))
        (report,) = check_basic_bounds(density, 0, [1.5])
        assert report.skipped
        assert "sd" in report.note

    @pytest.mark.parametrize(
        "density",
        [
            DensityModel.product_exponential(1.0, EdgeSpace(4)),
            DensityModel.from_simplex(SimplexModel.uniform(12)),
            DensityModel.orthant_ball(1.0, EdgeSpace(12)),
        ],
    )
    def test_mode_form_bounds_hold_for_all_kinds(self, density):
        sd = density.std_dev(0)
        reports = check_basic_bounds(density, 0, np.linspace(0, sd, 100))
        assert all(r.upper_ok for r in reports)
        assert all(r.lower_ok for r in reports if not r.skipped)
