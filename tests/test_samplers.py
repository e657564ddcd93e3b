import math
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2_contingency

from brutes import orthant_ball_reference, product_exponential_reference, simplex_batch_reference
from simplexgraphs import (
    DecomposableWeights,
    DensityModel,
    EdgeSpace,
    SeededRng,
    SimplexModel,
    marginal_cdf,
    sample_simplex,
    sample_simplex_batch,
)
from simplexgraphs.atsp import row_symmetric_model
from simplexgraphs.oracle import check_basic_bounds
from simplexgraphs.model import MAX_UNIT_EXPONENTIAL
from simplexgraphs.samplers import _MIN_SLICE

KS_LIMIT = 0.0062  # 1e5-sample critical value used throughout


def ks_distance(samples: np.ndarray, cdf) -> float:
    vals = np.sort(samples)
    probs = cdf(vals)
    k = np.arange(1, vals.size + 1)
    return max(np.max(k / vals.size - probs), np.max(probs - (k - 1) / vals.size))


def _ball_marginal_pdf(N: int, R: float):
    norm = quad(lambda t: (1 - (t / R) ** 2) ** ((N - 1) / 2), 0, R)[0]
    return lambda t: (1 - (t / R) ** 2) ** ((N - 1) / 2) / norm


class TestSimplexSampler:
    def test_budget_constraint_always_holds(self):
        model = SimplexModel.uniform(8, L=10.0)
        xs = sample_simplex_batch(model, SeededRng(1, 0), 2000)
        assert (xs >= 0).all()
        assert (xs @ model.alpha <= model.L * (1 + 1e-12)).all()

    def test_over_budget_draw_raises(self):
        # a negative "exponential" shrinks the normalizing sum, so the draw
        # lands outside the polytope; the check must survive python -O
        class OverBudgetRng:
            def exponential(self, size):
                e = np.ones(size)
                e[:, -1] = -1.5
                return e

        with pytest.raises(FloatingPointError, match="budget polytope"):
            sample_simplex_batch(SimplexModel.uniform(3), OverBudgetRng(), 2)

    def test_largest_budget_draws_finite_coordinates(self):
        # every uniform is 1 - 2^-53, the largest the generator returns, so every
        # exponential is the largest a draw can see and L * E_e is the largest product
        class LargestUniformRng:
            def exponential(self, size):
                return -np.log1p(-np.full(size, 1.0 - 2.0**-53))

        assert LargestUniformRng().exponential(1)[0] == MAX_UNIT_EXPONENTIAL
        L = sys.float_info.max / MAX_UNIT_EXPONENTIAL
        while not math.isfinite(L * MAX_UNIT_EXPONENTIAL):
            L = math.nextafter(L, 0.0)
        while math.isfinite(math.nextafter(L, math.inf) * MAX_UNIT_EXPONENTIAL):
            L = math.nextafter(L, math.inf)
        with pytest.raises(ValueError, match="budget"):
            SimplexModel.uniform(3, L=math.nextafter(L, math.inf))
        x = sample_simplex_batch(SimplexModel.uniform(3, L=L), LargestUniformRng(), 2)
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
        ],
        ids=["unit-40", "unit-300", "decomposable", "ones-but-2", "ones-but-half", "L-not-N", "general-count-5",
             "unit-count-40", "row-symmetric"],
    )
    def test_simplex_batch(self, model, count):
        got = sample_simplex_batch(model, SeededRng(17, 3), count)
        assert np.array_equal(got, simplex_batch_reference(model, SeededRng(17, 3), count))

    @pytest.mark.parametrize("size", [None, 7, (3, 11)])
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


_CUTOFF = 2 * _MIN_SLICE  # the smallest draw two threads split


class TestSplitDraw:
    """A draw split across threads equals the one-thread draw, and leaves the same stream behind."""

    @pytest.mark.parametrize("prior", [0, 3], ids=["fresh", "mid-block"])
    @pytest.mark.parametrize(
        "size",
        [_CUTOFF - 4, _CUTOFF - 1, _CUTOFF, _CUTOFF + 1, _CUTOFF + 6, 3 * _MIN_SLICE + 3, (3, _MIN_SLICE + 5)],
    )
    def test_threads_give_the_same_bits(self, size, prior):
        draws = []
        for threads in (1, 2, 3):
            rng = SeededRng(8, 21, threads=threads)
            if prior:
                rng.uniform(prior)
            before = threading.active_count()
            e = rng.exponential(size)
            assert threading.active_count() == before
            draws.append((e, rng.uniform(7), rng.standard_normal(3)))
        (e1, u1, z1) = draws[0]
        assert e1.shape == np.empty(size).shape
        for e, u, z in draws[1:]:
            assert np.array_equal(e.view(np.uint64), e1.view(np.uint64))
            assert np.array_equal(u.view(np.uint64), u1.view(np.uint64))
            assert np.array_equal(z.view(np.uint64), z1.view(np.uint64))

    @pytest.mark.parametrize(
        "size, prior, threads, split",
        [
            (_CUTOFF, 0, 2, True),
            (_CUTOFF - 1, 0, 2, False),  # too small for two slices of _MIN_SLICE
            (3 * _MIN_SLICE, 0, 3, True),
            (_CUTOFF, 3, 2, False),  # part way through a Philox block
            (_CUTOFF, 4, 2, True),  # one whole block drawn before
            (_CUTOFF, 0, 1, False),
        ],
    )
    def test_when_a_draw_splits(self, size, prior, threads, split):
        rng = SeededRng(8, 21, threads=threads)
        if prior:
            rng.uniform(prior)
        assert (rng._split_exponential(size) is not None) == split


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
