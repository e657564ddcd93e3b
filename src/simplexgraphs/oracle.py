"""Exact closed-form probabilities for the weighted-simplex model.

These are the ground truth every sampler and experiment is validated against.
The central identity: for a coordinate set S,

    P(no coordinate of S falls at or below p) = (1 - alpha(S) p / L)^N,

clamped to 0 once alpha(S) p >= L.  The marginal edge probability, the
isolation profile and the connectivity threshold p_0 are derived from it.
The spanning-tree series for decomposable coefficients is one sum over the
count vectors of the distinct factor values (the 2^n subsets when every
factor is distinct), capped at SERIES_MAX_TERMS vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._numeric import pow_one_minus
from .errors import CapacityError
from .model import DecomposableWeights, SimplexModel
from .samplers import DensityModel, marginal_cdf


def _check_threshold(p: float) -> None:
    # pow_one_minus clamps anything not below 1 to 0, NaN included, so a bad
    # threshold must be stopped before it reaches the formula.
    if not 0 <= p < math.inf:
        raise ValueError(f"threshold must be finite and non-negative, got {p}")


def _distinct_indices(edges) -> np.ndarray:
    idx = np.asarray(edges, dtype=np.int64).ravel()
    if idx.size != np.unique(idx).size:
        raise ValueError("coordinate set contains duplicates")
    return idx


def prob_all_absent(model: SimplexModel, S, p: float) -> float:
    """P(no coordinate of S at or below p) = (1 - alpha(S) p / L)^N.

    Depends on S only through alpha(S); empty S gives 1.
    """
    _check_threshold(p)
    idx = _distinct_indices(S)
    if idx.size == 0:
        return 1.0
    a_s = model.alpha_sum(idx)
    return pow_one_minus(a_s * p / model.L, model.space.num_edges)


@dataclass(frozen=True)
class AbsencePresenceEstimate:
    """Leading-order value with a multiplicative honesty bracket."""

    value: float
    lower: float
    upper: float

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


def prob_absent_present(model: SimplexModel, S, T, p: float) -> AbsencePresenceEstimate:
    """Leading-order P(S all absent, T all present) with explicit error bracket.

    Value: (prod_{e in T} alpha_e) (N p / L)^|T| (1 - alpha(S) p / L)^N.
    The estimate is asymptotic (valid when |T| is small and alpha(T) N p = o(L));
    the bracket multiplies by exp(+-2(|T|^2/N + alpha(T) N p / L + alpha(S)|T| p / L))
    so assertions against it stay honest at finite size.
    """
    _check_threshold(p)
    s_idx = _distinct_indices(S)
    t_idx = _distinct_indices(T)
    if np.intersect1d(s_idx, t_idx).size:
        raise ValueError("S and T must be disjoint coordinate sets")
    N = model.space.num_edges
    L = model.L
    a_s = model.alpha_sum(s_idx) if s_idx.size else 0.0
    a_t = model.alpha_sum(t_idx) if t_idx.size else 0.0
    t = t_idx.size
    value = float(np.prod(model.alpha[t_idx])) * (N * p / L) ** t * pow_one_minus(a_s * p / L, N)
    margin = 2.0 * (t * t / N + a_t * N * p / L + a_s * t * p / L)
    return AbsencePresenceEstimate(value, value * math.exp(-margin), value * math.exp(margin))


def _require_all_ones(model: SimplexModel):
    if not model.unit_alpha:
        raise ValueError("this closed form is specific to all-ones coefficients")


def edge_prob_q(model: SimplexModel, p: float) -> float:
    """q = P(single coordinate <= p) = 1 - (1 - p/L)^N for the all-ones model."""
    _require_all_ones(model)
    _check_threshold(p)
    return 1.0 - pow_one_minus(p / model.L, model.space.num_edges)


def expected_edge_count(model: SimplexModel, p: float) -> float:
    """E(m) = q N."""
    return edge_prob_q(model, p) * model.space.num_edges


def edge_count_variance_bound(model: SimplexModel, p: float) -> float:
    """Upper bound q N on Var(edge count) for the all-ones model."""
    return expected_edge_count(model, p)


@dataclass(frozen=True)
class IsolationProfile:
    """Per-vertex isolation probabilities xi_v(p) = (1 - alpha_v p / L)^N."""

    model: SimplexModel

    def xi(self, p: float) -> np.ndarray:
        _check_threshold(p)
        av = self.model.vertex_alphas()
        # a ratio past the largest double is inf, and pow_one_minus clamps it to xi = 0, the exact value
        with np.errstate(over="ignore"):
            ratio = av * p / self.model.L
        return pow_one_minus(ratio, self.model.space.num_edges)

    def total(self, p: float) -> float:
        """Expected number of isolated vertices, sum_v xi_v(p)."""
        return float(self.xi(p).sum())


def solve_p0(model: SimplexModel) -> float:
    """The threshold p_0 with sum_v xi_v(p_0) = 1, by bisection.

    The total is strictly decreasing from n (> 1 at p=0) to 0 (once every
    alpha_v p >= L), so bisection over [0, L / min alpha_v] is unconditionally
    safe.  Runs to 1e-14 relative width (200-iteration cap); the residual
    |sum xi - 1| lands well below 1e-9 for any sane model.
    """
    profile = IsolationProfile(model)
    av = model.vertex_alphas()
    lo, hi = 0.0, model.L / float(av.min())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if profile.total(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return 0.5 * (lo + hi)


def sigma_simplex(model: SimplexModel, e: int) -> float:
    """Second moment of coordinate e, 2 L^2 / (alpha_e^2 (N+1)(N+2)) (see ``DensityModel.second_moment``).

    Scales as alpha_e^{-2} and approaches 2 (L/N)^2 asymptotically.
    """
    return DensityModel.from_simplex(model).second_moment(e)


# --- spanning-tree series ----------------------------------------------------
#
# The expected minimum spanning tree weight under decomposable coefficients
# approaches
#
#     sum_{k>=1} (k-1)! / D^k  *  sum_{|S|=k} (prod_{v in S} d_v) / d_S^2,
#
# which collapses to sum 1/k^3 = zeta(3) when every d_v = 1.  A subset's term
# depends only on how many vertices it takes of each distinct factor value, so
# with value v_i held by c_i vertices the subsets group into count vectors
# (k_1..k_r), 0 <= k_i <= c_i, weighted by prod C(c_i, k_i).  With every
# factor distinct (each c_i = 1) the vectors are the 2^n subsets themselves.

SERIES_MAX_TERMS = 1 << 24  # most count vectors the series sums


def mst_series(weights: DecomposableWeights) -> float:
    """The spanning-tree series as one sum over the prod(c_i + 1) - 1 non-zero count vectors.

    The vector k, with K = sum k_i, adds
    exp(log (K-1)! - K log D + sum_i [log C(c_i, k_i) + k_i log v_i] - 2 log sum_i k_i v_i).
    The vectors are enumerated by mixed radix: the leading counts form one
    block of columns (at most 2^16 vectors, or the largest count alone), each
    choice of the other counts shifts the block, and the sum runs 2^16
    columns at a time.  More than SERIES_MAX_TERMS vectors is a
    CapacityError, raised before any array is built.
    """
    from scipy.special import gammaln

    values, counts = weights.distinct()
    n_vectors = math.prod(int(c) + 1 for c in counts)
    if n_vectors - 1 > SERIES_MAX_TERMS:
        raise CapacityError(
            f"the spanning-tree series over {len(values)} distinct factor values at n={weights.n}"
            f" needs more than {SERIES_MAX_TERMS} count vectors"
        )
    # one row triple per value, largest count first: k = 0..c, log C(c, k) + k log v, and k v;
    # log C(c, k) is the running sum of log(c - j) over j < k, less log k!, since a
    # difference of lgamma values near c log c would cancel to about c log c 2^-53
    tables = []
    for i in np.argsort(-counts, kind="stable"):
        k = np.arange(counts[i] + 1.0)
        log_binomial = np.concatenate(([0.0], np.cumsum(np.log(counts[i] - k[:-1])))) - gammaln(k + 1.0)
        tables.append(np.stack([k, log_binomial + k * math.log(values[i]), k * values[i]]))
    block = np.zeros((3, 1))
    while tables and (block.shape[1] == 1 or block.shape[1] * tables[0].shape[1] <= 1 << 16):
        block = (block[:, None, :] + tables.pop(0)[:, :, None]).reshape(3, -1)
    log_d_total = math.log(counts @ values)  # D from the sorted distinct values, whatever the order of d
    total = 0.0
    skip = 1  # the zero vector heads the first block
    for columns in itertools.product(*(t.T for t in tables)):
        shift = sum(columns, np.zeros(3))[:, None]
        for start in range(skip, block.shape[1], 1 << 16):
            k, log_w, dot = block[:, start : start + (1 << 16)] + shift
            total += float(np.exp(gammaln(k) - k * log_d_total + log_w - 2.0 * np.log(dot)).sum())
        skip = 0
    return total


# --- one-dimensional density bounds ------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    p: float
    cdf: float
    upper: float  # p * M_f
    lower: float  # p * M_f / 2
    upper_ok: bool
    lower_ok: bool
    skipped: bool
    note: str = ""


def check_basic_bounds(model: DensityModel, e: int, grid) -> list[BoundCheck]:
    """Check p*M_f/2 <= P(X_e <= p) <= p*M_f at each grid point.

    M_f is the exact mode value of the 1-D marginal (attained at 0 for every
    supported kind).  The lower bound is only guaranteed up to the marginal's
    standard deviation, so larger grid points are reported but skipped.
    """
    mode_value = model.mode_value(e)
    sd = model.std_dev(e)
    out = []
    for p in np.asarray(grid, dtype=float):
        cdf = marginal_cdf(model, e, float(p))
        upper = p * mode_value
        lower = 0.5 * p * mode_value
        if p > sd:
            out.append(BoundCheck(float(p), cdf, upper, lower, cdf <= upper + 1e-12, True, True,
                                  "p exceeds the marginal sd; lower bound not guaranteed"))
        else:
            out.append(BoundCheck(float(p), cdf, upper, lower,
                                  cdf <= upper + 1e-12, cdf >= lower - 1e-12, False))
    return out
