"""Seeded samplers for the supported weight distributions.

Three families, all supported on the positive orthant with down-monotone
logconcave densities:

* uniform over the weighted simplex {x >= 0 : sum alpha_e x_e <= L},
* independent exponential coordinates (rates lambda_e) - the independent
  oracle whose threshold graph is exactly Erdos-Renyi,
* uniform over the orthant part of the Euclidean ball of radius R.

Simplex draws use the N+1-exponentials construction: with E_1..E_{N+1} iid
unit exponentials, y_e = L * E_e / (E_1 + ... + E_{N+1}) is uniform over
{y >= 0 : sum y <= L}, and x_e = y_e / alpha_e lands in the weighted simplex.
Rejection-free, O(N), and trivially seedable.

Exponential variates come from the inverse CDF -log1p(-U) on a counter-based
generator (Philox), so parallel trials split streams without state handoff.
The samplers work in place on the buffer the generator fills: every step
after the draw is one ufunc with ``out=``, so a draw at n=3000 (4.5e6
coordinates) touches one 36 MB array instead of one per arithmetic step.
The float operations and their order are those of the allocating formulas,
so the output is bit-identical to them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betainc, betaln

from ._numeric import pow_one_minus
from .model import MAX_UNIT_EXPONENTIAL, EdgeSpace, SimplexModel, WeightVector


class SeededRng:
    """Counter-based random stream keyed by (seed, stream).

    Identical (seed, stream) pairs reproduce identical draw sequences;
    distinct streams are statistically independent.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed % 2**64, self.stream % 2**64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, size=None):
        return self._gen.random(size)

    def exponential(self, size=None):
        """Unit exponentials -log1p(-U), computed in place on the fresh uniforms."""
        e = np.asarray(self._gen.random(size))
        np.negative(e, out=e)
        np.log1p(e, out=e)
        np.negative(e, out=e)
        return e if size is not None else e[()]  # one draw: a scalar, not a 0-d array

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)


def sample_simplex(model: SimplexModel, rng: SeededRng) -> WeightVector:
    """One uniform draw from the weighted simplex."""
    return WeightVector(model.space, sample_simplex_batch(model, rng, 1)[0])


def sample_simplex_batch(model: SimplexModel, rng: SeededRng, count: int) -> np.ndarray:
    """``count`` uniform draws, one per row; the fast path for experiments.

    The rows are the first N columns of the (count, N+1) exponentials buffer.
    """
    N = model.space.num_edges
    e = rng.exponential((count, N + 1))
    S = e.sum(axis=1, keepdims=True)
    # x = L * e / S / alpha on the first N columns of e, in that order
    x = e[:, :N]
    np.multiply(x, model.L, out=x)
    np.divide(x, S, out=x)
    if not model.unit_alpha:  # x / 1.0 == x
        np.divide(x, model.alpha, out=x)
    # einsum stays on one thread; a BLAS matrix-vector product here spins
    # idle threads that compete with the other trial workers.
    budget = np.einsum("ij,j->i", x, model.alpha)
    if not budget.max() <= model.L * (1 + 1e-12):
        raise FloatingPointError(f"simplex draw left the budget polytope: {budget.max()!r} > L={model.L!r}")
    return x


_MAX_RADIUS = sys.float_info.max / 2.0**64


@dataclass(frozen=True)
class DensityModel:
    """One of the supported weight densities plus its per-axis moment data.

    Both moment conventions are exposed: ``second_moment`` is E(X_e^2) (the
    scaling quantity), ``std_dev`` the usual standard deviation (the quantity
    the one-dimensional bound checks are stated in).  ``sigma_min``/``sigma_max``
    follow the second-moment convention.

    Every family is a scale family per axis: X_e / scale(e) has a law that
    depends on N alone, with scale L / alpha_e (simplex), 1 / rate_e
    (exponential) or the radius (ball).  The moments are formed from that
    scale and the unit law's moments in Python floats, so each overflows only
    where its value exceeds the largest double.
    """

    kind: str
    space: EdgeSpace
    simplex: SimplexModel | None = None
    rates: np.ndarray | None = None
    radius: float | None = None

    @classmethod
    def from_simplex(cls, model: SimplexModel) -> "DensityModel":
        return cls("simplex", model.space, simplex=model)

    @classmethod
    def product_exponential(cls, rates, space: EdgeSpace) -> "DensityModel":
        """Coordinate e ~ Exp(rates[e]); each rate is finite, and positive with MAX_UNIT_EXPONENTIAL / rate finite.

        Edge e is then kept below p with probability 1 - exp(-rates[e] p), independently.
        """
        lam = np.broadcast_to(np.asarray(rates, dtype=float), (space.num_edges,)).copy()
        lo, hi = float(lam.min()), float(lam.max())
        if not (0 < lo <= hi < math.inf and math.isfinite(MAX_UNIT_EXPONENTIAL / lo)):
            raise ValueError(f"exponential rates must be finite and positive with a finite draw, got [{lo:g}, {hi:g}]")
        lam.flags.writeable = False
        return cls("exponential", space, rates=lam)

    @classmethod
    def orthant_ball(cls, radius: float, space: EdgeSpace) -> "DensityModel":
        """Uniform over {x >= 0 : ||x||_2 <= R}; ``radius`` is positive with radius * 2^64 finite.

        A draw is a uniform point in the full ball (Gaussian direction scaled
        by R * U^(1/N)) reflected into the orthant, which is valid because the
        ball's uniform density is unchanged by coordinate sign flips.  It
        divides the radius by the norm of a standard normal vector, which
        falls below 2^-64 with probability under 1e-19.
        """
        if not 0 < radius <= _MAX_RADIUS:
            raise ValueError(f"radius must be positive and at most {_MAX_RADIUS:.4g}, got {radius}")
        return cls("ball", space, radius=float(radius))

    # --- sampling -----------------------------------------------------------

    def sample(self, rng: SeededRng) -> WeightVector:
        if self.kind == "simplex":
            return sample_simplex(self.simplex, rng)
        N = self.space.num_edges
        if self.kind == "exponential":
            e = rng.exponential(N)
            return WeightVector(self.space, np.divide(e, self.rates, out=e))
        g = rng.standard_normal(N)
        u = float(rng.uniform())
        scale = self.radius * u ** (1.0 / N) / np.linalg.norm(g)
        np.abs(g, out=g)
        return WeightVector(self.space, np.multiply(g, scale, out=g))

    # --- per-axis moments ----------------------------------------------------

    def _scale(self, e: int) -> float:
        """The scale of coordinate e: L / alpha_e, 1 / rate_e or the radius."""
        if self.kind == "simplex":
            return self.simplex.L / float(self.simplex.alpha[e])
        if self.kind == "exponential":
            return 1.0 / float(self.rates[e])
        return self.radius

    def _unit_moments(self) -> tuple[float, float]:
        """E(Y) and E(Y^2) of Y = X_e / scale(e), a law that depends on N alone."""
        N = self.space.num_edges
        if self.kind == "simplex":
            return 1.0 / (N + 1), 2.0 / ((N + 1) * (N + 2))
        if self.kind == "exponential":
            return 1.0, 2.0
        return 2.0 / ((N + 1) * _half_beta(N)), 1.0 / (N + 2)

    def second_moment(self, e: int) -> float:
        """E(X_e^2), infinite only where it exceeds the largest double.

        Simplex: 2 L^2 / (alpha_e^2 (N+1)(N+2)), the value consistent with the
        exact marginal law 1 - (1 - alpha_e p / L)^N: the density of X_e is
        N (alpha_e / L) (1 - alpha_e x / L)^(N-1).
        """
        s = self._scale(e)
        if self.kind == "simplex":  # the rounding of the value ``oracle`` prints
            N = self.space.num_edges
            return 2.0 * (s / (N + 1)) * (s / (N + 2))
        return s * (s * self._unit_moments()[1])

    def mean(self, e: int) -> float:
        return self._scale(e) * self._unit_moments()[0]

    def std_dev(self, e: int) -> float:
        m1, m2 = self._unit_moments()
        return self._scale(e) * math.sqrt(m2 - m1 * m1)

    def mode_value(self, e: int) -> float:
        """Maximum of the 1-D marginal density (attained at 0 for all kinds)."""
        N = self.space.num_edges
        if self.kind == "simplex":
            m = self.simplex
            return N * m.alpha[e] / m.L
        if self.kind == "exponential":
            return float(self.rates[e])
        return 2.0 / (self.radius * _half_beta(N))

    @property
    def sigma_min(self) -> float:
        return math.sqrt(min(self.second_moment(e) for e in self._axis_probe()))

    @property
    def sigma_max(self) -> float:
        return math.sqrt(max(self.second_moment(e) for e in self._axis_probe()))

    def _axis_probe(self):
        if self.kind == "simplex":
            return [int(np.argmin(self.simplex.alpha)), int(np.argmax(self.simplex.alpha))]
        if self.kind == "exponential":
            return [int(np.argmin(self.rates)), int(np.argmax(self.rates))]
        return [0]


@lru_cache(maxsize=64)
def _half_beta(N: int) -> float:
    """B(1/2, (N+1)/2), the normalizer of the ball's 1-D marginal."""
    return math.exp(betaln(0.5, (N + 1) / 2.0))


def marginal_cdf(model: DensityModel, e: int, p: float) -> float:
    """Exact CDF of coordinate e at p.

    simplex      1 - (1 - alpha_e p / L)^N, clamped to 1 once alpha_e p >= L
    exponential  1 - exp(-lambda_e p)
    ball         regularized incomplete beta I_{(p/R)^2}(1/2, (N+1)/2)
    """
    if not p >= 0:
        raise ValueError(f"threshold must be non-negative, got {p}")
    N = model.space.num_edges
    if model.kind == "simplex":
        m = model.simplex
        return 1.0 - pow_one_minus(m.alpha[e] * p / m.L, N)
    if model.kind == "exponential":
        return -math.expm1(-model.rates[e] * p)
    x = min((p / model.radius) ** 2, 1.0)
    return float(betainc(0.5, (N + 1) / 2.0, x))
