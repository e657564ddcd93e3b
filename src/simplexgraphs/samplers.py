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

Exponential variates come from the inverse CDF -log1p(-U) on numpy's
PCG64DXSM generator, keyed per trial by ``SeedSequence([seed, stream])``, so
parallel trials draw from independent streams without state handoff.
The dense samplers work in place on the buffer the generator fills: every
step after the draw is one ufunc with ``out=``.  The float operations and
their order are those of the allocating formulas in ``tests/brutes.py``, so
the output is bit-identical to them.

Every exponential draw is drawn leaf by leaf: the leaves are the nodes of
numpy's pairwise-sum tree over the draw that hold at most ``_LEAF`` values
(``_tree_leaves``), so a leaf stays in a core's cache through its fill and
transform, and the leaves' sums add along the tree to the whole draw's sum
bit for bit (``_tree_sum``).  A draw may use more than one thread:
``SeededRng(..., threads=k)`` cuts its leaves into min(k, leaves)
contiguous runs, each drawn on its own thread by a copy of the generator
advanced to the run's first value.  The numbers and the stream left after
the draw equal the one-thread draw's, so no output depends on k.  By
default k is the CPU count, so a draw outside a sweep (the CLI ``sample``
command, a library call) uses as many threads as a one-worker sweep; the
sweep harness passes ``cpu_count // workers`` (at least 1).  The threads
start and end inside the draw.  The dense draw (``SeededRng.exponential``)
fills each leaf in place in its output.

A thresholded trial never holds the N+1 exponentials, let alone X
(``DensityModel.threshold_draw``).  It streams the draw
(``SeededRng.exponential_leaves``): each run's thread draws its leaves into
one buffer row it reuses, sums each leaf, and keeps the (index, E) pairs at
or below a level.  x_e = L * E_e / S / alpha_e (simplex) or E_e / rate_e
(exponential) is monotone in E_e, so a level a hair above p * S / L *
alpha_max (or p * rate_max) keeps every coordinate of the graph, and x is
formed on the kept pairs alone by the dense draw's own weight step.  IEEE
multiply and divide round an element the same way on a subset as on the
whole array, so the graph equals ``threshold(sample(rng), p)`` bit for bit.
The level is checked on every draw; the simplex level needs S, so the
threads keep the pairs below the level at a bound S_hi that S exceeds with
odds under 1e-27.  Where a check fails, or S > S_hi, the trial is the dense
draw from the same stream.  Both simplex paths pass one exact budget check
before any weight is formed.  Only ``mst``, ``marginals``, ``atsp`` and the
ball draw the dense ``sample``.
"""

from __future__ import annotations

import ctypes
import math
import os
import sys
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial
from typing import NamedTuple, TypeVar

import numpy as np
import numpy.random  # numpy 2 loads it lazily; imported here, forked pool workers inherit it

from ._numeric import pow_one_minus
from .model import (
    MAX_UNIT_EXPONENTIAL,
    EdgeSpace,
    SimplexModel,
    ThresholdGraph,
    WeightVector,
    check_threshold,
    per_coordinate,
    threshold,
)

_T = TypeVar("_T")

# A leaf holds at most this many values, and a streamed draw holds one leaf
# at a time on each thread.  Leaves, cut on numpy's pairwise-sum tree, hold
# more than half of it: 384-768 KB, which stays in a core's L2 cache through
# the fill, the transform, the sum and the compare.
_LEAF = 3 << 15


# glibc's mmap and trim thresholds where its own dynamic rule ends once a
# 32 MiB block has been freed: M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD twice that
_HEAP_THRESHOLDS = ((-3, 32 << 20), (-1, 64 << 20))


@cache
def _pin_heap_thresholds() -> None:
    """Fix glibc's heap thresholds for this process, once, so each trial reuses the heap the last one freed.

    By default glibc raises both thresholds only when it frees a large
    mapped block, so a process that never frees one keeps them low and
    returns the heap a trial freed to the kernel, and the next trial faults
    it back in page by page: about 4,000 minor faults per ``diameter`` trial
    at (2000, 0.8) once the thresholded draw no longer holds its 16 MB
    buffer.  Pinned at the values the dynamic rule ends at, the heap stays
    at its high-water mark and no draw's output depends on it.  Every
    ``SeededRng`` calls it, so a sweep, a pool worker, the CLI and a library
    loop are all pinned.  A C library without ``mallopt`` is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _HEAP_THRESHOLDS:
        mallopt(param, value)


class SeededRng:
    """Random stream keyed by (seed, stream): PCG64DXSM seeded by ``SeedSequence([seed, stream])``.

    Both keys are taken mod 2^64.  Identical (seed, stream) pairs reproduce
    identical draw sequences; distinct streams under one seed are
    statistically independent.  ``threads`` caps how many threads one large
    exponential draw may use (default: the CPU count); any value gives
    the same numbers.  The first one made in a process pins the heap
    thresholds (``_pin_heap_thresholds``).
    """

    def __init__(self, seed: int, stream: int = 0, threads: int | None = None):
        _pin_heap_thresholds()
        self.seed = int(seed)
        self.stream = int(stream)
        self.threads = int(threads) if threads is not None else os.cpu_count() or 1
        key = np.random.SeedSequence([self.seed % 2**64, self.stream % 2**64])
        self._gen = np.random.Generator(np.random.PCG64DXSM(key))

    def uniform(self, size=None):
        return self._gen.random(size)

    def exponential(self, size) -> np.ndarray:
        """Unit exponentials -log1p(-U) of shape ``size``, filled in place leaf by leaf, on the threads of its runs."""
        out = np.empty(size)
        self._draw_leaves(out.size, out.reshape(-1))
        return out

    def exponential_leaves(self, count: int, work: Callable[[np.ndarray, int], _T]) -> list[_T]:
        """``[work(leaf, start)]`` over the ``_tree_leaves`` of ``exponential(count)``, in order, never holding the draw.

        Each run's thread draws its leaves one after another into one buffer
        row the size of the largest leaf, and calls ``work`` on each right
        after it is drawn; ``leaf`` is overwritten by the next, so ``work``
        copies what it keeps.  The numbers and the stream left behind are
        those of ``exponential(count)``.
        """
        return self._draw_leaves(count, None, work)

    def _draw_leaves(self, count: int, out: np.ndarray | None, work: Callable | None = None) -> list:
        """The one leaf loop: the ``_tree_leaves(0, count)``, each run of them on its thread, filled in order.

        A leaf is filled into ``out``, or, where ``out`` is None, into its
        thread's row and passed to ``work``.
        """
        leaves = _tree_leaves(0, count)
        runs = self._slice_generators(leaves)
        if out is None:  # one row per thread, allocated here
            rows = np.empty((len(runs), max(b - a for a, b in leaves)))

        def run(k: int, own: list[tuple[int, int]], gen: np.random.Generator) -> list:
            done = []
            for a, b in own:
                leaf = rows[k, : b - a] if out is None else out[a:b]
                self._fill(gen, leaf, a)
                if out is None:
                    done.append(work(leaf, a))
            return done

        parts = _on_threads([partial(run, k, *piece) for k, piece in enumerate(runs)])
        return [r for part in parts for r in part]

    def _fill(self, gen: np.random.Generator, leaf: np.ndarray, start: int) -> None:
        """leaf <- unit exponentials -log1p(-U) from ``gen``, in place: the draw's values from index ``start`` on.

        Every exponential a draw returns is made here, so a test can
        override it to serve chosen values.
        """
        gen.random(out=leaf)
        np.negative(leaf, out=leaf)
        np.log1p(leaf, out=leaf)
        np.negative(leaf, out=leaf)

    def _slice_generators(self, leaves: list[tuple[int, int]]) -> list[tuple[list, np.random.Generator]]:
        """The draw's ``leaves`` cut into min(threads, leaves) contiguous runs ``(leaves, generator)``, one per thread.

        Each double takes one PCG64DXSM output and ``advance(a)`` skips
        exactly a outputs, so the run that starts at value a is drawn by a
        copy of the generator advanced by a.  The generator itself draws the
        last run, and is moved to its start here, so its state after the
        draw is the one the one-thread draw leaves.
        """
        k = min(self.threads, len(leaves))
        if k <= 1:
            return [(leaves, self._gen)]
        runs = [leaves[i * len(leaves) // k : (i + 1) * len(leaves) // k] for i in range(k)]
        bitgen = self._gen.bit_generator
        state = bitgen.state

        def at(start: int) -> np.random.PCG64DXSM:
            # advance() also drops the half-used output of a 32-bit draw;
            # random() never reads it, but the next 32-bit draw does
            copy = np.random.PCG64DXSM()
            copy.state = state
            copy.advance(start)
            copy.state = {**copy.state, "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}
            return copy

        gens = [np.random.Generator(at(own[0][0])) for own in runs[:-1]]
        bitgen.state = at(runs[-1][0][0]).state
        return list(zip(runs, [*gens, self._gen]))

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)


def _tree_root(c: int) -> int:
    """Where numpy's pairwise sum cuts c > 128 contiguous doubles: the first half holds ``c//2 - (c//2) % 8``."""
    return c // 2 - (c // 2) % 8


def _tree_leaves(a: int, b: int, leaf: int = _LEAF) -> list[tuple[int, int]]:
    """The nodes of numpy's pairwise-sum tree over the node [a, b) that hold at most ``leaf`` values, in order.

    ``leaf`` is at least 128, so that a node the tree does not cut is not
    cut here either.
    """
    if b - a <= leaf:
        return [(a, b)]
    mid = a + _tree_root(b - a)
    return _tree_leaves(a, mid, leaf) + _tree_leaves(mid, b, leaf)


def _tree_sum(parts: list, count: int, leaf: int = _LEAF):
    """The sums of the ``_tree_leaves(0, count, leaf)``, added along the tree: ``e.sum()`` bit for bit."""
    sums = iter(parts)

    def fold(c: int):
        if c <= leaf:
            return next(sums)
        mid = _tree_root(c)
        return fold(mid) + fold(c - mid)

    return fold(count)


def _on_threads(tasks: list[Callable[[], _T]]) -> list[_T]:
    """``[task() for task in tasks]``, each on its own thread but the last, which runs on the calling thread.

    The helper threads start and end inside this call: none outlives it.
    """
    if len(tasks) == 1:
        return [tasks[0]()]
    with ThreadPoolExecutor(max_workers=len(tasks) - 1) as pool:
        helpers = [pool.submit(task) for task in tasks[:-1]]
        last = tasks[-1]()
        return [h.result() for h in helpers] + [last]


def sample_simplex(model: SimplexModel, rng: SeededRng) -> WeightVector:
    """One uniform draw from the weighted simplex."""
    return WeightVector(model.space, sample_simplex_batch(model, rng, 1)[0])


def sample_simplex_batch(model: SimplexModel, rng: SeededRng, count: int) -> np.ndarray:
    """``count`` uniform draws, one per row: the many-row form of ``sample_simplex``.

    The rows are the first N columns of the (count, N+1) exponentials buffer.
    """
    N = model.space.num_edges
    e = rng.exponential((count, N + 1))
    S = e.sum(axis=1, keepdims=True)
    _check_budget(S, e[:, N])
    return _simplex_weights(model, e[:, :N], S, slice(None))


def _simplex_weights(model: SimplexModel, x: np.ndarray, S, cols) -> np.ndarray:
    """x = L * x / S / alpha[cols] in place, in that order: the weight step of every simplex draw.

    ``x`` holds the exponentials of coordinates ``cols``: every one in the
    dense draw, the candidates in ``DensityModel.threshold_draw``.
    """
    np.multiply(x, model.L, out=x)
    np.divide(x, S, out=x)
    if not model.unit_alpha:  # x / 1.0 == x
        np.divide(x, model.alpha[cols], out=x)
    return x


def _check_budget(S, slack) -> None:
    """Refuse a simplex draw outside the budget polytope, before any weight is formed.

    ``S`` holds each row's sum of its N+1 exponentials and ``slack`` its last
    one, E_N.  With every E >= 0 the budget sum_e alpha_e x_e = L (S - E_N) / S
    is at most L exactly when E_N >= 0, so the check is exact, not toleranced:
    0 < S < inf and E_N >= 0 on every row, else FloatingPointError naming
    the first row that fails.
    """
    S, slack = np.ravel(S), np.ravel(slack)
    ok = (0 < S) & (S < math.inf) & (slack >= 0)
    if not ok.all():
        i = np.argmin(ok)  # the first False
        raise FloatingPointError(f"simplex draw left the budget polytope: S={float(S[i])!r}, slack={float(slack[i])!r}")


# The candidate level's relative margin over p * S / L * alpha_max; see
# ``_candidate_level``.
_LEVEL_MARGIN = 1e-12


def _sum_bound(k: int) -> float:
    """S_hi for a sum S of k unit exponentials: k + 12 sqrt(k) + 50.

    S ~ Gamma(k, 1) exceeds it with odds below 5e-28 (k = 1), and below
    2e-33 from k = 100 up.
    """
    return k + 12.0 * math.sqrt(k) + 50.0


def _candidate_level(level: float, weight: Callable[[float], float], p: float) -> float:
    """``level`` raised by ``_LEVEL_MARGIN``, or inf where that does not verifiably cover p.

    ``weight(E)`` is the smallest weight any coordinate forms from the
    exponential E (the same ufuncs in the same order, divided by the largest
    alpha or rate).  Each rounding step is monotone in E and a larger
    divisor never gives a larger quotient, so once ``weight`` of the double
    just above the returned level exceeds p, every coordinate whose
    exponential lies above the level weighs more than p.  The check runs
    on every draw; δ is only what makes it pass.

    In the normal range δ needs to cover about 7 roundings of relative size
    2^-53: three in the level (``p * S``, ``/ L``, ``* alpha_max``), three in
    the weight, one in ``* (1 + δ)``, so about 8e-16.  ``_LEVEL_MARGIN`` =
    1e-12 is over 1000 times that, and lifts the level past an expected
    1e-12 times the kept count of coordinates that weigh more than p.
    Where ``p * S / L`` or the weight near p is subnormal (or p is 0),
    rounding errors are absolute, not relative, and the check may fail; the
    level is then inf, and ``DensityModel.threshold_draw`` thresholds the
    dense sample.  An overflowing level is inf as well.
    """
    level *= 1 + _LEVEL_MARGIN
    return level if weight(math.nextafter(level, math.inf)) > p else math.inf


def _keep_below(level: float, stop: int, leaf: np.ndarray, start: int) -> tuple:
    """One leaf's sum, its last value, and the (index, E) pairs of its values with index < ``stop`` and E <= level."""
    idx = np.flatnonzero(leaf[: stop - start] <= level)
    e = leaf[idx]
    idx += start
    return leaf.sum(), leaf[-1], idx, e


_MAX_RADIUS = sys.float_info.max / 2.0**64


class _UnitLaw(NamedTuple):
    """The law of Y = X_e / scale(e): E(Y), E(Y^2), the density of Y at 0 and the CDF of Y."""

    mean: float
    second_moment: float
    density_at_0: float
    cdf: Callable[[float], float]


@lru_cache(maxsize=64)
def _unit_law(kind: str, N: int) -> _UnitLaw:
    if kind == "simplex":  # Y ~ Beta(1, N): density N (1 - y)^(N-1)
        return _UnitLaw(1.0 / (N + 1), 2.0 / ((N + 1) * (N + 2)), float(N), lambda y: 1.0 - pow_one_minus(y, N))
    if kind == "exponential":  # Y ~ Exp(1)
        return _UnitLaw(1.0, 2.0, 1.0, lambda y: -math.expm1(-y))
    # Y is a coordinate of a uniform point in the unit N-ball's orthant:
    # Y^2 ~ Beta(1/2, (N+1)/2), density 2 (1 - y^2)^((N-1)/2) / B(1/2, (N+1)/2)
    from scipy.special import betainc, betaln

    b = math.exp(betaln(0.5, (N + 1) / 2.0))
    return _UnitLaw(
        2.0 / ((N + 1) * b), 1.0 / (N + 2), 2.0 / b, lambda y: float(betainc(0.5, (N + 1) / 2.0, min(y**2, 1.0)))
    )


@dataclass(frozen=True)
class DensityModel:
    """One of the supported weight densities plus its per-axis laws.

    Both moment conventions are exposed: ``second_moment`` is E(X_e^2) (the
    scaling quantity), ``std_dev`` the usual standard deviation (the quantity
    the one-dimensional bound checks are stated in).  ``sigma_min``/``sigma_max``
    follow the second-moment convention.

    Every family is a scale family per axis: Y = X_e / scale(e) has a law that
    depends on N alone, with scale L / alpha_e (simplex), 1 / rate_e
    (exponential) or the radius (ball).  Every per-axis value is that unit
    law applied to the scale, in Python floats, so each overflows only where
    its value exceeds the largest double.
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
        A constant rate is stored once (``per_coordinate``).
        """
        lam = np.asarray(rates, dtype=float)
        lo, hi = float(lam.min()), float(lam.max())
        if not (0 < lo <= hi < math.inf and math.isfinite(MAX_UNIT_EXPONENTIAL / lo)):
            raise ValueError(f"exponential rates must be finite and positive with a finite draw, got [{lo:g}, {hi:g}]")
        return cls("exponential", space, rates=per_coordinate(lam, space.num_edges))

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

    def threshold_draw(self, rng: SeededRng, p: float) -> ThresholdGraph:
        """``threshold(self.sample(rng), p)``: the same graph bit for bit, and the same stream left behind.

        The simplex and exponential families stream what ``sample`` draws
        (``SeededRng.exponential_leaves``) and keep from it only the leaves'
        sums and the (index, E) pairs at or below a level ``hi`` that covers
        the family's level (``_candidate_level``).  The exponential family
        knows its level before it draws.  The simplex level grows with the
        sum S, which is known only after the draw, so ``hi`` is the level at
        ``S_hi`` (``_sum_bound``); every rounding step is monotone, so it
        covers the level whenever S <= S_hi.  Weights are formed, with the
        family's weight step ``_weights``, only on the pairs at or below the
        level; a negative or NaN one is the ValueError ``WeightVector``
        raises.  Where a level is inf, or S > S_hi, the draw is the dense
        one: the stream is put back where it was and the trial returns
        ``threshold(self.sample(rng), p)``, as the ball always does.
        """
        if self.kind == "ball":
            return threshold(self.sample(rng), p)
        check_threshold(self.space, p)
        N = self.space.num_edges
        if self.kind == "simplex":
            L, alpha_max = self.simplex.L, self.simplex.alpha_max
            S_hi = _sum_bound(N + 1)
            hi = _candidate_level(p * S_hi / L * alpha_max, lambda E: E * L / S_hi / alpha_max, p)
        else:
            rate_max = self._rate_max
            hi = _candidate_level(p * rate_max, lambda E: E / rate_max, p)
        if hi == math.inf:
            return threshold(self.sample(rng), p)
        saved = rng._gen.bit_generator.state
        leaves = rng.exponential_leaves(N + (self.kind == "simplex"), partial(_keep_below, hi, N))
        S = None
        if self.kind == "simplex":
            S = float(_tree_sum([leaf[0] for leaf in leaves], N + 1))
            _check_budget(S, leaves[-1][1])
            level = _candidate_level(p * S / L * alpha_max, lambda E: E * L / S / alpha_max, p)
            if not S <= S_hi or level == math.inf:
                rng._gen.bit_generator.state = saved
                return threshold(self.sample(rng), p)
        # weights on each leaf's pairs; those above the level weigh more than p, so ``<= p`` drops them
        inside = []
        for _, _, idx, e in leaves:
            x = self._weights(e, S, idx)
            if x.size and not x.min() >= 0:  # min propagates NaN
                raise ValueError("weights must be non-negative numbers")
            inside.append(x <= p)
        counts = [np.count_nonzero(mask) for mask in inside]
        kept = np.empty(sum(counts), dtype=np.int64)
        at = 0
        for (_, _, idx, _), mask, c in zip(leaves, inside, counts):
            np.compress(mask, idx, out=kept[at : at + c])
            at += c
        del leaves, inside  # before the graph allocates its endpoints
        return ThresholdGraph(self.space.n, kept)

    def _weights(self, x: np.ndarray, S: float | None, cols) -> np.ndarray:
        """The weights of coordinates ``cols`` from their exponentials ``x``, in place: the family's one weight step."""
        if self.kind == "simplex":
            return _simplex_weights(self.simplex, x, S, cols)
        return np.divide(x, self.rates[cols], out=x)

    @cached_property
    def _rate_max(self) -> float:
        return float(self.rates.max())

    def sample(self, rng: SeededRng) -> WeightVector:
        if self.kind == "simplex":
            return sample_simplex(self.simplex, rng)
        N = self.space.num_edges
        if self.kind == "exponential":
            return WeightVector(self.space, self._weights(rng.exponential(N), None, slice(None)))
        g = rng.standard_normal(N)
        u = float(rng.uniform())
        scale = self.radius * u ** (1.0 / N) / np.linalg.norm(g)
        np.abs(g, out=g)
        return WeightVector(self.space, np.multiply(g, scale, out=g))

    # --- per-axis laws -------------------------------------------------------

    def _scale(self, e: int) -> float:
        """The scale of coordinate e: L / alpha_e, 1 / rate_e or the radius."""
        if not 0 <= e < self.space.num_edges:
            raise ValueError(f"edge index {e} out of range for N={self.space.num_edges}")
        if self.kind == "simplex":
            return self.simplex.L / float(self.simplex.alpha[e])
        if self.kind == "exponential":
            return 1.0 / float(self.rates[e])
        return self.radius

    def _unit(self) -> _UnitLaw:
        return _unit_law(self.kind, self.space.num_edges)

    def mean(self, e: int) -> float:
        return self._scale(e) * self._unit().mean

    def second_moment(self, e: int) -> float:
        """E(X_e^2), infinite only where it exceeds the largest double."""
        s = self._scale(e)
        return s * (s * self._unit().second_moment)

    def std_dev(self, e: int) -> float:
        law = self._unit()
        return self._scale(e) * math.sqrt(law.second_moment - law.mean * law.mean)

    def mode_value(self, e: int) -> float:
        """Maximum of the 1-D marginal density (attained at 0 for all kinds)."""
        return self._unit().density_at_0 / self._scale(e)

    def marginal_cdf(self, e: int, p: float) -> float:
        """Exact CDF of coordinate e at p: the unit law's CDF at p / scale(e).

        simplex      1 - (1 - alpha_e p / L)^N, 1 once alpha_e p >= L
        exponential  1 - exp(-lambda_e p)
        ball         regularized incomplete beta I_{(p/R)^2}(1/2, (N+1)/2)
        """
        s = self._scale(e)
        if not p >= 0:
            raise ValueError(f"threshold must be non-negative, got {p}")
        return self._unit().cdf(p / s)

    @property
    def sigma_min(self) -> float:
        return math.sqrt(min(self.second_moment(e) for e in self._axis_probe()))

    @property
    def sigma_max(self) -> float:
        return math.sqrt(max(self.second_moment(e) for e in self._axis_probe()))

    def _axis_probe(self):
        if self.kind == "ball":
            return [0]
        values = self.rates if self.simplex is None else self.simplex.alpha
        return [int(np.argmin(values)), int(np.argmax(values))]


# ``marginal_cdf(model, e, p)``, the name the package exports
marginal_cdf = DensityModel.marginal_cdf
