"""Seeded Monte Carlo harness: configs, sweeps, CSV output, named experiments.

Every trial is reproducible in isolation: trial (p_index, t) draws from
stream ``p_index * 2^32 + t`` under the config's base seed (a PCG64DXSM
generator keyed by ``SeedSequence([seed, stream])``, see ``SeededRng``), so
results are byte-identical regardless of worker count or scheduling order.
Model-level randomness (e.g. random bounded coefficients) uses a reserved
stream of its own.

CSV contract: one header row naming every column, one trial per line, then
summary lines prefixed ``#summary,`` carrying empirical frequencies or means
with Wilson 95% intervals where applicable.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields

import numpy as np

from . import graphs, oracle
from .atsp import HELD_KARP_MAX_N, held_karp, hungarian, patch, row_symmetric_model, sample_row_symmetric
from .errors import CapacityError, ConfigError
from .model import DecomposableWeights, EdgeSpace, SimplexModel
from .samplers import DensityModel, SeededRng, marginal_cdf

MODEL_KINDS = ("simplex", "exponential", "ball")
P_MODES = ("explicit", "clogn", "p0eps", "theta")

_ALPHA_STREAM = 1 << 48  # reserved stream for model-coefficient randomness

# the sweep kinds and the extra CSV columns each writes after ``outcome``
AUX_COLUMNS = {
    "connectivity": ("kappa", "edges"),
    "matching": ("edges",),
    "giant": ("kappa", "edges"),
    "diameter": ("edges",),
    "hamilton": ("edges",),
    "mst": (),
    "atsp": ("tour_cost", "assignment_cost", "cycles", "optimal_cost"),
    "moments": (),
    "marginals": ("value",),
}
KINDS = tuple(AUX_COLUMNS)

_BOOL_KINDS = ("connectivity", "matching", "hamilton", "marginals")


@contextmanager
def _config_errors():
    """Report a model type's parameter check, a ValueError, as a one-line ConfigError.

    ``EdgeSpace`` checks n, ``SimplexModel`` alpha and L, ``DensityModel`` rate and radius.
    """
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    n: int
    trials: int
    seed: int
    model: str = "simplex"
    alpha: str = "ones"
    L: float | None = None
    rate: float = 1.0
    radius: float = 1.0
    p_mode: str = "explicit"
    p_values: tuple[float, ...] = ()
    c_values: tuple[float, ...] = ()
    eps: float | None = None
    theta: float | None = None
    beta: str = "ones"
    edge: int = 0
    workers: int = 1
    out: str | None = None

    def __post_init__(self) -> None:
        """Every config that exists is valid; alpha, L, rate, radius and beta are checked by the model built."""
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.model!r}")
        with _config_errors():
            space = EdgeSpace(self.n)
        # trial_stream packs (p_index, trial) into p_index * 2^32 + trial, which stays one
        # stream per trial, and below _ALPHA_STREAM = 2^48, for trial < 2^32 and p_index < 2^16
        if not 0 <= self.trials < 1 << 32:
            raise ConfigError(f"trials must be non-negative and below 2^32, got {self.trials}")
        if max(len(self.p_values), len(self.c_values)) >= 1 << 16:
            raise ConfigError("a p or c schedule has at most 2^16 - 1 points")
        cpus = os.cpu_count() or 1
        if not 1 <= self.workers <= cpus:
            raise ConfigError(f"workers must be between 1 and the CPU count {cpus}, got {self.workers}")
        if self.kind == "matching" and self.n % 2:
            raise ConfigError("perfect-matching experiments need even n")
        if self.kind == "hamilton" and self.n > graphs.HAMILTON_MAX_N:
            raise CapacityError(f"Hamiltonicity experiments capped at n={graphs.HAMILTON_MAX_N}, got n={self.n}")
        if self.p_mode not in P_MODES:
            raise ConfigError(f"unknown p_mode {self.p_mode!r}")
        if self.kind in ("mst", "atsp"):
            if self.model != "simplex":
                raise ConfigError(f"{self.kind} experiments run on the simplex model")
        elif self.p_mode == "explicit":
            if not self.p_values:
                raise ConfigError("explicit p schedule needs at least one value")
            if not all(0 <= p < math.inf for p in self.p_values):
                raise ConfigError("thresholds must be finite and non-negative")
        elif self.p_mode == "clogn":
            if not self.c_values:
                raise ConfigError("clogn schedule needs a c list")
            if not all(math.isfinite(c) for c in self.c_values):
                raise ConfigError("clogn schedule needs finite c values")
            if any(math.log(self.n) + c <= 0 for c in self.c_values):
                raise ConfigError("clogn schedule produced a non-positive threshold")
        elif self.p_mode == "p0eps":
            if self.model != "simplex":
                raise ConfigError("the p0eps schedule is defined for the simplex model")
            if self.eps is None or not (0 < self.eps < 1):
                raise ConfigError("p0eps schedule needs a fixed eps in (0, 1)")
        elif self.p_mode == "theta":
            if self.theta is None or not (0 < self.theta < 1):
                raise ConfigError("theta schedule needs theta in (0, 1)")
        if self.kind == "marginals" and not 0 <= self.edge < space.num_edges:
            raise ConfigError(f"marginal coordinate {self.edge} out of range")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


# value parser per ExperimentConfig annotation, " | None" left off
_PARSERS = {"str": str, "int": int, "float": float, "tuple[float, ...]": _floats}
# config key -> (ExperimentConfig field, value parser); a key is its field's name, but for p and c
_CONFIG_KEYS = {
    {"p_values": "p", "c_values": "c"}.get(f.name, f.name): (f.name, _PARSERS[f.type.removesuffix(" | None")])
    for f in fields(ExperimentConfig)
}


def parse_config(text: str) -> ExperimentConfig:
    """Flat key=value config text -> validated ExperimentConfig."""
    data: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in data:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        data[key] = value
    return config_from_mapping(data)


def config_from_mapping(data: dict[str, str]) -> ExperimentConfig:
    """Config from key -> value text; a key left out or given an empty value takes its field's default."""
    unknown = set(data) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    given = {key: text for key, text in data.items() if text != ""}
    for required in ("kind", "n", "trials", "seed"):
        if required not in given:
            raise ConfigError(f"missing required config key {required!r}")
    values = {}
    for key, text in given.items():
        name, parse = _CONFIG_KEYS[key]
        try:
            values[name] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {text!r}") from exc
    return ExperimentConfig(**values)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read config {path}: not text") from None
    return parse_config(text)


def open_output(path: str):
    """Open ``path`` for writing text; a path that cannot be written is a ConfigError."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


# --- model materialization -----------------------------------------------------


def resolve_dvalues(spec: str, n: int) -> np.ndarray:
    """Per-vertex factors from 'ones' or 'dvalues:<v>x<count>,...' (counts sum to n).

    Every factor must be finite and positive, every count a non-negative
    integer, and every coefficient d_v * d_w the factors build must be finite
    and positive too.
    """
    with _config_errors():
        EdgeSpace(n)  # one factor per vertex: n >= 2
    if spec in ("ones", "1"):
        return np.ones(n)
    if not spec.startswith("dvalues:"):
        raise ConfigError(f"expected a dvalues spec, got {spec!r}")
    values, counts = [], []
    for part in spec[8:].split(","):
        if "x" not in part:
            raise ConfigError(f"bad dvalues item {part!r} (want <value>x<count>)")
        v, k = part.split("x", 1)
        try:
            value, count = float(v), int(k)
        except ValueError:
            raise ConfigError(f"bad dvalues item {part!r} (want <value>x<count>)") from None
        if not 0 < value < math.inf or count < 0:
            raise ConfigError(f"dvalues item {part!r}: the value must be finite and positive, the count >= 0")
        values.append(value)
        counts.append(count)
    # checked before any factor is built, so a huge count costs no memory
    if sum(counts) != n:
        raise ConfigError(f"dvalues counts sum to {sum(counts)}, config says n={n}")
    # Rounding is monotone, so the two smallest and the two largest factors
    # bound every product d_v * d_w with v != w.
    d = np.repeat(values, counts)
    s = np.sort(d).tolist()
    lo, hi = s[0] * s[1], s[-2] * s[-1]
    if not (lo > 0 and hi < math.inf):
        raise ConfigError(f"dvalues {spec!r}: the products d_v*d_w run from {lo:g} to {hi:g}, need finite and positive")
    return d


def _resolve_coefficients(spec: str, count: int, seed: int, name: str) -> float | np.ndarray:
    """The ones/const/uniform specs shared by alpha and beta.

    A constant comes back as one float, ``uniform:<M>`` as ``count`` draws;
    the model built from them checks that they are finite and positive.
    """
    if spec in ("ones", "1"):
        return 1.0
    kind, _, number = spec.partition(":")
    if kind not in ("const", "uniform"):
        raise ConfigError(f"unknown {name} spec {spec!r}")
    try:
        value = float(number)
    except ValueError:
        raise ConfigError(f"bad number in {name} spec {spec!r}") from None
    if kind == "const":
        return value
    if not 1 <= value < math.inf:
        raise ConfigError(f"{name} spec {spec!r}: uniform:M needs a finite M >= 1")
    rng = SeededRng(seed, _ALPHA_STREAM)
    return 1.0 / value + (value - 1.0 / value) * rng.uniform(count)


@dataclass
class _SweepContext:
    config: ExperimentConfig
    schedule: tuple[float, ...]
    model: DensityModel


def build_model(
    n: int,
    model: str = "simplex",
    alpha: str = "ones",
    L: float | None = None,
    rate: float = 1.0,
    radius: float = 1.0,
    seed: int = 0,
) -> DensityModel:
    """The weight density of a sweep or CLI command; its ``simplex`` is None off the simplex.

    alpha is ones | const:<x> | uniform:<M> (iid in [1/M, M], reserved stream)
    | dvalues:<v>x<count>,... (decomposable per-vertex factors, alpha_vw = d_v * d_w).
    A bad alpha spec, or a parameter the model types refuse, is a config error.
    """
    with _config_errors():
        space = EdgeSpace(n)
        if model == "simplex":
            if alpha.startswith("dvalues:"):
                simplex = DecomposableWeights(resolve_dvalues(alpha, n)).to_simplex_model(L)
            else:
                simplex = SimplexModel(space, _resolve_coefficients(alpha, space.num_edges, seed, "alpha"), L)
            return DensityModel.from_simplex(simplex)
        if model == "exponential":
            return DensityModel.product_exponential(rate, space)
        return DensityModel.orthant_ball(radius, space)


def _schedule(config: ExperimentConfig, simplex: SimplexModel | None) -> tuple[float, ...]:
    """The thresholds a config's p_mode names; p0eps solves for p0 on ``simplex``.

    A tree or a tour uses every weight, so mst and atsp run at the one point p = inf.
    """
    if config.kind in ("mst", "atsp"):
        return (math.inf,)
    if config.p_mode == "explicit":
        return tuple(config.p_values)
    if config.p_mode == "clogn":
        schedule = tuple((math.log(config.n) + c) / config.n for c in config.c_values)
    elif config.p_mode == "theta":
        schedule = (config.n ** (config.theta - 1.0),)
    else:  # p0eps
        p0 = oracle.solve_p0(simplex)
        schedule = ((1.0 - config.eps) * p0, (1.0 + config.eps) * p0)
    if any(not p > 0 for p in schedule):
        raise ConfigError("derived schedule produced a non-positive threshold")
    return schedule


def _build_context(config: ExperimentConfig) -> _SweepContext:
    """The context of a config's sweep, its thresholds included.

    atsp draws from its directed row-symmetric model, every other kind from ``build_model``.
    """
    if config.kind == "atsp":
        with _config_errors():
            beta = _resolve_coefficients(config.beta, config.n, config.seed, "beta")
            model = DensityModel.from_simplex(row_symmetric_model(beta, config.n, config.L))
    else:
        model = build_model(config.n, config.model, config.alpha, config.L, config.rate, config.radius, config.seed)
    return _SweepContext(config, _schedule(config, model.simplex), model)


# --- trial execution -------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    p_index: int
    trial: int
    stream: int
    p: float
    outcome: float
    aux: tuple[float, ...] = ()


def trial_stream(p_index: int, trial: int) -> int:
    return (p_index << 32) | trial


def _run_trial(ctx: _SweepContext, p_index: int, p: float, trial: int) -> TrialRecord:
    cfg = ctx.config
    stream = trial_stream(p_index, trial)
    # the CPUs the pool leaves to each trial; a large draw splits across them
    rng = SeededRng(cfg.seed, stream, threads=max(1, (os.cpu_count() or 1) // cfg.workers))
    kind = cfg.kind
    if kind == "atsp":
        costs = sample_row_symmetric(ctx.model.simplex, rng)
        assignment = hungarian(costs)
        tour = patch(assignment, costs)
        optimal = held_karp(costs)[0] if cfg.n <= HELD_KARP_MAX_N else math.nan
        outcome = tour.cost / assignment.cost
        aux = (tour.cost, assignment.cost, float(len(assignment.cycles)), optimal)
    elif kind == "mst":
        outcome = graphs.mst_weight(ctx.model.sample(rng))[0]
        aux = ()
    elif kind == "marginals":
        value = float(ctx.model.sample(rng).x[cfg.edge])
        outcome = 1.0 if value <= p else 0.0
        aux = (value,)
    else:
        g = ctx.model.threshold_draw(rng, p)
        m = float(g.edge_count)
        if kind == "moments":
            outcome = m
            aux = ()
        elif kind == "connectivity":
            summary = graphs.components(g)
            outcome = 1.0 if summary.kappa == 1 else 0.0
            aux = (float(summary.kappa), m)
        elif kind == "giant":
            summary = graphs.components(g)
            outcome = summary.largest_fraction
            aux = (float(summary.kappa), m)
        elif kind == "matching":
            outcome = 1.0 if graphs.bipartite_perfect_matching(g) else 0.0
            aux = (m,)
        elif kind == "diameter":
            outcome = float(graphs.diameter(g))
            aux = (m,)
        else:  # hamilton
            outcome = 1.0 if graphs.is_hamiltonian(g) else 0.0
            aux = (m,)
    return TrialRecord(p_index, trial, stream, p, outcome, aux)


_WORKER_CTX: _SweepContext | None = None


def _init_worker(ctx: _SweepContext) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_trial(task: tuple[int, float, int]) -> TrialRecord:
    p_index, p, trial = task
    return _run_trial(_WORKER_CTX, p_index, p, trial)


def _run_trials(ctx: _SweepContext, points) -> tuple[list[TrialRecord], list[dict]]:
    """``ctx.config.trials`` trials at each (p_index, p) of ``points``, and one summary per point.

    The records come back in task order, by point then by trial (``Executor.map`` keeps it).

    Runs on ``ctx.config.workers`` processes.  Pool workers receive the built
    context (inherited under fork), not the config, so no worker rebuilds the
    model.
    """
    points = list(points)
    T = ctx.config.trials
    tasks = [(pi, p, t) for pi, p in points for t in range(T)]
    workers = ctx.config.workers
    if workers > 1 and tasks:
        chunk = max(1, len(tasks) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(ctx,)) as pool:
            records = list(pool.map(_worker_trial, tasks, chunksize=chunk))
    else:
        records = [_run_trial(ctx, *task) for task in tasks]
    return records, [_summarize(ctx, pi, p, records[k * T : (k + 1) * T]) for k, (pi, p) in enumerate(points)]


# --- statistics ------------------------------------------------------------------


_WILSON_Z = 1.96  # two-sided 95% normal quantile


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval; correct near 0/1 where threshold experiments live."""
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    z2 = _WILSON_Z * _WILSON_Z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = _WILSON_Z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _fmt(v) -> str:
    return format(v, ".12g") if isinstance(v, float) else str(v)


@dataclass(frozen=True)
class SweepResult:
    config: ExperimentConfig
    schedule: tuple[float, ...]
    records: tuple[TrialRecord, ...]
    summaries: tuple[dict, ...]
    csv_text: str


def _summarize(ctx: _SweepContext, p_index: int, p: float, records: list[TrialRecord]) -> dict:
    cfg = ctx.config
    out: dict = {"p_index": p_index, "p": p, "trials": len(records)}
    values = np.asarray([r.outcome for r in records], dtype=float)
    if cfg.kind in _BOOL_KINDS:
        successes = int(values.sum()) if values.size else 0
        freq = successes / values.size if values.size else math.nan
        lo, hi = wilson_interval(successes, values.size)
        out.update(freq=freq, wilson_lo=lo, wilson_hi=hi, oracle=_oracle_value(ctx, p_index, p))
    elif cfg.kind == "diameter":
        finite = values[np.isfinite(values)]
        if finite.size:
            ints, counts = np.unique(finite, return_counts=True)
            mode, mode_freq = float(ints[np.argmax(counts)]), counts.max() / values.size
        elif values.size:  # every trial disconnected
            mode, mode_freq = math.inf, 0.0
        else:
            mode, mode_freq = math.nan, math.nan
        out.update(
            mode=mode,
            mode_freq=mode_freq,
            inf_count=int(np.isinf(values).sum()),
            mean_finite=float(finite.mean()) if finite.size else math.nan,
        )
    elif cfg.kind == "moments":
        mean = float(values.mean()) if values.size else math.nan
        var = float(values.var(ddof=1)) if values.size > 1 else math.nan
        expected = math.nan
        bound = math.nan
        simplex = ctx.model.simplex
        if simplex is not None and simplex.unit_alpha:
            expected = oracle.expected_edge_count(simplex, p)
            bound = oracle.edge_count_variance_bound(simplex, p)
        out.update(mean=mean, var=var, expected=expected, var_bound=bound)
    elif cfg.kind == "atsp":
        ratios = values
        cycles = np.asarray([r.aux[2] for r in records], dtype=float)
        tour_over_opt = np.asarray(
            [r.aux[0] / r.aux[3] for r in records if math.isfinite(r.aux[3])]
        )
        mean_ratio, sd_ratio = _mean_sd(ratios)
        out.update(
            mean_ratio=mean_ratio,
            se_ratio=sd_ratio / math.sqrt(ratios.size) if ratios.size > 1 else math.nan,
            mean_cycles=float(cycles.mean()) if cycles.size else math.nan,
            mean_tour_over_opt=float(tour_over_opt.mean()) if tour_over_opt.size else math.nan,
        )
    else:  # giant, mst
        mean, sd = _mean_sd(values)
        out.update(
            mean=mean,
            sd=sd,
            se=sd / math.sqrt(values.size) if values.size > 1 else math.nan,
            min=float(values.min()) if values.size else math.nan,
            max=float(values.max()) if values.size else math.nan,
        )
    return out


def _mean_sd(values: np.ndarray) -> tuple[float, float]:
    """Mean and sample standard deviation (nan where undefined), safe at any finite scale.

    Both are taken on the values times 2^-k, k an even exponent that brings
    the largest magnitude near 1, then scaled back, so the squared deviations
    cannot overflow.  A power of two scales every step exactly (the variance
    by 2^-2k, whose square root is 2^-k), so the bits equal the unscaled
    formulas' wherever those neither overflow nor underflow.
    """
    if not values.size:
        return math.nan, math.nan
    top = float(np.abs(values).max())
    k = math.frexp(top)[1] & ~1 if 0 < top < math.inf else 0
    scaled = np.ldexp(values, -k)
    mean = math.ldexp(float(scaled.mean()), k)
    sd = math.ldexp(float(scaled.std(ddof=1)), k) if values.size > 1 else math.nan
    return mean, sd


def _oracle_value(ctx: _SweepContext, p_index: int, p: float) -> float:
    cfg = ctx.config
    if cfg.kind == "marginals":
        return marginal_cdf(ctx.model, cfg.edge, p)
    simplex = ctx.model.simplex
    # the limit law is stated for unit alpha at budget L = N
    stated = simplex is not None and simplex.unit_alpha and simplex.L == simplex.space.num_edges
    if cfg.kind == "connectivity" and cfg.p_mode == "clogn" and stated:
        return math.exp(-math.exp(-cfg.c_values[p_index]))
    return math.nan


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run trials for every threshold in the schedule and emit CSV plus summaries."""
    ctx = _build_context(config)
    # the output is opened before the first trial, so a path that cannot be written fails at once
    with open_output(config.out) if config.out else nullcontext() as fh:
        records, summaries = _run_trials(ctx, enumerate(ctx.schedule))
        if not config.trials:
            summaries = []  # the CSV of a sweep without trials has no summary lines

        aux_cols = AUX_COLUMNS[config.kind]
        lines = [",".join(("p_index", "trial", "stream", "p", "outcome") + aux_cols)]
        for r in records:
            lines.append(
                ",".join(
                    [str(r.p_index), str(r.trial), str(r.stream), _fmt(r.p), _fmt(r.outcome)]
                    + [_fmt(a) for a in r.aux]
                )
            )
        for s in summaries:
            lines.append("#summary," + ",".join(f"{k}={_fmt(v)}" for k, v in s.items()))
        csv_text = "\n".join(lines) + "\n"
        if fh is not None:
            fh.write(csv_text)
    return SweepResult(config, ctx.schedule, tuple(records), tuple(summaries), csv_text)


# --- named experiments --------------------------------------------------------


@dataclass(frozen=True)
class MstExperimentResult:
    mc_mean: float
    mc_se: float
    series_value: float
    relative_gap: float
    trials: int


def mst_experiment(d: str, n: int, trials: int, seed: int) -> MstExperimentResult:
    """Monte Carlo mean spanning-tree weight vs the closed-form series (the trials of an mst sweep).

    ``d`` is the per-vertex factor spec, ``ones`` or ``dvalues:<v>x<count>,...``.
    The series is summed first, so a spec past its cap is refused before any trial.
    """
    weights = DecomposableWeights(resolve_dvalues(d, n))
    config = ExperimentConfig(kind="mst", n=n, trials=trials, seed=seed, alpha=d)
    series = oracle.mst_series(weights)
    ctx = _build_context(config)
    _, (s,) = _run_trials(ctx, enumerate(ctx.schedule))
    return MstExperimentResult(s["mean"], s["se"], series, abs(s["mean"] - series) / series, trials)


@dataclass(frozen=True)
class AtspRow:
    n: int
    trials: int
    mean_tour_over_assignment: float
    se_tour_over_assignment: float
    mean_tour_over_optimal: float
    mean_cycles: float
    bound_M: float


def atsp_experiment(beta_spec: str, n_values, trials: int, seed: int) -> list[AtspRow]:
    """Tour quality ratios across sizes; exact optimum included where n <= ``HELD_KARP_MAX_N``.

    Size ``n_values[i]`` runs the trials of an atsp sweep on streams ``(i, t)``.
    """
    rows = []
    for n_index, n in enumerate(n_values):
        ctx = _build_context(ExperimentConfig(kind="atsp", n=n, trials=trials, seed=seed, beta=beta_spec))
        _, (s,) = _run_trials(ctx, [(n_index, math.inf)])
        rows.append(
            AtspRow(
                n=n,
                trials=trials,
                mean_tour_over_assignment=s["mean_ratio"],
                se_tour_over_assignment=s["se_ratio"],
                mean_tour_over_optimal=s["mean_tour_over_opt"],
                mean_cycles=s["mean_cycles"],
                bound_M=ctx.model.simplex.M,
            )
        )
    return rows
