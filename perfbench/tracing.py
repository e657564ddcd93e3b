"""Traced replay of a run's trials, and the per-layer metrics derived from it.

Each trial is replayed in ``run_sweep``'s order through the layers' public
functions: a ``SeededRng`` for the trial's stream, the sample, the threshold,
then the predicate.  A span (name, start, end, parent) is recorded in memory
around every call into a layer; the spans are written out when the run ends.
Every layer span is a leaf whose parent is its trial's span, so a layer's
self time is the sum of its spans' durations, and a trial span's self time
is the replay's own glue.  Each span also carries the vertex count ``n`` of
its sweep, so that a workload mixing sizes reports a function's percentiles
at the largest size it is called with.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

from simplexgraphs import (
    DensityModel,
    ExperimentConfig,
    SeededRng,
    SweepResult,
    components,
    diameter,
    held_karp,
    hungarian,
    mst_weight,
    patch,
    sample_row_symmetric,
    sample_simplex,
    threshold,
)
from simplexgraphs.experiments import trial_stream

from workloads import simplex_model

LAYERS = ("samplers", "model", "graphs", "atsp")

# Functions whose span durations are reported as percentiles, by span name.
_PERCENTILES = {
    "samplers.sample": (50, 90),
    "model.threshold": (50,),
    "graphs.components": (50,),
    "graphs.diameter": (50, 90),
    "graphs.mst_weight": (50,),
    "atsp.sample_row_symmetric": (50,),
    "atsp.hungarian": (50,),
    "atsp.patch": (50,),
    "atsp.held_karp": (50,),
}


@dataclass
class Span:
    name: str
    parent: int | None
    n: int
    start_ns: int
    end_ns: int = 0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    coords: list[int] = field(default_factory=list)  # coordinates drawn, per trial
    edges: list[int] = field(default_factory=list)  # kept edges, per thresholded trial
    thresholded: list[int] = field(default_factory=list)  # coordinates drawn, per thresholded trial
    cycles: list[int] = field(default_factory=list)  # assignment cycles, per tour trial
    n: int = 0  # vertex count of the sweep being replayed

    def begin(self, name: str, parent: int | None = None) -> int:
        self.spans.append(Span(name, parent, self.n, perf_counter_ns()))
        return len(self.spans) - 1

    def end(self, span: int) -> None:
        self.spans[span].end_ns = perf_counter_ns()

    def call(self, name: str, parent: int | None, fn, *args):
        start = perf_counter_ns()
        out = fn(*args)
        self.spans.append(Span(name, parent, self.n, start, perf_counter_ns()))
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s.__dict__}) + "\n")


def _build_span_name(cfg: ExperimentConfig) -> str:
    if cfg.kind == "atsp":
        return "atsp.row_symmetric_model"
    if cfg.kind == "mst":
        return "model.to_simplex_model"
    return "model.SimplexModel.uniform"


def replay_sweep(tracer: Tracer, result: SweepResult) -> int:
    """Replay every trial of one sweep; returns how many differ from its records."""
    cfg = result.config
    tracer.n = cfg.n
    model = tracer.call(_build_span_name(cfg), None, simplex_model, cfg)
    density = DensityModel.from_simplex(model)
    mismatches = 0
    for record in result.records:
        outcome, aux = _replay_trial(tracer, cfg, model, density, record.p_index, record.p, record.trial)
        if not (_same(outcome, record.outcome) and len(aux) == len(record.aux) and all(map(_same, aux, record.aux))):
            mismatches += 1
    return mismatches


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _replay_trial(tracer: Tracer, cfg: ExperimentConfig, model, density, p_index: int, p: float, trial: int):
    t = tracer.begin("trial")
    rng = tracer.call("samplers.SeededRng", t, SeededRng, cfg.seed, trial_stream(p_index, trial))
    if cfg.kind == "atsp":
        costs = tracer.call("atsp.sample_row_symmetric", t, sample_row_symmetric, model, rng)
        assignment = tracer.call("atsp.hungarian", t, hungarian, costs)
        tour = tracer.call("atsp.patch", t, patch, assignment, costs)
        optimal = tracer.call("atsp.held_karp", t, held_karp, costs)[0] if cfg.n <= 13 else math.nan
        outcome = tour.cost / assignment.cost
        aux = (tour.cost, assignment.cost, float(len(assignment.cycles)), optimal)
        tracer.coords.append(model.space.num_edges)
        tracer.cycles.append(len(assignment.cycles))
    elif cfg.kind == "mst":
        x = tracer.call("samplers.sample", t, sample_simplex, model, rng)
        outcome = tracer.call("graphs.mst_weight", t, mst_weight, x)[0]
        aux = ()
        tracer.coords.append(x.x.size)
    else:
        x = tracer.call("samplers.sample", t, density.sample, rng)
        g = tracer.call("model.threshold", t, threshold, x, p)
        m = float(g.edge_count)
        if cfg.kind == "connectivity":
            summary = tracer.call("graphs.components", t, components, g)
            outcome = 1.0 if summary.kappa == 1 else 0.0
            aux = (float(summary.kappa), m)
        elif cfg.kind == "diameter":
            outcome = float(tracer.call("graphs.diameter", t, diameter, g))
            aux = (m,)
        else:
            raise ValueError(f"the traced replay does not cover kind {cfg.kind!r}")
        tracer.coords.append(x.x.size)
        tracer.thresholded.append(x.x.size)
        tracer.edges.append(g.edge_count)
    tracer.end(t)
    return outcome, aux


@dataclass(frozen=True)
class Metric:
    value: float
    unit: str
    samples: int


def layer_metrics(tracer: Tracer) -> dict[str, Metric]:
    """Per-layer metrics from the spans and counts of one traced replay.

    A function the workload never calls has no spans; its percentiles then
    read 0 with 0 samples.
    """
    durations: dict[str, list[int]] = {}
    largest: dict[str, int] = {}
    for s in tracer.spans:
        durations.setdefault(s.name, []).append(s.end_ns - s.start_ns)
        largest[s.name] = max(largest.get(s.name, 0), s.n)
    trials = len(durations.get("trial", ()))
    out: dict[str, Metric] = {}
    for name, qs in _PERCENTILES.items():
        ns = [s.end_ns - s.start_ns for s in tracer.spans if s.name == name and s.n == largest[name]]
        for q in qs:
            value = float(np.percentile(ns, q)) / 1e6 if ns else 0.0
            out[f"{name}_ms.p{q}"] = Metric(value, "ms", len(ns))
    for layer in LAYERS:
        spans = [d for name, ds in durations.items() if name.startswith(layer + ".") for d in ds]
        out[f"{layer}.self_ms_per_trial"] = Metric(sum(spans) / 1e6 / max(trials, 1), "ms", len(spans))
    coords = np.asarray(tracer.coords, dtype=float)
    out["samplers.coords_per_trial"] = Metric(float(coords.mean()) if coords.size else 0.0, "count", coords.size)
    edges = np.asarray(tracer.edges, dtype=float)
    # Without a threshold every drawn coordinate enters the predicate.
    kept = float(edges.sum() / sum(tracer.thresholded)) if edges.size else 1.0
    out["samplers.useful_ratio"] = Metric(kept, "ratio", edges.size)
    out["model.edges_per_trial"] = Metric(float(edges.mean()) if edges.size else 0.0, "count", edges.size)
    cycles = np.asarray(tracer.cycles, dtype=float)
    out["atsp.cycles_per_trial"] = Metric(float(cycles.mean()) if cycles.size else 0.0, "count", cycles.size)
    return out


def layer_total_s(tracer: Tracer) -> float:
    """Time spent inside layer calls: every span except the trial spans."""
    return sum(s.end_ns - s.start_ns for s in tracer.spans if s.name != "trial") / 1e9
