"""Measurement of one benchmark run: timed sweeps, set-up, checks, traced replay.

A run repeats rounds of the workload's sweeps through
``simplexgraphs.run_sweep`` until its time is up, with tracing off, and
reports the slow decile over rounds of each timed metric (see
``slow_decile``).  With tracing on it also replays each round's trials,
right after the round, through each layer's public functions with spans
around every call (see ``tracing``), and reports per-layer metrics instead.
The checks in ``workloads`` run in both modes, outside the timed region.

Thread-count variables (``OMP_NUM_THREADS`` and the like) are recorded, never
set: the benchmark measures the program as users run it.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import simplexgraphs
from simplexgraphs import ExperimentConfig, SweepResult, run_sweep

import tracing
import workloads
from tracing import Metric

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
# Fresh interpreter: import the package, then build every sweep's context
# through a zero-trial run_sweep, and print the elapsed seconds.
_SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
import simplexgraphs
from simplexgraphs import ExperimentConfig
for cfg in {configs}:
    simplexgraphs.run_sweep(cfg)
print(time.perf_counter() - start)
"""


@dataclass
class Round:
    results: list[SweepResult]
    wall_s: float
    cpu_s: float

    @property
    def trials(self) -> int:
        return sum(len(r.records) for r in self.results)


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    metrics: dict[str, Metric]
    checks: list[workloads.Check]
    attempted: int
    failed: int
    provenance: dict
    tracer: tracing.Tracer | None = None
    errors: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def line(self) -> dict:
        """The result line: exactly the keys a benchmark run prints last."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": m.value, "unit": m.unit} for k, m in self.metrics.items()},
        }


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; for children it is the largest child reaped.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def time_round(configs: list[ExperimentConfig], errors: list[str]) -> Round | None:
    """Run one round of sweeps; None when a sweep raised (recorded in ``errors``)."""
    results, wall, cpu = [], 0.0, 0.0
    for cfg in configs:
        cpu0, t0 = _cpu_s(), perf_counter()
        try:
            results.append(run_sweep(cfg))
        except Exception:
            errors.append(traceback.format_exc())
            return None
        wall += perf_counter() - t0
        cpu += _cpu_s() - cpu0
    return Round(results, wall, cpu)


def timed_rounds(
    workload: str, seed: int, seconds: float, smoke: bool, after_round=None
) -> tuple[list[Round], int, list[str]]:
    """Rounds until ``seconds`` have passed (at least one); also the trials lost to errors.

    ``after_round``, when given, is called with each completed round inside
    the time limit.
    """
    rounds: list[Round] = []
    errors: list[str] = []
    lost = 0
    start = perf_counter()
    r = 0
    while r == 0 or perf_counter() - start < seconds:
        configs = workloads.round_configs(workload, seed, r, smoke)
        done = time_round(configs, errors)
        if done is None:
            # every workload's schedule has one threshold per c value, or just one
            lost += sum(cfg.trials * max(1, len(cfg.c_values)) for cfg in configs)
        else:
            rounds.append(done)
            if after_round is not None:
                after_round(done)
        r += 1
    return rounds, lost, errors


@dataclass
class Replay:
    """Replays each round traced right after it ran untraced.

    The untraced time and the traced time of the same trials are then taken
    seconds apart, at the same host speed, so their difference measures the
    program and not the host's drift.  A pooled round is first run again at
    one worker, and that serial round is the one replayed.
    """

    tracer: tracing.Tracer
    pooled: bool
    serial: list[Round] = field(default_factory=list)
    mismatches: int = 0
    replay_s: float = 0.0
    errors: list[str] = field(default_factory=list)

    def __call__(self, rnd: Round) -> None:
        if self.pooled:
            rnd = time_round([replace(res.config, workers=1) for res in rnd.results], self.errors)
            if rnd is None:
                return
        self.serial.append(rnd)
        start = perf_counter()
        self.mismatches += sum(tracing.replay_sweep(self.tracer, res) for res in rnd.results)
        self.replay_s += perf_counter() - start


def slow_decile(values: list[float], higher_is_better: bool) -> float:
    """The decile of per-round figures on the slow side.

    On a shared host a run's speed is bimodal: a steady state, and bursts of
    up to tens of seconds in which interpreted code runs 1.6 times faster.  A
    median moves with the share of a run that falls in bursts; the slow
    decile stays with the steady state while one round in ten is outside
    them, and a change to the program moves both states alike.
    """
    if len(values) == 1:
        return values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[0] if higher_is_better else deciles[-1]


def trials_per_s(rounds: list[Round]) -> float:
    return slow_decile([r.trials / r.wall_s for r in rounds], higher_is_better=True)


def setup_seconds(workload: str, repeats: int, smoke: bool) -> list[float]:
    code = _SETUP_CODE.format(
        src=str(ROOT / "src"),
        configs=repr([replace(cfg, trials=0) for cfg in workloads.sweeps(workload, smoke)]),
    )
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> RunResult:
    pooled = workload == "connectivity_pool"
    replay = Replay(tracing.Tracer(), pooled) if trace else None
    rounds, lost, errors = timed_rounds(workload, seed, seconds, smoke, replay)
    if not rounds:
        raise RuntimeError(f"every sweep of workload {workload!r} raised:\n{errors[0]}")
    checks = []

    if not trace:
        metrics = _end_to_end(workload, rounds, smoke)
        serial_csv = run_sweep(replace(rounds[0].results[0].config, workers=1)).csv_text if pooled else None
    else:
        errors += replay.errors
        serial_csv = replay.serial[0].results[0].csv_text
        metrics = _per_layer(replay, rounds if pooled else [])
        replayed = sum(r.trials for r in replay.serial)
        checks.append(
            workloads.Check(
                "traced replay equals run_sweep records",
                replay.mismatches == 0,
                f"{replay.mismatches} of {replayed} trials differ",
            )
        )

    checks = workloads.check_workload(workload, [r.results for r in rounds], serial_csv) + checks
    failed_checks = sum(not c.ok for c in checks)
    return RunResult(
        workload=workload,
        seed=seed,
        trace=trace,
        metrics=metrics,
        checks=checks,
        attempted=sum(r.trials for r in rounds) + lost + len(checks),
        failed=lost + failed_checks,
        provenance=provenance(seed),
        tracer=replay.tracer if trace else None,
        errors=errors,
    )


def _end_to_end(workload: str, rounds: list[Round], smoke: bool) -> dict[str, Metric]:
    peak = _peak_rss_mb()  # before anything else runs in this process or its children
    setups = setup_seconds(workload, 1 if smoke else SETUP_REPEATS, smoke)
    return {
        "trials_per_s": Metric(trials_per_s(rounds), "1/s", len(rounds)),
        "cpu_ms_per_trial": Metric(
            slow_decile([1000.0 * r.cpu_s / r.trials for r in rounds], higher_is_better=False), "ms", len(rounds)
        ),
        "setup_s": Metric(statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": Metric(peak, "MB", 1),
    }


def _per_layer(replay: Replay, pool: list[Round]) -> dict[str, Metric]:
    """Per-layer metrics of a traced run; ``pool`` holds its pooled rounds, if any."""
    tracer, serial = replay.tracer, replay.serial
    replayed = sum(r.trials for r in serial)
    serial_wall = sum(r.wall_s for r in serial)
    serial_tps = trials_per_s(serial)
    pool_tps = trials_per_s(pool) if pool else 0.0
    metrics = tracing.layer_metrics(tracer)
    metrics.update(
        {
            "experiments.self_ms_per_trial": Metric(
                1000.0 * (serial_wall - tracing.layer_total_s(tracer)) / replayed, "ms", replayed
            ),
            "experiments.csv_bytes": Metric(
                statistics.median(sum(len(res.csv_text) for res in r.results) for r in serial), "count", len(serial)
            ),
            "experiments.serial_trials_per_s": Metric(serial_tps, "1/s", len(serial)),
            "experiments.pool_trials_per_s": Metric(pool_tps, "1/s", len(pool)),
            "experiments.pool_speedup": Metric(pool_tps / serial_tps, "ratio", len(pool)),
            "trace.overhead_frac": Metric(replay.replay_s / serial_wall - 1.0, "ratio", replayed),
        }
    )
    return metrics


# --- provenance --------------------------------------------------------------------


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "simplexgraphs": simplexgraphs.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": _git_commit(),
    }


def _blas() -> dict:
    """numpy's BLAS build entry, plus the thread count each bundled OpenBLAS defaults to."""
    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        pass
    threads = {}
    for module in (np, scipy):
        libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[lib.name] = fn()
                    break
    info["threads"] = threads
    return info


def _git_commit() -> str | None:
    """HEAD's commit when the checkout is a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


# --- output --------------------------------------------------------------------------


def write_outputs(result: RunResult) -> Path:
    """The run's record (provenance, checks, metrics with sample counts) and its spans."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{result.workload}-seed{result.seed}-trace{int(result.trace)}"
    record = {
        "workload": result.workload,
        "provenance": result.provenance,
        "checks": [c.__dict__ for c in result.checks],
        "metrics": {k: m.__dict__ for k, m in result.metrics.items()},
        "errors": result.errors,
        **result.line(),
    }
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    if result.tracer is not None:
        result.tracer.write(OUT_DIR / f"{stem}-spans.jsonl")
    return path
