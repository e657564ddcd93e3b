"""Command-line front end.

Subcommands: sample, oracle, sweep, mst, atsp, selftest.
Exit codes: 0 success, 2 config error, 3 capacity error (a size cap, or out of memory).
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from . import experiments, oracle
from .atsp import CostMatrix, held_karp, hungarian, patch
from .errors import CapacityError, ConfigError
from .experiments import (
    atsp_experiment,
    build_model,
    load_config,
    mst_experiment,
    open_output,
    run_sweep,
)
from .graphs import components, mst_weight
from .model import DecomposableWeights, EdgeSpace, SimplexModel, threshold
from .samplers import DensityModel, SeededRng, marginal_cdf, sample_simplex


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simplexgraphs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="draw weight vectors and print them as CSV")
    sp.add_argument("--model", default="simplex", choices=["simplex", "exponential", "ball"])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", default="ones")
    sp.add_argument("--L", type=float, default=None)
    sp.add_argument("--rate", type=float, default=1.0)
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--trials", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="-")

    op = sub.add_parser("oracle", help="print closed-form quantities for a simplex model")
    op.add_argument("--n", type=int, required=True)
    op.add_argument("--alpha", default="ones")
    op.add_argument("--L", type=float, default=None)
    op.add_argument("--p", type=float, default=None)
    op.add_argument("--seed", type=int, default=0)

    sw = sub.add_parser("sweep", help="run a Monte Carlo sweep from a config file")
    sw.add_argument("--config", required=True)
    sw.add_argument("--seed", type=int, default=None)
    sw.add_argument("--trials", type=int, default=None)
    sw.add_argument("--out", default=None)
    sw.add_argument("--workers", type=int, default=None)

    ms = sub.add_parser("mst", help="spanning-tree weight: Monte Carlo vs series")
    ms.add_argument("--n", type=int, required=True)
    ms.add_argument("--d", default="ones", help="'ones' or 'dvalues:<v>x<count>,...'")
    ms.add_argument("--trials", type=int, default=100)
    ms.add_argument("--seed", type=int, default=0)

    at = sub.add_parser("atsp", help="assignment-plus-patching tour quality")
    at.add_argument("--n", type=int, action="append", required=True)
    at.add_argument("--beta", default="ones")
    at.add_argument("--trials", type=int, default=20)
    at.add_argument("--seed", type=int, default=0)

    sub.add_parser("selftest", help="fast oracle-vs-sampler consistency checks")
    return parser


def _cmd_sample(args) -> int:
    if args.trials < 0:
        raise ConfigError("trials must be non-negative")
    model = build_model(args.n, args.model, args.alpha, args.L, args.rate, args.radius, args.seed)
    with nullcontext(sys.stdout) if args.out == "-" else open_output(args.out) as fh:
        lines = ["trial," + ",".join(f"x{e}" for e in range(model.space.num_edges))]
        for t in range(args.trials):
            x = model.sample(SeededRng(args.seed, experiments.trial_stream(0, t)))
            lines.append(str(t) + "," + ",".join(format(v, ".12g") for v in x.x))
        fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_oracle(args) -> int:
    if args.p is not None and not 0 <= args.p < math.inf:
        raise ConfigError(f"--p must be finite and non-negative, got {args.p}")
    model = build_model(args.n, alpha=args.alpha, L=args.L, seed=args.seed).simplex
    print(f"n={args.n}")
    print(f"N={model.space.num_edges}")
    print(f"L={model.L:.12g}")
    print(f"p0={oracle.solve_p0(model):.12g}")
    print(f"sigma2_e0={oracle.sigma_simplex(model, 0):.12g}")
    if args.p is not None:
        profile = oracle.IsolationProfile(model)
        print(f"xi_total={profile.total(args.p):.12g}")
        if model.unit_alpha:
            q = oracle.edge_prob_q(model, args.p)
            print(f"q={q:.12g}")
            print(f"expected_edges={oracle.expected_edge_count(model, args.p):.12g}")
            print(f"variance_bound={oracle.edge_count_variance_bound(model, args.p):.12g}")
    return 0


def _cmd_sweep(args) -> int:
    overrides = {key: v for key in ("seed", "trials", "out", "workers") if (v := getattr(args, key)) is not None}
    config = replace(load_config(args.config), **overrides)
    result = run_sweep(config)
    if not config.out:
        sys.stdout.write(result.csv_text)
    else:
        sys.stdout.writelines(line + "\n" for line in result.csv_text.splitlines() if line.startswith("#summary,"))
    return 0


def _cmd_mst(args) -> int:
    res = mst_experiment(args.d, args.n, args.trials, args.seed)
    print(f"trials={res.trials}")
    print(f"mc_mean={res.mc_mean:.12g}")
    print(f"mc_se={res.mc_se:.12g}")
    print(f"series={res.series_value:.12g}")
    print(f"relative_gap={res.relative_gap:.12g}")
    return 0


def _cmd_atsp(args) -> int:
    rows = atsp_experiment(args.beta, args.n, args.trials, args.seed)
    print("n,trials,mean_tour_over_assignment,se,mean_tour_over_optimal,mean_cycles,M")
    for r in rows:
        print(
            f"{r.n},{r.trials},{r.mean_tour_over_assignment:.6g},{r.se_tour_over_assignment:.6g},"
            f"{r.mean_tour_over_optimal:.6g},{r.mean_cycles:.6g},{r.bound_M:.6g}"
        )
    return 0


def _cmd_selftest(args) -> int:
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        print(f"[selftest] {name}: {status}" + (f" ({detail})" if detail else ""))
        failures += 0 if ok else 1

    space = EdgeSpace(12)
    round_trip = all(space.pair(space.index(i, j)) == (i, j) for i in range(12) for j in range(i + 1, 12))
    check("edge index bijection", round_trip)

    model = SimplexModel.uniform(12)
    rng = SeededRng(7, 0)
    xs = [sample_simplex(model, rng) for _ in range(200)]
    check("simplex budget constraint", all(x.budget_used(model) <= model.L for x in xs))

    p = 0.4
    freq = np.mean([x.x[0] <= p for x in xs])
    cdf = marginal_cdf(DensityModel.from_simplex(model), 0, p)
    se = math.sqrt(cdf * (1 - cdf) / len(xs))
    check("marginal CDF vs sampler", abs(freq - cdf) <= 4 * se, f"freq={freq:.4f} cdf={cdf:.4f}")

    # the streamed threshold draw equals thresholding the dense sample bit for bit,
    # at a drawn coordinate; this checks the rounding argument and, at n=640
    # (four leaves), the leaf-by-leaf sum on the installed numpy, on every CPU
    # and on three threads, which cut the leaves into three runs
    same = []
    for n_check in (12, 640):
        for alpha in ("ones", "uniform:2"):
            fam = build_model(n_check, alpha=alpha, seed=3)
            for seed in range(4):
                x = fam.sample(SeededRng(seed, 1))
                p_at = float(np.sort(x.x)[seed * 20 * x.x.size // 66])  # ranks 0, 20, 40, 60 at n=12
                for threads in (None, 3):
                    fused = fam.threshold_draw(SeededRng(seed, 1, threads), p_at)
                    same.append(np.array_equal(fused.edge_indices, threshold(x, p_at).edge_indices))
    check("streamed threshold draw equals dense", all(same), f"{sum(same)}/{len(same)} draws")

    g = threshold(xs[0], 1e9)
    check("complete graph connected", components(g).kappa == 1)
    w, tree = mst_weight(xs[0])
    check("spanning tree size", len(tree) == model.space.n - 1)

    d4 = DecomposableWeights(np.ones(4))
    series = oracle.mst_series(d4)
    check("series hand value", abs(series - 1.1091037326388889) < 1e-12, f"series={series:.10f}")

    rng2 = SeededRng(11, 1)
    mat = rng2.uniform((6, 6)) + 0.01
    np.fill_diagonal(mat, np.inf)
    costs = CostMatrix(mat)
    assignment = hungarian(costs)
    tour = patch(assignment, costs)
    tour.validate(costs)
    optimal, _ = held_karp(costs)
    check("assignment <= optimum <= tour", assignment.cost <= optimal + 1e-9 and optimal <= tour.cost + 1e-9)

    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sample": _cmd_sample,
        "oracle": _cmd_oracle,
        "sweep": _cmd_sweep,
        "mst": _cmd_mst,
        "atsp": _cmd_atsp,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, MemoryError) as exc:
        print(f"capacity error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
