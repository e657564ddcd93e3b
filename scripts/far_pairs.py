"""Count the vertex pairs at distance 4 in C07's draws, next to the independent-edge expectation.

C07 asserts modal diameter 3 at (n=3000, theta=0.45), seed 1071.  This script
re-draws the graphs of that sweep, takes every pairwise distance with
``scipy.sparse.csgraph.shortest_path`` (a code path independent of
``graphs.diameter``), and counts the pairs at distance 4 and beyond.  It
checks each graph's edge count and diameter against the sweep's record.

The reference is the exact expected count of pairs more than 3 apart in
G(n, q) with independent edges, at the simplex model's edge probability q:

    C(n, 2) (1 - q) sum_{a,b} B(a) B(b) C(n-2-a, b) / C(n-2, b) (1 - q)^(a b)

with B = Binomial(n-2, q) the neighbourhood sizes of the two vertices.  The
ratio of binomials is the chance that the neighbourhoods are disjoint, and
(1 - q)^(a b) the chance that no edge joins them.  Binomial terms below
e^-80 are dropped.  The simplex graph's edges are not independent, so this
is a close reference for it, not an exact one.

Run from the repository root:

    PYTHONPATH=src python scripts/far_pairs.py [--n 3000] [--theta 0.45] [--seed 1071] [--trials 50]
"""

from __future__ import annotations

import argparse
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.special import gammaln, logsumexp
from scipy.stats import binom

from simplexgraphs import ExperimentConfig, SeededRng, SimplexModel, edge_prob_q, run_sweep, sample_simplex, threshold
from simplexgraphs.experiments import trial_stream


def expected_far_pairs(n: int, q: float) -> float:
    """Exact expected number of vertex pairs more than 3 apart in G(n, q)."""
    m = n - 2
    k = np.arange(m + 1)
    log_b = binom.logpmf(k, m, q)
    k = k[log_b > -80.0]
    a, b = np.meshgrid(k, k, indexing="ij")
    ok = a + b <= m
    a, b = a[ok], b[ok]
    log_disjoint = gammaln(m - a + 1) + gammaln(m - b + 1) - gammaln(m - a - b + 1) - gammaln(m + 1)
    log_terms = log_b[a] + log_b[b] + log_disjoint + a * b * math.log1p(-q)
    return math.comb(n, 2) * (1.0 - q) * math.exp(logsumexp(log_terms))


def distance_counts(g, chunk: int = 500) -> np.ndarray:
    """Number of unordered vertex pairs at each distance 1, 2, ...; distances above 8 count at 8."""
    n = g.n
    adj = coo_matrix((np.ones(g.edge_count), (g.tails, g.heads)), shape=(n, n)).tocsr()
    counts = np.zeros(9, dtype=np.int64)
    for start in range(0, n, chunk):
        d = shortest_path(adj, directed=False, unweighted=True, indices=np.arange(start, min(n, start + chunk)))
        d = np.minimum(d, 8).astype(np.int64)
        counts += np.bincount(d.ravel(), minlength=9)
    counts[1:] //= 2  # each unordered pair seen from both ends
    return counts[1:]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=3000)
    ap.add_argument("--theta", type=float, default=0.45)
    ap.add_argument("--seed", type=int, default=1071)
    ap.add_argument("--trials", type=int, default=50)
    args = ap.parse_args()

    cfg = ExperimentConfig(
        kind="diameter", n=args.n, trials=args.trials, seed=args.seed, p_mode="theta", theta=args.theta
    )
    sweep = run_sweep(cfg)
    model = SimplexModel.uniform(args.n)
    p = sweep.schedule[0]
    q = edge_prob_q(model, p)
    far = []
    for t, record in enumerate(sweep.records):
        g = threshold(sample_simplex(model, SeededRng(args.seed, trial_stream(0, t))), p)
        counts = distance_counts(g)
        diam = int(np.flatnonzero(counts)[-1]) + 1
        if counts[-1] or diam != record.outcome or g.edge_count != record.aux[0]:
            raise SystemExit(
                f"trial {t}: re-drawn graph has {g.edge_count} edges and diameter {diam} (capped at 8), "
                f"the sweep recorded {record.aux[0]:g} and {record.outcome:g}"
            )
        far.append(int(counts[3:].sum()))
        print(f"trial {t}: edges={g.edge_count} diameter={diam} pairs at distance >= 4: {far[-1]}", flush=True)
    far = np.array(far)
    print(
        f"n={args.n} theta={args.theta} seed={args.seed} trials={far.size}: q={q:.5f}; "
        f"pairs at distance >= 4: mean {far.mean():.1f}, median {np.median(far):.0f}, range {far.min()}-{far.max()}; "
        f"independent-edge expectation {expected_far_pairs(args.n, q):.1f}"
    )


if __name__ == "__main__":
    main()
