"""The trial generator is PCG64DXSM; the law of every statistic is the one the Philox draws gave.

Switching generators moves every drawn number, so no CSV byte survives it.
What must survive is the law.  Each test draws one statistic from the
current path (``SeededRng``) and from the former Philox generator
(``brutes.PhiloxRng``) under different seeds, and a two-sample test must not
tell them apart at the 0.1% level.  The seeds are fixed, so each test is
deterministic.  ``test_reference_is_the_former_generator`` shows that the
reference really is the former generator: it reproduces CSV hashes recorded
with Philox.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency, ks_2samp

import simplexgraphs.experiments as experiments
from brutes import PhiloxRng
from simplexgraphs import (
    ExperimentConfig,
    SeededRng,
    SimplexModel,
    WeightVector,
    components,
    diameter,
    run_sweep,
    sample_simplex_batch,
    threshold,
)

ALPHA = 1e-3

# CSVs recorded with the Philox generator (seed=1, workers=1)
PHILOX_HASHES = [
    (
        dict(kind="connectivity", n=200, trials=20, p_mode="clogn", c_values=(-1.0, 0.0, 1.0)),
        "a069bd14f9410ca4a12692542561b5abc98a920a84116c796ea15fcd6d255d9d",
    ),
    (
        dict(kind="mst", n=30, trials=20, alpha="dvalues:0.5x15,2x15"),
        "5471cea19ae869c021fd5f8b2e4da3072ed82a1a1afa43286d131b321312377f",
    ),
    (
        dict(kind="moments", model="ball", radius=1.5, n=12, trials=50, p_values=(0.2,)),
        "9dd16087a9944fa736db687e21e38175c79a80e10d8c50888d2be57e55931f99",
    ),
]


@pytest.mark.parametrize("settings, expected", PHILOX_HASHES, ids=["connectivity", "mst-dvalues", "moments-ball"])
def test_reference_is_the_former_generator(settings, expected, monkeypatch):
    monkeypatch.setattr(experiments, "SeededRng", PhiloxRng)
    result = run_sweep(ExperimentConfig(seed=1, workers=1, **settings))
    assert hashlib.sha256(result.csv_text.encode()).hexdigest() == expected


def _draws(seed, model, count, statistic, batch=2000):
    """``statistic(x)`` of ``count`` simplex draws from ``SeededRng(seed)`` and from ``PhiloxRng(seed + 1)``."""
    samples = []
    for rng in (SeededRng(seed, 0), PhiloxRng(seed + 1, 0)):
        values = []
        for start in range(0, count, batch):
            values.extend(statistic(x) for x in sample_simplex_batch(model, rng, min(batch, count - start)))
        samples.append(np.array(values))
    return samples


def _chi2_same_law(a, b, min_count=10):
    """p-value of the chi-square test that two integer samples share one law.

    Values are clipped into the range where each end keeps ``min_count``
    observations of the pooled sample, so no cell is nearly empty.
    """
    pooled = np.sort(np.concatenate([a, b]))
    lo, hi = pooled[min_count - 1], pooled[-min_count]
    cats = np.arange(lo, hi + 1)
    table = np.array([[np.count_nonzero(np.clip(s, lo, hi) == c) for c in cats] for s in (a, b)])
    table = table[:, table.sum(axis=0) > 0]
    if table.shape[1] < 2:  # one category: nothing to tell apart
        return 1.0
    return chi2_contingency(table)[1]


def test_edge_counts():
    # n=30, L=N, p=0.1: each edge present with probability ~0.095, ~41 edges
    model = SimplexModel.uniform(30)
    a, b = _draws(1601, model, 20_000, lambda x: int(np.count_nonzero(x <= 0.1)))
    assert ks_2samp(a, b, method="asymp").pvalue > ALPHA
    assert _chi2_same_law(a, b) > ALPHA


def test_c01_marginal():
    # C01's coordinate: alpha=1, n=20, L=N, 1e5 draws of x_0 from each generator
    model = SimplexModel.uniform(20)
    a = sample_simplex_batch(model, SeededRng(1611, 0), 100_000)[:, 0]
    b = sample_simplex_batch(model, PhiloxRng(1612, 0), 100_000)[:, 0]
    assert ks_2samp(a, b, method="asymp").pvalue > ALPHA


def test_component_counts():
    # n=60 at p = ln n / n: one to about six components per graph
    model = SimplexModel.uniform(60)
    p = math.log(60) / 60
    a, b = _draws(1621, model, 4000, lambda x: components(threshold(WeightVector(model.space, x), p)).kappa)
    assert np.unique(a).size >= 4
    assert _chi2_same_law(a, b) > ALPHA


def test_diameters():
    # n=40, p=0.45: diameter 2 in about a fifth of the graphs, 3 in the rest
    model = SimplexModel.uniform(40)
    a, b = _draws(1631, model, 4000, lambda x: diameter(threshold(WeightVector(model.space, x), 0.45)))
    assert np.isfinite(a).all() and np.isfinite(b).all()
    assert np.unique(a).size >= 2
    assert _chi2_same_law(a.astype(int), b.astype(int)) > ALPHA
