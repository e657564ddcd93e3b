"""Frozen-seed sweeps: the CSV bytes are pinned by sha256 at one and two workers.

A refactor of the samplers, the trial loop or the CSV writer must keep every
hash. A change that alters the CSV on purpose updates the hashes here and says
why in CHANGES.md.
"""

import hashlib
import os

import pytest

from simplexgraphs.experiments import ExperimentConfig, run_sweep

FROZEN = {
    "connectivity-p0eps": (
        dict(kind="connectivity", n=60, trials=20, p_mode="p0eps", eps=0.3),
        "7ad426647acc96b9843961c3f3c9e31b42eb5635c1ea517aaabc5539e17db742",
    ),
    "connectivity-clogn": (
        dict(kind="connectivity", n=200, trials=20, p_mode="clogn", c_values=(-1.0, 0.0, 1.0)),
        "f80e7e914137e7edf6a0e1393d7cb6105bca7142c59f1079099e99ee41cefdef",
    ),
    "matching": (
        dict(kind="matching", n=20, trials=20, p_values=(0.3, 0.6)),
        "a3da62530cfba5f2d3c64a9b72fe085bc0efe45da0f57beebba9c4c8c33f4194",
    ),
    "giant": (
        dict(kind="giant", n=60, trials=20, p_values=(0.05,)),
        "1c944d85ab6002a72d743bc295747d883e84cfd13ffc184f0e29586f8e2d7770",
    ),
    # average degree 0.5 and 1.5: hundreds of components per trial, so the
    # component labels and the size ties are pinned, not only the giant.
    "giant-subcritical": (
        dict(kind="giant", n=400, trials=10, p_values=(0.00125, 0.00375)),
        "f5a59e465f64f57d7c5f61d65b8d8884b8ec1791e71b1cf6ceefc823221d046f",
    ),
    "diameter": (
        dict(kind="diameter", n=60, trials=10, p_mode="theta", theta=0.6),
        "7a40199b41b9f5e9ce36758ad4e35bcd455f6f527f4c50efd544a7a409a86f1b",
    ),
    # n=800 has N+1 >= 2^18 coordinates and diameter 4: it takes the split
    # draw and the BFS level that pulls only unfinished columns.
    "diameter-split": (
        dict(kind="diameter", n=800, trials=4, p_mode="theta", theta=0.45),
        "d76b47765740bff6c6e58a7f1f8696530b9c29d44065bbf94e271273ab93fc32",
    ),
    # mean degree ~82 against a reach density ~0.28 after the first level:
    # the second BFS level pulls a prefix of each neighbour list first.
    "diameter-dense": (
        dict(kind="diameter", n=300, trials=4, p_mode="theta", theta=0.8),
        "b965be1e968b27c2a0285183870ca40f35193c77544d49befa052d584afc3269",
    ),
    # non-unit alpha with L != N at a size whose draw splits (N+1 >= 2^18):
    # the p0eps schedule brackets the connectivity threshold, so each graph
    # keeps a few thousand of the 319,600 coordinates.
    "connectivity-alpha-L-split": (
        dict(kind="connectivity", n=800, trials=4, p_mode="p0eps", eps=0.3, alpha="uniform:2", L=1e5),
        "f68e47dc9e5cb3146167ff55742fde8a9cdb2269277f7b355702848b5963e3a7",
    ),
    # independent exponential coordinates, mean degree ~4, split draw
    "giant-exponential-split": (
        dict(kind="giant", model="exponential", rate=2.0, n=800, trials=4, p_values=(0.0025,)),
        "d0588711dd52fc6f1910cce87cef8f657f35caf8bedaa3276635551f06fd2fe1",
    ),
    # the ball thresholds a dense sample: 99-128 of 780 coordinates kept
    "giant-ball": (
        dict(kind="giant", model="ball", radius=1.5, n=40, trials=10, p_values=(0.01,)),
        "f873f0411f1e9bafc4d25fdb317ed5006aabc4083a4eb6ab3ede326652bbddaf",
    ),
    "hamilton": (
        dict(kind="hamilton", n=12, trials=10, p_values=(0.5,)),
        "d08817e028587164a30a0580f2ec681531b1619752f3fa9a999b7835d764500d",
    ),
    "mst": (
        dict(kind="mst", n=30, trials=20),
        "b3350cd329c76406bbf9a6a15edc11c30139f8515b4db011cda2aa50b9244787",
    ),
    "mst-dvalues": (
        dict(kind="mst", n=30, trials=20, alpha="dvalues:0.5x15,2x15"),
        "1ca7c3be96ac7a979bd29a32a3b6d9687b8b257a0e13bba2940ce24efaf239fd",
    ),
    "atsp": (
        dict(kind="atsp", n=12, trials=8, beta="uniform:2"),
        "eae87b515f87207ad0d7a218643c0b5528845fac5e277f0192b2bbabe3a68024",
    ),
    # unit alpha: the directed draw that skips the divide by alpha
    "atsp-ones": (
        dict(kind="atsp", n=40, trials=3),
        "a1312c16d90a41a6813a4e3237bfb31d790f885b43a54968c640d41880494f84",
    ),
    "moments": (
        dict(kind="moments", n=12, trials=50, p_values=(0.2,)),
        "d37ff87eba6fc62635674572f31309ac34ce774845d28e86709e82330504cf31",
    ),
    "moments-exponential": (
        dict(kind="moments", model="exponential", rate=2.0, n=12, trials=50, p_values=(0.2,)),
        "a256a6a761a76dc12f179214145aaf4a59c233ad6c514a5a0cbe864668b2b124",
    ),
    "moments-exponential-split": (
        dict(kind="moments", model="exponential", rate=2.0, n=800, trials=4, p_values=(0.01,)),
        "b7bbafb81b36b391589745bd0c842ebf2d52b265474e9eed522c387c57ea6690",
    ),
    # the streamed draw at non-unit alpha with L != N, over four leaves
    # (N+1 = 319,601): about 6,300 of the 319,600 coordinates fall below p
    "moments-alpha-L-split": (
        dict(kind="moments", n=800, trials=4, p_values=(0.005,), alpha="uniform:2", L=1e5),
        "aa8bf2033f9098c1925e4c40b900155c34d0f1c23675414c684394f1717a4916",
    ),
    "moments-ball": (
        dict(kind="moments", model="ball", radius=1.5, n=12, trials=50, p_values=(0.2,)),
        "808b8dafe1f1d31198bda1bf7e26810fd93404470cd0b9054ba85d2b2e4ca61e",
    ),
    "marginals": (
        dict(kind="marginals", n=6, trials=25, p_values=(0.4, 0.8)),
        "2f513951fda5e3ece6b4d45db1e17dc160f6864478b5b97feaf3667740562626",
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(FROZEN))
def test_csv_sha256_is_frozen(name, workers):
    if workers > (os.cpu_count() or 1):
        pytest.skip("workers=2 needs two CPUs")
    settings, expected = FROZEN[name]
    result = run_sweep(ExperimentConfig(seed=1, workers=workers, **settings))
    assert hashlib.sha256(result.csv_text.encode()).hexdigest() == expected
