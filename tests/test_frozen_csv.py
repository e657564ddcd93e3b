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
        "bcc0d8b293aa9f64f9a10a45d61de99f298bf02fad40f3cad3047837f319c21f",
    ),
    "connectivity-clogn": (
        dict(kind="connectivity", n=200, trials=20, p_mode="clogn", c_values=(-1.0, 0.0, 1.0)),
        "a069bd14f9410ca4a12692542561b5abc98a920a84116c796ea15fcd6d255d9d",
    ),
    "matching": (
        dict(kind="matching", n=20, trials=20, p_values=(0.3, 0.6)),
        "5980968f6f053cf58f9821eed3eb666fa08e72067a4bdc5faf7ee192cfb4937e",
    ),
    "giant": (
        dict(kind="giant", n=60, trials=20, p_values=(0.05,)),
        "a52cc4c78f125f8b4a4478c74e4f2b58607a253ce0c4ed17bc5c95915f7ca01b",
    ),
    # average degree 0.5 and 1.5: hundreds of components per trial, so the
    # component labels and the size ties are pinned, not only the giant.
    "giant-subcritical": (
        dict(kind="giant", n=400, trials=10, p_values=(0.00125, 0.00375)),
        "671ab4a08f7b2e91bafbfb4ec15b02e2cd9ea479df80c364713c4c413759436e",
    ),
    "diameter": (
        dict(kind="diameter", n=60, trials=10, p_mode="theta", theta=0.6),
        "6cd5c81257094b4a95456657fcf0d27ef3b48df42e950786ca496edfbdc8751d",
    ),
    # n=800 has N+1 >= 2^18 coordinates and diameter 4: it takes the split
    # draw and the BFS level that pulls only unfinished columns.
    "diameter-split": (
        dict(kind="diameter", n=800, trials=4, p_mode="theta", theta=0.45),
        "248fc3b7191894d3cf07b7b682772691ebd17a35f74666a7e487e0c7a60bcebe",
    ),
    "hamilton": (
        dict(kind="hamilton", n=12, trials=10, p_values=(0.5,)),
        "d851882989db8041ccfbd596b31d65097c46c16e33d8941459320112bd1a3ef1",
    ),
    "mst": (
        dict(kind="mst", n=30, trials=20),
        "a69c630ef1ef6852bd61b00653ec30091d66176728b053fd4d78f3514b8ca109",
    ),
    "mst-dvalues": (
        dict(kind="mst", n=30, trials=20, alpha="dvalues:0.5x15,2x15"),
        "5471cea19ae869c021fd5f8b2e4da3072ed82a1a1afa43286d131b321312377f",
    ),
    "atsp": (
        dict(kind="atsp", n=12, trials=8, beta="uniform:2"),
        "299bc06ab44a0253b4c786e458b5ce416c35deb81ace0b04bb6fde9238b80779",
    ),
    # unit alpha: the directed draw that skips the divide by alpha
    "atsp-ones": (
        dict(kind="atsp", n=40, trials=3),
        "7176f23addc3dc99983351eacc974b9cd3e415cea2da850b19cee2bf3341b83c",
    ),
    "moments": (
        dict(kind="moments", n=12, trials=50, p_values=(0.2,)),
        "cba34e75a20c1b21fae1773ee56fb5c6789f83eab88913a5c4ab7bb581415fcf",
    ),
    "moments-exponential": (
        dict(kind="moments", model="exponential", rate=2.0, n=12, trials=50, p_values=(0.2,)),
        "7390171f033bc52ed3bafa3f1027753c660b550164d4c24f8bf1ae398bb4407c",
    ),
    "moments-exponential-split": (
        dict(kind="moments", model="exponential", rate=2.0, n=800, trials=4, p_values=(0.01,)),
        "1c72f21fd1cd939ddefdf57af7de21cd38783eb261cfea65c59fc8710bb11014",
    ),
    "moments-ball": (
        dict(kind="moments", model="ball", radius=1.5, n=12, trials=50, p_values=(0.2,)),
        "9dd16087a9944fa736db687e21e38175c79a80e10d8c50888d2be57e55931f99",
    ),
    "marginals": (
        dict(kind="marginals", n=6, trials=25, p_values=(0.4, 0.8)),
        "56321b6cd31d5e3df7f87d7dd17b2e21a5f9986730caf2d326d4380cbc24c936",
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
