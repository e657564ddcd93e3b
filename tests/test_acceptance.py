"""Acceptance suite: every headline check at its stated tolerance.

Each test prints one `[acceptance] ...: PASS/FAIL` line (run pytest with -s to
stream them).  All randomness is seeded; every run is bit-reproducible.
"""

import itertools
import math

import numpy as np
import pytest

from brutes import (
    all_graphs,
    assignment_brute,
    components_brute,
    diameter_brute,
    mst_series_subset_reference,
    mst_weight_brute,
)
from simplexgraphs import (
    CostMatrix,
    DecomposableWeights,
    DensityModel,
    EdgeSpace,
    ExperimentConfig,
    IsolationProfile,
    SeededRng,
    SimplexModel,
    ThresholdGraph,
    WeightVector,
    atsp_experiment,
    check_basic_bounds,
    components,
    diameter,
    edge_count_variance_bound,
    expected_edge_count,
    hungarian,
    is_connected,
    is_hamiltonian,
    mst_experiment,
    mst_series,
    mst_weight,
    prob_all_absent,
    run_sweep,
    sample_simplex_batch,
    solve_p0,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def test_c01_exact_marginal_law():
    # KS distance between 1e5 sampled coordinates (alpha=1, n=20, L=N) and
    # the exact law 1 - (1 - p/190)^190, below 0.0062
    model = SimplexModel.uniform(20)
    N = model.space.num_edges
    xs = sample_simplex_batch(model, SeededRng(101, 0), 100_000)
    vals = np.sort(xs[:, 0])
    cdf = 1.0 - (1.0 - np.minimum(vals / model.L, 1.0)) ** N
    k = np.arange(1, vals.size + 1)
    ks = max(np.max(k / vals.size - cdf), np.max(cdf - (k - 1) / vals.size))
    ok = ks < 0.0062
    report("C01 exact marginal law", ok, f"KS={ks:.5f} limit 0.0062")
    assert ok


def test_c02_joint_absence_probability():
    # 20 randomized (n <= 10, S, p) cases, 1e5 samples each: Monte Carlo
    # frequency inside the 3-sigma binomial interval in >= 19 cases
    gen = np.random.Generator(np.random.Philox(key=[2024, 0]))
    hits = 0
    for case in range(20):
        n = int(gen.integers(4, 11))
        model = SimplexModel.uniform(n)
        N = model.space.num_edges
        size = int(gen.integers(1, max(2, N // 2)))
        S = gen.choice(N, size=size, replace=False)
        p = float(gen.uniform(0.05, 0.5))
        prob = prob_all_absent(model, S, p)
        xs = sample_simplex_batch(model, SeededRng(300 + case, 0), 100_000)
        freq = float((xs[:, S] > p).all(axis=1).mean())
        se = math.sqrt(max(prob * (1 - prob), 1e-12) / 100_000)
        hits += abs(freq - prob) <= 3 * se
    ok = hits >= 19
    report("C02 joint absence probability", ok, f"{hits}/20 cases within 3 sigma")
    assert ok


def test_c03_edge_count_moments():
    # alpha=1, n=30, p=0.1, 1e4 trials: mean within 3 se of qN, variance <= 1.15 qN
    cfg = ExperimentConfig(kind="moments", n=30, trials=10_000, seed=102, p_values=(0.1,))
    counts = np.asarray([r.outcome for r in run_sweep(cfg).records])
    model = SimplexModel.uniform(30)
    qn = expected_edge_count(model, 0.1)
    bound = edge_count_variance_bound(model, 0.1)
    mean, var = counts.mean(), counts.var(ddof=1)
    mean_ok = abs(mean - qn) <= 3 * math.sqrt(var / counts.size)
    var_ok = var <= 1.15 * bound
    ok = mean_ok and var_ok
    report(
        "C03 edge-count moments",
        ok,
        f"mean={mean:.3f} qN={qn:.3f} var={var:.3f} bound={bound:.3f}",
    )
    assert ok


def test_c04_connectivity_limit_law():
    # alpha=1, n=1000, T=1000 per c in {-2, 0, 2}: frequency within 0.06 of
    # exp(-exp(-c)) = 0.00062, 0.36788, 0.87342
    cfg = ExperimentConfig(
        kind="connectivity", n=1000, trials=1000, seed=104, p_mode="clogn", c_values=(-2.0, 0.0, 2.0)
    )
    theory = {-2.0: 0.00062, 0.0: 0.36788, 2.0: 0.87342}
    detail = []
    ok = True
    for c, s in zip(cfg.c_values, run_sweep(cfg).summaries):
        assert s["oracle"] == pytest.approx(theory[c], abs=1e-5)
        gap = abs(s["freq"] - s["oracle"])
        ok &= gap <= 0.06
        detail.append(f"c={c:+.0f}: freq={s['freq']:.4f} theory={s['oracle']:.5f}")
    report("C04 connectivity limit law", ok, "; ".join(detail))
    assert ok


def test_c05_p0_solver_and_transition():
    # residual <= 1e-9 on 50 random M<=2 models at n=500; exact alpha scaling;
    # connectivity frequencies at (1 -+ 0.3) p0 separated by >= 0.5
    gen = np.random.Generator(np.random.Philox(key=[505, 0]))
    worst = 0.0
    for _ in range(50):
        space = EdgeSpace(500)
        alpha = gen.uniform(0.5, 2.0, space.num_edges)
        model = SimplexModel(space, alpha, float(space.num_edges), M=2.0)
        p0 = solve_p0(model)
        worst = max(worst, abs(IsolationProfile(model).total(p0) - 1.0))
    residual_ok = worst <= 1e-9

    space = EdgeSpace(100)
    alpha = gen.uniform(0.5, 2.0, space.num_edges)
    base = SimplexModel(space, alpha, float(space.num_edges))
    scaled = SimplexModel(space, 3.0 * alpha, float(space.num_edges))
    scaling_gap = abs(solve_p0(scaled) - solve_p0(base) / 3.0)
    scaling_ok = scaling_gap <= 1e-9

    cfg = ExperimentConfig(kind="connectivity", n=1000, trials=500, seed=106, p_mode="p0eps", eps=0.3)
    below, above = run_sweep(cfg).summaries
    separation = above["freq"] - below["freq"]
    transition_ok = separation >= 0.5

    ok = residual_ok and scaling_ok and transition_ok
    report(
        "C05 p0 solver and transition",
        ok,
        f"worst residual={worst:.2e}; scaling gap={scaling_gap:.2e}; "
        f"freq {below['freq']:.3f} -> {above['freq']:.3f} (sep {separation:.3f})",
    )
    assert ok


def test_c06_giant_component():
    # n=2000, T=200: largest fraction >= 0.4 in >= 95% at p=1.5/n,
    # <= 0.1 in >= 95% at p=0.5/n
    n = 2000
    cfg = ExperimentConfig(
        kind="giant", n=n, trials=200, seed=107, p_values=(1.5 / n, 0.5 / n)
    )
    result = run_sweep(cfg)
    supercritical = np.asarray([r.outcome for r in result.records if r.p_index == 0])
    subcritical = np.asarray([r.outcome for r in result.records if r.p_index == 1])
    frac_big = (supercritical >= 0.4).mean()
    frac_small = (subcritical <= 0.1).mean()
    ok = frac_big >= 0.95 and frac_small >= 0.95
    report(
        "C06 giant component",
        ok,
        f"p=1.5/n: frac>=0.4 in {frac_big:.2%}; p=0.5/n: frac<=0.1 in {frac_small:.2%}",
    )
    assert ok


def test_c07_diameter_regimes():
    # modal diameter 2 at (n=2000, theta=0.8) with >= 90% hitting exactly 2;
    # modal diameter 3 at (n=3000, theta=0.45); diameter <= k-1 in <= 5%
    cfg2 = ExperimentConfig(kind="diameter", n=2000, trials=100, seed=1070, p_mode="theta", theta=0.8)
    d2 = np.asarray([r.outcome for r in run_sweep(cfg2).records])
    cfg3 = ExperimentConfig(kind="diameter", n=3000, trials=50, seed=1071, p_mode="theta", theta=0.45)
    d3 = np.asarray([r.outcome for r in run_sweep(cfg3).records])

    vals2, counts2 = np.unique(d2, return_counts=True)
    mode2 = float(vals2[np.argmax(counts2)])
    share2 = (d2 == 2.0).mean()
    low2 = (d2 <= 1.0).mean()
    vals3, counts3 = np.unique(d3, return_counts=True)
    mode3 = float(vals3[np.argmax(counts3)])
    low3 = (d3 <= 2.0).mean()

    k2_ok = mode2 == 2.0 and share2 >= 0.90 and low2 <= 0.05
    k3_mode_ok = mode3 == 3.0
    k3_low_ok = low3 <= 0.05
    ok = k2_ok and k3_mode_ok and k3_low_ok
    report(
        "C07 diameter regimes",
        ok,
        f"(2000, 0.8): mode={mode2:.0f} share2={share2:.2%} low={low2:.2%}; "
        f"(3000, 0.45): mode={mode3:.0f} low={low3:.2%}",
    )
    assert k2_ok, f"k=2 regime failed: mode={mode2}, share={share2:.2%}, low={low2:.2%}"
    assert k3_low_ok, f"diameter <= 2 in {low3:.2%} of trials at (3000, 0.45)"
    assert k3_mode_ok, (
        f"modal diameter {mode3:.0f} != 3 at (n=3000, theta=0.45): at this size the "
        f"degree-fluctuation tail leaves ~30 vertex pairs per instance at distance 4, "
        f"so every trial has diameter 4; the k=3 window needs n >~ 15000 at theta=0.45 "
        f"(theta=0.49 reaches it at n=3000, see test_graphs.TestDiameterRegimes)"
    )


def test_c08_mst_series_and_monte_carlo():
    # d=1, n=200, T=500: |MC - series| / series <= 0.05; series within 0.02 of
    # the zeta(3) partial sum; mst_series equals the subset reference within
    # 1e-10 at n=16 (8 x 0.8, 8 x 1.25)
    res = mst_experiment("ones", 200, trials=500, seed=108)
    gap_ok = res.relative_gap <= 0.05
    zeta3 = float(sum(1.0 / k**3 for k in range(1, 100_001)))
    series_ok = abs(res.series_value - zeta3) <= 0.02
    d16 = np.array([0.8] * 8 + [1.25] * 8)
    agreement = abs(mst_series(DecomposableWeights(d16)) - mst_series_subset_reference(d16))
    reference_ok = agreement <= 1e-10
    ok = gap_ok and series_ok and reference_ok
    report(
        "C08 minimum spanning tree",
        ok,
        f"MC={res.mc_mean:.5f} series={res.series_value:.5f} gap={res.relative_gap:.3%}; "
        f"series-zeta3={abs(res.series_value - zeta3):.4f}; series-subsets={agreement:.1e}",
    )
    assert ok


def test_c09_atsp_quality():
    # beta=1, T=20: mean(tour/assignment) decreasing from n=100 to n=300, both
    # <= 1.25; at n=9, T=50: tour/optimum mean <= 1.35 and assignment <= optimum
    # always; Hungarian equals brute force on 100 random 7x7 instances
    rows = atsp_experiment("ones", (100, 300), trials=20, seed=110)
    r100, r300 = rows[0].mean_tour_over_assignment, rows[1].mean_tour_over_assignment
    trend_ok = r300 < r100 and r100 <= 1.25 and r300 <= 1.25

    # aux = (tour_cost, assignment_cost, cycles, optimal_cost)
    records = run_sweep(ExperimentConfig(kind="atsp", n=9, trials=50, seed=111)).records
    opt_ratios = [r.aux[0] / r.aux[3] for r in records]
    lower_bound_ok = all(r.aux[1] <= r.aux[3] + 1e-9 for r in records)
    opt_ok = float(np.mean(opt_ratios)) <= 1.35

    brute_ok = True
    for seed in range(100):
        gen = np.random.default_rng(9000 + seed)
        m = gen.uniform(0.01, 1.0, (7, 7))
        np.fill_diagonal(m, np.inf)
        c = CostMatrix(m)
        brute_ok &= abs(hungarian(c).cost - assignment_brute(c.matrix)) < 1e-9

    ok = trend_ok and opt_ok and lower_bound_ok and brute_ok
    report(
        "C09 ATSP assignment plus patching",
        ok,
        f"ratio n=100: {r100:.4f} -> n=300: {r300:.4f}; tour/opt(n=9)={np.mean(opt_ratios):.4f}; "
        f"assignment<=optimum: {lower_bound_ok}; brute 7x7: {brute_ok}",
    )
    assert ok


def test_c10_structural_oracles():
    # components/diameter/connectivity vs brute force on all 1024 graphs with
    # n=5; Kruskal vs spanning-tree enumeration on 100 instances n <= 6;
    # Hamiltonicity on cycles, cliques, stars up to n=10
    graphs_ok = True
    for bits, adj in all_graphs(5):
        g = ThresholdGraph.from_edges(
            5, [(i, j) for i in range(5) for j in range(i + 1, 5) if adj[i, j]]
        )
        brute = components_brute(adj)
        summary = components(g)
        graphs_ok &= summary.kappa == len(brute)
        graphs_ok &= summary.sizes == tuple(len(c) for c in brute)
        graphs_ok &= is_connected(g) == (len(brute) == 1)
        graphs_ok &= diameter(g) == diameter_brute(adj)

    gen = np.random.default_rng(1010)
    kruskal_ok = True
    for _ in range(100):
        n = int(gen.integers(3, 7))
        space = EdgeSpace(n)
        x = WeightVector(space, gen.uniform(0.0, 1.0, space.num_edges))
        kruskal_ok &= abs(mst_weight(x)[0] - mst_weight_brute(x)) < 1e-12

    ham_ok = True
    for n in range(3, 11):
        cycle = ThresholdGraph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])
        clique = ThresholdGraph.from_edges(n, list(itertools.combinations(range(n), 2)))
        star = ThresholdGraph.from_edges(n, [(0, v) for v in range(1, n)])
        ham_ok &= is_hamiltonian(cycle) and is_hamiltonian(clique) and not is_hamiltonian(star)

    ok = graphs_ok and kruskal_ok and ham_ok
    report(
        "C10 structural oracles",
        ok,
        f"1024-graph census: {graphs_ok}; Kruskal vs enumeration: {kruskal_ok}; "
        f"Hamiltonicity families: {ham_ok}",
    )
    assert ok


def test_c11_marginal_density_bounds():
    # p*M_f/2 <= P(X_e <= p) <= p*M_f at 100 grid points in [0, sd], exact
    # CDFs, for the exponential and simplex marginals
    results = []
    for density in (
        DensityModel.product_exponential(1.0, EdgeSpace(5)),
        DensityModel.from_simplex(SimplexModel.uniform(20)),
    ):
        sd = density.std_dev(0)
        reports = check_basic_bounds(density, 0, np.linspace(0.0, sd, 100))
        results.append(all(r.upper_ok and r.lower_ok and not r.skipped for r in reports))
    ok = all(results)
    report("C11 marginal density bounds", ok, f"exponential: {results[0]}; simplex: {results[1]}")
    assert ok


def test_c12_general_model_monotone_sweep():
    # orthant ball, n=300, 20 thresholds spanning [0.1, 10] * sigma ln n / n,
    # T=100: connectivity frequency nondecreasing (<= 2 inversions) and
    # saturating at 0 and 1
    n = 300
    space = EdgeSpace(n)
    density = DensityModel.orthant_ball(1.0, space)
    base = density.sigma_max * math.log(n) / n
    thresholds = np.geomspace(0.1 * base, 10 * base, 20)
    cfg = ExperimentConfig(
        kind="connectivity", model="ball", n=n, trials=100, seed=112, p_values=tuple(map(float, thresholds))
    )
    freqs = [s["freq"] for s in run_sweep(cfg).summaries]
    inversions = sum(1 for a, b in zip(freqs, freqs[1:]) if b < a - 1e-12)
    ok = inversions <= 2 and freqs[0] == 0.0 and freqs[-1] == 1.0
    report(
        "C12 monotone connectivity sweep (general model)",
        ok,
        f"inversions={inversions}; freq[0]={freqs[0]:.2f} freq[-1]={freqs[-1]:.2f}",
    )
    assert ok
