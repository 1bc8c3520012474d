"""Acceptance gate: one test per acceptance criterion, with timing lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The Cora/Citeseer statistics check skips when the prepared
bundles are not present (see README for the expected layout).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from graphclean.attacks import heterophilic_add
from graphclean.datasets import SbmParams, generate_sbm, load_bundle
from graphclean.denoise import (
    DenoiseConfig,
    denoise,
    gradient,
    linear_coefficient,
    pairwise_p_distances,
)
from graphclean.gcn import TrainConfig, loss_and_gradients
from graphclean.operators import WeightVector, pair_count, pair_index
from graphclean.pipeline import (
    AttackSpec,
    ExperimentConfig,
    report_json_text,
    run_pipeline,
    sweep,
)
from graphclean.rng import SplitMix64, derive_seed
from graphclean.operators import _triu

from test_denoise import finite_difference_gradient, random_problem
from test_gcn import fd_parameter_gradient, random_gcn_instance
from test_operators import (
    adjoint_of,
    dominant_eigenvalue,
    laplacian_from_weights,
    validate_laplacian,
)


def _report(name: str, start: float, limit: float, passed: bool):
    elapsed = time.perf_counter() - start
    verdict = "PASS" if passed and elapsed < limit else "FAIL"
    print(f"[{verdict}] {name} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert passed
    assert elapsed < limit, f"{name} exceeded its runtime budget"


# the defense-trend experiment pinned by the acceptance criteria
TREND_SBM = SbmParams(nodes_per_block=50, blocks=2, p_in=0.2, p_out=0.01,
                      feature_dim=8, feature_signal=2.0, feature_noise=0.5)
TREND_SEED = 7


def test_operator_algebra_suite():
    start = time.perf_counter()
    rng = SplitMix64(101)
    ok = True
    for _ in range(200):
        n = 3 + rng.bounded(10)
        m = pair_count(n)
        w = np.array([rng.uniform() for _ in range(m)])
        Y = np.array([[rng.uniform() - 0.5 for _ in range(n)] for _ in range(n)])
        lhs = float(np.sum(laplacian_from_weights(w) * Y))
        rhs = float(w @ adjoint_of(Y))
        ok &= abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))
        ok &= validate_laplacian(laplacian_from_weights(w), 1e-9).ok
    for n in range(3, 13):
        ks = [pair_index(i, j, n) for j in range(1, n) for i in range(j + 1, n + 1)]
        ok &= sorted(ks) == list(range(1, pair_count(n) + 1))
        matvec = lambda v: adjoint_of(laplacian_from_weights(v))
        lam = dominant_eigenvalue(matvec, dim=pair_count(n), iters=500)
        ok &= lam <= 2 * n * (1 + 1e-9)
    _report("operator algebra suite (adjoint, structure, bijection, norm)",
            start, 5.0, ok)


def test_gradient_oracles():
    start = time.perf_counter()
    ok = True
    rng = SplitMix64(103)
    for _ in range(50):
        n = 3 + rng.bounded(8)
        w_p, d_p, alpha, beta = random_problem(rng, n)
        w = np.array([rng.uniform() for _ in range(pair_count(n))])
        c = linear_coefficient(w_p, d_p, alpha, beta)
        analytic = gradient(w, c, alpha)
        numeric = finite_difference_gradient(w, w_p, d_p, alpha, beta)
        ok &= np.max(np.abs(analytic - numeric)) <= 1e-5 * (1.0 + np.max(np.abs(numeric)))
    for seed in range(50):
        params, A_hat, X, labels, mask = random_gcn_instance(seed)
        wd = 5e-4 if seed % 2 else 0.0
        _, g1, g2 = loss_and_gradients(params, A_hat, X, labels, mask, wd)
        fd1, fd2 = fd_parameter_gradient(params, A_hat, X, labels, mask, wd)
        ok &= np.max(np.abs(g1 - fd1)) <= 1e-4 * (1.0 + np.max(np.abs(fd1)))
        ok &= np.max(np.abs(g2 - fd2)) <= 1e-4 * (1.0 + np.max(np.abs(fd2)))
    _report("gradient oracles (denoiser 1e-5, GCN 1e-4, 50 instances each)",
            start, 30.0, ok)


def test_descent_and_kkt():
    start = time.perf_counter()
    ok = True
    rng = SplitMix64(107)
    for _ in range(20):
        n = 5 + rng.bounded(46)
        w_p, d_p, alpha, beta = random_problem(rng, n)
        config = DenoiseConfig(alpha=alpha, beta=beta, max_iters=100000, tol=1e-12)
        result = denoise(w_p, np.zeros((n, 2)), config, d_p=d_p)
        ok &= result.converged
        ok &= bool(np.all(np.diff(result.objective_trace) <= 1e-10))
        w = result.weights.values
        c = linear_coefficient(w_p, d_p, alpha, beta)
        g = gradient(w, c, alpha)
        slack = 1e-4 * (1.0 + np.max(np.abs(c)))
        active = w > 1e-8
        ok &= bool(np.all(np.abs(g[active]) <= slack))
        ok &= bool(np.all(g[~active] >= -slack))
    _report("descent + KKT on 20 random instances (n <= 50)", start, 60.0, ok)


def test_exact_recovery_fixed_point():
    start = time.perf_counter()
    ok = True
    rng = SplitMix64(109)
    for _ in range(10):
        n = 5 + rng.bounded(26)
        m = pair_count(n)
        w_true = WeightVector(n=n, values=[rng.uniform() if rng.uniform() < 0.3 else 0.0
                                           for _ in range(m)])
        phi_n = laplacian_from_weights(w_true)
        config = DenoiseConfig(alpha=1.0, beta=0.0, max_iters=2000)
        # the descent starts from w_true by default, so force a cold start
        result = denoise(w_true, np.zeros((n, 2)), config, w0=np.zeros(m))
        residual = np.linalg.norm(laplacian_from_weights(result.weights) - phi_n)
        ok &= residual <= 1e-6 * np.linalg.norm(phi_n)
    _report("exact recovery with beta=0 within 2000 iterations (10 graphs)",
            start, 60.0, ok)


def test_defense_trend():
    start = time.perf_counter()
    config = ExperimentConfig(
        sbm=TREND_SBM,
        attack=AttackSpec(kind="heterophilic", rate=0.25),
        denoise=DenoiseConfig(alpha=1.0, beta=1.0, p=2.0, max_iters=200),
        train=TrainConfig(hidden=16, epochs=250, learning_rate=1e-2,
                          weight_decay=5e-4),
        repetitions=10,
        seed=TREND_SEED,
    )
    report = run_pipeline(config)
    clean = report.aggregates["clean"]["mean"]
    poisoned = report.aggregates["poisoned"]["mean"]
    denoised = report.aggregates["denoised"]["mean"]
    print(f"  clean {clean:.3f}, poisoned {poisoned:.3f}, denoised {denoised:.3f}")
    ok = (denoised >= poisoned + 0.02) and (clean >= 0.9)
    _report("defense trend (denoised >= poisoned + 2 pts, clean >= 0.9)",
            start, 300.0, ok)


def test_adversarial_weight_suppression():
    start = time.perf_counter()
    ok = True
    ds = generate_sbm(TREND_SBM, derive_seed(TREND_SEED, 0, 1))
    budget = int(0.25 * ds.graph.edge_count)
    poisoned = heterophilic_add(ds, budget, derive_seed(TREND_SEED, 0, 3))
    injected = np.flatnonzero((ds.graph.values == 0) & (poisoned.values > 0))
    rows, cols = _triu(ds.n)
    intra = np.flatnonzero((ds.graph.values > 0)
                           & (ds.labels[rows] == ds.labels[cols]))
    for p in (1.0, 2.0, 3.0):
        d_p = pairwise_p_distances(ds.features, p)
        for beta in (0.5, 1.0, 1.5):
            config = DenoiseConfig(alpha=1.0, beta=beta, p=p, max_iters=200)
            result = denoise(poisoned, ds.features, config, d_p=d_p)
            w = result.weights.values
            strict = float(np.median(w[injected])) < float(np.median(w[intra]))
            ok &= strict
    _report("adversarial-weight suppression across beta x p grid", start, 120.0, ok)


def _data_dir() -> Path:
    env = os.environ.get("GRAPHCLEAN_DATA")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data"


@pytest.mark.parametrize("name,stats", [
    ("cora", (2485, 5069, 7, 1433)),
    ("citeseer", (2110, 3668, 6, 3703)),
])
def test_dataset_statistics(name, stats):
    bundle = _data_dir() / name
    if not bundle.is_dir():
        pytest.skip(f"{name} bundle not prepared under {bundle}")
    start = time.perf_counter()
    ds = load_bundle(bundle)
    nodes, edges, classes, features = stats
    ok = (ds.n == nodes and ds.graph.edge_count == edges
          and ds.num_classes == classes and ds.feature_dim == features)
    print(f"  {name}: n={ds.n}, edges={ds.graph.edge_count}, "
          f"classes={ds.num_classes}, features={ds.feature_dim}")
    _report(f"dataset statistics ({name})", start, 120.0, ok)


def test_protocol_fidelity_rate_sweep():
    start = time.perf_counter()
    config = ExperimentConfig(
        sbm=SbmParams(nodes_per_block=30, blocks=2, p_in=0.2, p_out=0.01,
                      feature_dim=6, feature_signal=2.0, feature_noise=0.5),
        attack=AttackSpec(kind="random"),
        denoise=DenoiseConfig(alpha=1.0, beta=0.5, p=2.0, max_iters=100),
        train=TrainConfig(hidden=8, epochs=80, learning_rate=1e-2),
        repetitions=3,
        seed=21,
    )
    rates = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25]
    reports = sweep(config, "rate", rates)
    ok = len(reports) == 6
    seeds = [[r["seed"] for r in rep.repetitions] for rep in reports]
    ok &= all(s == seeds[0] for s in seeds)
    for rep in reports:
        for arm in ("clean", "poisoned", "denoised"):
            values = [r["accuracy"][arm] for r in rep.repetitions]
            ok &= abs(rep.aggregates[arm]["mean"] - np.mean(values)) <= 1e-12
            ok &= abs(rep.aggregates[arm]["std"] - np.std(values, ddof=1)) <= 1e-12
    _report("protocol fidelity: paired rate sweep over {0..25}%", start, 120.0, ok)


def test_determinism_byte_identical():
    start = time.perf_counter()
    config = ExperimentConfig(
        sbm=SbmParams(nodes_per_block=20, blocks=2, p_in=0.25, p_out=0.02,
                      feature_dim=5, feature_signal=2.0, feature_noise=0.5),
        attack=AttackSpec(kind="heterophilic", rate=0.25),
        denoise=DenoiseConfig(alpha=1.0, beta=1.0, max_iters=80),
        train=TrainConfig(hidden=8, epochs=60, learning_rate=1e-2),
        repetitions=3,
        seed=33,
    )
    first = report_json_text(run_pipeline(config))
    second = report_json_text(run_pipeline(config))
    ok = first == second
    # the serialized form parses back to the same aggregates
    ok &= json.loads(first)["aggregates"] == json.loads(second)["aggregates"]
    _report("determinism: fixed-seed pipeline is byte-identical", start, 120.0, ok)
