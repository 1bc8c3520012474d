"""The block layout of the pair passes against a ``numpy.triu_indices`` oracle,
and the program's runs with that function unavailable."""

import importlib

import numpy as np
import pytest

from graphclean.cli import main
from graphclean.datasets import Dataset, SbmParams, save_bundle
from graphclean.denoise import DenoiseConfig, denoise, gradient, linear_coefficient
from graphclean.gcn import TrainConfig
from graphclean.operators import _block_layout, _listed_blocks, pair_count
from graphclean.pipeline import AttackSpec, ExperimentConfig, run_pipeline
from graphclean.rng import SplitMix64

from test_denoise import sparse_bundle

denoise_module = importlib.import_module("graphclean.denoise")


def index_gradient(values, deg, c, alpha, rows, cols):
    """Oracle: 2 alpha (2 w + deg[i] + deg[j]) - c, in the solver's order of adds."""
    g = deg[rows] + deg[cols]
    g += values
    g += values
    g *= 2.0 * alpha
    g -= c
    return g


def index_degrees(values, n):
    """Oracle: deg = S w as a bincount over the rows of ``triu_indices`` and
    then one over its columns, each added into zeros."""
    rows, cols = np.triu_indices(n, 1)
    deg = np.zeros(n)
    deg += np.bincount(rows, values, n)
    deg += np.bincount(cols, values, n)
    return deg


def index_primal_point(lam, target, deg_p, d_p, alpha, beta, block):
    """Oracle: w(lambda) in blocks of ``block`` pairs read off ``triu_indices``:
    the per-block (slice, indices, values) lists and nodes, the degrees,
    ||w - w_p||^2 - ||w_p||^2, <w, d_p> and max|c|."""
    n = lam.size
    rows, cols = np.triu_indices(n, 1)
    mu = lam / (4.0 * alpha)
    deg = np.zeros(n)
    blocks, nodes, sq, wd, c_max = [], [], 0.0, 0.0, 0.0
    for k0 in range(0, target.size, block):
        r, c = rows[k0:k0 + block], cols[k0:k0 + block]
        pb, db = target[k0:k0 + block], d_p[k0:k0 + block]
        cb = index_gradient(pb, deg_p, db * beta, alpha, r, c)
        c_max = max(c_max, float(np.abs(cb).max()))
        v = mu[r] + mu[c]
        v += db * (beta / (4.0 * alpha))
        v = pb - v
        on = np.flatnonzero(v > 0.0)
        w = v[on]
        sq += float(w @ (w - 2.0 * pb[on]))
        wd += float(w @ db[on])
        deg += np.bincount(r[on], w, n)
        deg += np.bincount(c[on], w, n)
        blocks.append((slice(k0, k0 + r.size), on, w))
        nodes.append((r[on], c[on]))
    return blocks, nodes, deg, sq, wd, c_max


def index_kkt(w, deg, target, deg_p, d_p, alpha, beta, block):
    """Oracle: the solver's KKT residual of w, a block of ``triu_indices`` at a time."""
    rows, cols = np.triu_indices(deg.size, 1)
    worst = c_max = 0.0
    for k0 in range(0, w.size, block):
        r, c = rows[k0:k0 + block], cols[k0:k0 + block]
        cb = index_gradient(target[k0:k0 + block], deg_p, d_p[k0:k0 + block] * beta,
                            alpha, r, c)
        g = index_gradient(w[k0:k0 + block], deg, cb, alpha, r, c)
        c_max = max(c_max, float(cb.max()), -float(cb.min()))
        worst = max(worst, float((np.abs(g) * (w[k0:k0 + block] > 0.0)).max()),
                    -float(g.min()))
    return worst / (1.0 + c_max)


def random_instance(n, seed):
    """Sparse pair weights, distances and a dual point with some pairs active."""
    rng = SplitMix64(seed)
    m = pair_count(n)
    target = rng.uniforms(m)
    target[target < 0.6] = 0.0
    d_p = 2.0 * rng.uniforms(m)
    lam = 2.0 * rng.uniforms(n) - 1.5
    w = rng.uniforms(m)
    w[w < 0.5] = 0.0
    return target, d_p, lam, w


@pytest.mark.parametrize("block", [1, 5, 16])
@pytest.mark.parametrize("n", [2, 3, 7, 40])
class TestBlockLayout:
    """Blocks that start and end mid-row, rows that span several blocks and
    blocks that span many rows, with ``_BLOCK`` patched to ``block``."""

    def test_segments_give_the_triu_pairs(self, n, block):
        rows, cols = np.triu_indices(n, 1)
        x = SplitMix64(n + block).uniforms(n)
        layout = _block_layout(n, block)
        assert len(layout) == -(-rows.size // block)
        for k0, segments in zip(range(0, rows.size, block), layout):
            r, c = rows[k0:k0 + block], cols[k0:k0 + block]
            assert segments.span == slice(k0, k0 + r.size)
            on = np.arange(r.size, dtype=np.int32)
            i, j = segments.nodes(on)
            np.testing.assert_array_equal(i, r)
            np.testing.assert_array_equal(j, c)
            assert i.dtype == j.dtype == np.int32
            np.testing.assert_array_equal(segments.sums(x, np.empty(r.size)), x[r] + x[c])
            some = on[::3]
            np.testing.assert_array_equal(np.stack(segments.nodes(some)),
                                          np.stack((r[some], c[some])))

    def test_listed_blocks_give_the_listed_pairs(self, n, block):
        rows, cols = np.triu_indices(n, 1)
        work = np.arange(0, rows.size, 2)
        listed = _listed_blocks(work, n, block)
        assert len(listed) == -(-work.size // block)
        for k0, pairs in zip(range(0, work.size, block), listed):
            assert pairs.span == slice(k0, min(k0 + block, work.size))
            np.testing.assert_array_equal(pairs.rows, rows[work[k0:k0 + block]])
            np.testing.assert_array_equal(pairs.cols, cols[work[k0:k0 + block]])

    def test_primal_point_kkt_and_degrees_match_the_oracle(self, n, block, monkeypatch):
        monkeypatch.setattr(denoise_module, "_BLOCK", block)
        alpha, beta = 0.75, 0.6
        target, d_p, lam, w = random_instance(n, 97 + n)
        deg_p = denoise_module._nonzero_degrees(target, n)
        np.testing.assert_array_equal(deg_p, index_degrees(target, n))
        deg = denoise_module._nonzero_degrees(w, n)
        np.testing.assert_array_equal(deg, index_degrees(w, n))

        m = pair_count(n)
        buffers = [np.empty(min(block, m)) for _ in range(3)]
        problem = (target, deg_p, d_p, alpha, beta, _block_layout(n, block), buffers)
        blocks, nodes, point_deg, sq, wd, c_max = denoise_module._primal_point(
            lam, *problem, with_c_max=True)
        expected = index_primal_point(lam, target, deg_p, d_p, alpha, beta, block)
        assert len(blocks) == len(nodes) == len(expected[0])
        for (span, on, values), (i, j), (span_x, on_x, values_x), (i_x, j_x) in zip(
                blocks, nodes, expected[0], expected[1]):
            assert span == span_x
            np.testing.assert_array_equal(on, on_x)
            np.testing.assert_array_equal(values, values_x)
            np.testing.assert_array_equal(i, i_x)
            np.testing.assert_array_equal(j, j_x)
        np.testing.assert_array_equal(point_deg, expected[2])
        assert (sq, wd, c_max) == expected[3:]
        assert sum(on.size for _, on, _ in blocks) > 0 or n == 2

        kkt_w, kkt = denoise_module._kkt(w, None, deg, problem)
        assert kkt_w is w
        assert kkt == index_kkt(w, deg, target, deg_p, d_p, alpha, beta, block)

    def test_public_oracles_match_the_index_forms(self, n, block, monkeypatch):
        monkeypatch.setattr(denoise_module, "_BLOCK", block)
        rows, cols = np.triu_indices(n, 1)
        alpha, beta = 0.75, 0.6
        target, d_p, _, w = random_instance(n, 89 + n)
        c = linear_coefficient(target, d_p, alpha, beta)
        np.testing.assert_array_equal(
            c, index_gradient(target, index_degrees(target, n), beta * d_p, alpha, rows, cols))
        np.testing.assert_array_equal(
            gradient(w, c, alpha), index_gradient(w, index_degrees(w, n), c, alpha, rows, cols))


def no_triu_indices(*args, **kwargs):
    raise AssertionError("numpy.triu_indices called")


class TestWithoutTriuIndices:
    """The program builds no pair index: with ``numpy.triu_indices`` made to
    raise, each path through the pair passes still runs."""

    def test_pipeline_on_all_pairs(self, monkeypatch):
        config = ExperimentConfig(
            sbm=SbmParams(nodes_per_block=30, blocks=2, p_in=0.2, p_out=0.01,
                          feature_dim=6, feature_signal=2.0, feature_noise=0.5),
            attack=AttackSpec(kind="heterophilic", rate=0.25),
            denoise=DenoiseConfig(alpha=1.0, beta=1.0, p=2.0, max_iters=100),
            train=TrainConfig(hidden=8, epochs=20, learning_rate=1e-2),
            repetitions=1, seed=11)
        monkeypatch.setattr(np, "triu_indices", no_triu_indices)
        summary = run_pipeline(config).repetitions[0]["denoise"]
        # a dense 60-node graph runs on all pairs: each trial point and the
        # final KKT residual read every pair
        assert summary["pair_passes"] > summary["iterations"]

    def test_denoise_on_the_working_set(self, monkeypatch):
        w_p, X, d_p = sparse_bundle()
        config = DenoiseConfig(alpha=1.0, beta=0.7, max_iters=500, tol=1e-8)
        monkeypatch.setattr(np, "triu_indices", no_triu_indices)
        result = denoise(w_p, X, config, d_p=d_p)
        # the trial points ran on W; a scan and the KKT pass read all pairs
        assert result.converged and 2 <= result.pair_passes < result.iterations_run

    def test_denoise_command(self, tmp_path, monkeypatch):
        w_p, X, _ = sparse_bundle()
        bundle = tmp_path / "bundle"
        save_bundle(Dataset(features=X, labels=np.arange(300) % 4, graph=w_p, num_classes=4),
                    bundle)
        monkeypatch.setattr(np, "triu_indices", no_triu_indices)
        out = tmp_path / "recovered"
        assert main(["denoise", "--bundle", str(bundle), "--beta", "0.7",
                     "--tol", "1e-8", "--out", str(out)]) == 0
        assert (out / "denoise_result.json").exists()

