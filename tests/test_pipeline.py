"""Experiment orchestration: pairing, determinism, aggregation, error context."""

import dataclasses
import json

import numpy as np
import pytest

from graphclean import pipeline
from graphclean.datasets import SbmParams, generate_sbm, save_bundle
from graphclean.denoise import DenoiseConfig, pairwise_p_distances
from graphclean.gcn import TrainConfig
from graphclean.pipeline import (
    ARMS,
    AttackSpec,
    ExperimentConfig,
    PipelineStageError,
    report_json_text,
    run_pipeline,
    sweep,
    write_report_csv,
    write_report_json,
)


def small_config(**overrides):
    base = dict(
        sbm=SbmParams(nodes_per_block=30, blocks=2, p_in=0.2, p_out=0.01,
                      feature_dim=6, feature_signal=2.0, feature_noise=0.5),
        attack=AttackSpec(kind="heterophilic", rate=0.25),
        denoise=DenoiseConfig(alpha=1.0, beta=1.0, p=2.0, max_iters=100),
        train=TrainConfig(hidden=8, epochs=60, learning_rate=1e-2),
        repetitions=3,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# the config echo of small_config(repetitions=1), key order included
CONFIG_ECHO = """{
  "bundle": null,
  "sbm": {
    "nodes_per_block": 30,
    "blocks": 2,
    "p_in": 0.2,
    "p_out": 0.01,
    "feature_dim": 6,
    "feature_signal": 2.0,
    "feature_noise": 0.5
  },
  "attack": {
    "kind": "heterophilic",
    "rate": 0.25,
    "budget": 0
  },
  "denoise": {
    "alpha": 1.0,
    "beta": 1.0,
    "p": 2.0,
    "max_iters": 100,
    "tol": 1e-06
  },
  "train": {
    "hidden": 8,
    "epochs": 60,
    "learning_rate": 0.01,
    "weight_decay": 0.0005
  },
  "fractions": [
    0.8,
    0.1,
    0.1
  ],
  "repetitions": 1,
  "seed": 11
}"""


class TestRunPipeline:
    def test_noop_attack_gives_identical_arms(self):
        report = run_pipeline(small_config(attack=AttackSpec(kind="none"),
                                           repetitions=2))
        for record in report.repetitions:
            assert record["accuracy"]["clean"] == record["accuracy"]["poisoned"]
            assert record["attack"]["edges_added"] == 0

    def test_fixed_seed_runs_are_byte_identical(self):
        a = report_json_text(run_pipeline(small_config()))
        b = report_json_text(run_pipeline(small_config()))
        assert a == b

    def test_report_is_self_contained(self):
        # the config echo names every value of the run, so a rerun built
        # from it alone writes the same bytes
        report = run_pipeline(small_config(repetitions=2))
        echo = json.loads(report_json_text(report))["config"]
        rebuilt = ExperimentConfig(
            bundle=echo["bundle"], sbm=SbmParams(**echo["sbm"]),
            attack=AttackSpec(**echo["attack"]), denoise=DenoiseConfig(**echo["denoise"]),
            train=TrainConfig(**echo["train"]), fractions=tuple(echo["fractions"]),
            repetitions=echo["repetitions"], seed=echo["seed"])
        assert report_json_text(run_pipeline(rebuilt)) == report_json_text(report)

    def test_config_echo_is_pinned(self):
        config = small_config(repetitions=1)
        report = run_pipeline(config)
        assert json.dumps(dataclasses.asdict(config), indent=2) == CONFIG_ECHO
        assert report_json_text(report).startswith(
            '{\n  "config": ' + CONFIG_ECHO.replace("\n", "\n  ") + ",\n")

    def test_report_structure_and_aggregates(self):
        report = run_pipeline(small_config())
        assert len(report.repetitions) == 3
        for record in report.repetitions:
            assert list(record["denoise"]) == ["iterations", "converged", "kkt_residual",
                                               "pair_passes", "final_objective"]
            assert record["denoise"]["pair_passes"] >= 1
        for arm in ARMS:
            values = [r["accuracy"][arm] for r in report.repetitions]
            agg = report.aggregates[arm]
            assert abs(agg["mean"] - np.mean(values)) <= 1e-12
            assert abs(agg["std"] - np.std(values, ddof=1)) <= 1e-12

    def test_records_epochs_run_and_best_epoch(self, monkeypatch):
        """Each arm's record holds the epochs its training ran and its best
        validation epoch, as its TrainReport gives them."""
        reports = []
        real = pipeline.train

        def spy(*args):
            result = real(*args)
            reports.append(result[1])
            return result
        monkeypatch.setattr(pipeline, "train", spy)
        report = run_pipeline(small_config(repetitions=2,
                                           train=TrainConfig(hidden=8, epochs=250)))
        got = [record["train"][arm] for record in report.repetitions for arm in ARMS]
        assert got == [{"epochs": len(r.loss_trace), "best_val_epoch": r.best_val_epoch}
                       for r in reports]
        assert any(entry["epochs"] < 250 for entry in got)

    def test_single_repetition_std_is_zero(self):
        report = run_pipeline(small_config(repetitions=1))
        assert report.aggregates["clean"]["std"] == 0.0

    def test_stage_error_carries_context(self):
        config = small_config(attack=AttackSpec(kind="heterophilic", budget=10**6))
        with pytest.raises(PipelineStageError, match="repetition 0, stage attack"):
            run_pipeline(config)

    def test_bundle_source(self, bundle_dir):
        config = ExperimentConfig(
            bundle=str(bundle_dir),
            attack=AttackSpec(kind="random", rate=0.5),
            denoise=DenoiseConfig(alpha=1.0, beta=0.2, max_iters=50),
            train=TrainConfig(hidden=4, epochs=20),
            fractions=(0.5, 0.25, 0.25),
            repetitions=2,
            seed=3,
        )
        report = run_pipeline(config)
        assert len(report.repetitions) == 2
        # same bundle graph in both repetitions, so the same edges get attacked counts
        assert all(r["attack"]["edges_added"] == 3 for r in report.repetitions)

    def test_bundle_splits_json_is_honored(self, bundle_dir, small_dataset):
        from graphclean.datasets import Split, save_bundle
        split = Split(train=np.array([0, 1, 3, 4]), val=np.array([2]),
                      test=np.array([5]))
        save_bundle(small_dataset, bundle_dir, split=split)
        config = ExperimentConfig(
            bundle=str(bundle_dir),
            denoise=DenoiseConfig(beta=0.1, max_iters=20),
            train=TrainConfig(hidden=4, epochs=10),
            repetitions=2,
            seed=5,
        )
        report = run_pipeline(config)
        # with a pinned split and no attack, only the classifier seed varies
        assert all(r["attack"]["edges_added"] == 0 for r in report.repetitions)

    def test_heterophilic_budget_absolute(self):
        config = small_config(attack=AttackSpec(kind="heterophilic", budget=12))
        report = run_pipeline(config)
        assert all(r["attack"]["edges_added"] == 12 for r in report.repetitions)

    @pytest.mark.parametrize("kind", ["none", "random"])
    def test_budget_refused_for_a_kind_that_ignores_it(self, kind):
        with pytest.raises(ValueError, match="heterophilic attack only"):
            AttackSpec(kind=kind, rate=0.1, budget=5)

    @pytest.mark.parametrize("kind, budget", [("none", 0), ("heterophilic", 3)])
    def test_rate_refused_where_the_attack_ignores_it(self, kind, budget):
        message = f"got rate 0.5 with kind '{kind}' and budget {budget}"
        with pytest.raises(ValueError, match=message):
            AttackSpec(kind=kind, rate=0.5, budget=budget)
        AttackSpec(kind=kind, budget=budget)

    @pytest.mark.parametrize("source", ["sbm", "bundle"])
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_report_and_denoiser_share_one_d_p(self, tmp_path, monkeypatch, source, beta):
        config = small_config(repetitions=1, denoise=DenoiseConfig(beta=beta, max_iters=5))
        if source == "bundle":
            save_bundle(generate_sbm(config.sbm, 3), tmp_path / "b")
            config = dataclasses.replace(config, sbm=None, bundle=str(tmp_path / "b"))
        seen = {}
        report, denoise = pipeline.perturbation_report, pipeline.denoise

        def report_spy(clean, perturbed, dataset, d_p):
            seen["report"] = d_p
            return report(clean, perturbed, dataset, d_p)

        def denoise_spy(w_p, X, config, d_p=None):
            seen["denoise"], seen["X"] = d_p, X
            return denoise(w_p, X, config, d_p=d_p)

        monkeypatch.setattr(pipeline, "perturbation_report", report_spy)
        monkeypatch.setattr(pipeline, "denoise", denoise_spy)
        run_pipeline(config)
        assert seen["report"] is seen["denoise"]
        np.testing.assert_array_equal(seen["report"], pairwise_p_distances(seen["X"], 2.0))

    def test_rejects_ambiguous_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig(bundle="x", sbm=SbmParams(
                nodes_per_block=5, blocks=2, p_in=0.5, p_out=0.1,
                feature_dim=2, feature_signal=1.0, feature_noise=0.1))

    def test_rejects_bad_fractions_before_any_work(self):
        with pytest.raises(ValueError, match="sum to 1.2"):
            small_config(fractions=(0.8, 0.3, 0.1))


class TestSweep:
    def test_single_value_equals_run_pipeline(self):
        config = small_config(attack=AttackSpec(kind="random", rate=0.0))
        direct = run_pipeline(dataclasses.replace(
            config, attack=dataclasses.replace(config.attack, rate=0.2)))
        swept = sweep(config, "rate", [0.2])
        assert report_json_text(swept[0]) == report_json_text(direct)

    def test_beta_sweep_is_paired(self):
        # at beta = 0 the denoiser ignores d_p, but the attack report reads it
        reports = sweep(small_config(), "beta", [0.0, 0.1, 0.5, 1.0, 1.5])
        assert len(reports) == 5
        # pairing: identical repetition seeds and attack stats across values
        seeds = [[r["seed"] for r in rep.repetitions] for rep in reports]
        assert all(s == seeds[0] for s in seeds)
        attacks = [[r["attack"] for r in rep.repetitions] for rep in reports]
        assert all(a == attacks[0] for a in attacks)

    def test_rate_grid_in_five_point_steps(self):
        config = small_config(attack=AttackSpec(kind="random"), repetitions=2)
        rates = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25]
        reports = sweep(config, "rate", rates)
        assert len(reports) == 6
        for rate, rep in zip(rates, reports):
            assert rep.config["attack"]["rate"] == rate

    def test_bundle_loaded_and_distances_computed_once(self, tmp_path, monkeypatch):
        bundle = tmp_path / "bundle"
        save_bundle(generate_sbm(small_config().sbm, 3), bundle)
        config = small_config(sbm=None, bundle=str(bundle), repetitions=2,
                              attack=AttackSpec(kind="random"))
        rates = [0.1, 0.2, 0.3]
        # one run_pipeline per value, each loading the bundle again
        expected = report_json_text([
            run_pipeline(dataclasses.replace(
                config, attack=dataclasses.replace(config.attack, rate=rate)))
            for rate in rates
        ])
        calls = {"load_bundle": 0, "pairwise_p_distances": 0}

        def counted(name):
            fn = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(pipeline, name, counted(name))
        reports = sweep(config, "rate", rates)
        assert calls == {"load_bundle": 1, "pairwise_p_distances": 1}
        assert report_json_text(reports) == expected

    @pytest.mark.parametrize("binary,distance_calls", [(True, 1), (False, 3)])
    def test_p_sweep_reuses_distances_on_binary_features(self, tmp_path, monkeypatch,
                                                         binary, distance_calls):
        # on 0/1 features d_p is the Hamming distance at every p
        dataset = generate_sbm(small_config().sbm, 3)
        if binary:
            dataset = dataclasses.replace(
                dataset, features=(dataset.features > 1.0).astype(np.float64))
        bundle = tmp_path / "bundle"
        save_bundle(dataset, bundle)
        config = small_config(sbm=None, bundle=str(bundle), repetitions=2)
        ps = [1.0, 2.0, 3.0]
        expected = [report_json_text(run_pipeline(dataclasses.replace(
                        config, denoise=dataclasses.replace(config.denoise, p=p))))
                    for p in ps]
        calls = []
        computed = pipeline.pairwise_p_distances

        def counted(X, p):
            calls.append(p)
            return computed(X, p)

        monkeypatch.setattr(pipeline, "pairwise_p_distances", counted)
        reports = sweep(config, "p", ps)
        assert len(calls) == distance_calls
        assert [report_json_text(r) for r in reports] == expected

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="parameter"):
            sweep(small_config(), "gamma", [1.0])
        with pytest.raises(ValueError, match="at least one"):
            sweep(small_config(), "beta", [])


class TestReportIO:
    def test_json_round_trip(self, tmp_path):
        report = run_pipeline(small_config(repetitions=2))
        path = tmp_path / "report.json"
        write_report_json(report, path)
        payload = json.loads(path.read_text())
        assert payload["aggregates"]["denoised"]["mean"] == report.aggregates["denoised"]["mean"]
        assert payload["config"]["seed"] == 11

    def test_csv_rows(self, tmp_path):
        reports = sweep(small_config(repetitions=2), "beta", [0.5, 1.0])
        path = tmp_path / "rows.csv"
        write_report_csv(reports, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "report,arm,repetition,seed,test_accuracy"
        assert len(lines) == 1 + 2 * 2 * len(ARMS)
