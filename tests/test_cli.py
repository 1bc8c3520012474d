"""CLI: subcommands, config files, flag precedence, determinism of outputs."""

import argparse
import json
import re

import pytest

from graphclean import cli, pipeline
from graphclean.cli import build_parser, main, parse_args, read_config_file
from graphclean.datasets import SbmParams, load_bundle
from graphclean.denoise import DenoiseConfig
from graphclean.gcn import TrainConfig
from graphclean.pipeline import AttackSpec, ExperimentConfig, PipelineStageError


def run(argv):
    assert main(argv) == 0


class TestSynthAttackDenoiseTrain:
    def test_synth_writes_loadable_bundle(self, tmp_path):
        out = tmp_path / "bundle"
        run(["synth", "--sbm-blocks", "2", "--sbm-size", "20", "--sbm-p-in", "0.3",
             "--sbm-p-out", "0.02", "--seed", "5", "--out", str(out)])
        ds = load_bundle(out)
        assert ds.n == 40
        assert ds.num_classes == 2

    def test_attack_then_denoise_then_train(self, tmp_path, capsys):
        bundle = tmp_path / "clean"
        run(["synth", "--sbm-size", "20", "--seed", "1", "--out", str(bundle)])
        poisoned = tmp_path / "poisoned"
        run(["attack", "--bundle", str(bundle), "--attack", "heterophilic",
             "--budget", "15", "--seed", "2", "--out", str(poisoned)])
        stats = json.loads((poisoned / "attack_report.json").read_text())
        assert stats["edges_added"] == 15
        assert stats["added_cross_label_fraction"] == 1.0

        recovered = tmp_path / "recovered"
        run(["denoise", "--bundle", str(poisoned), "--beta", "1.0",
             "--iters", "100", "--out", str(recovered)])
        result = json.loads((recovered / "denoise_result.json").read_text())
        assert result["iterations"] <= 100
        assert len(result["objective_trace"]) == result["iterations"] + 1
        # a dense 40-node graph runs on all pairs: each trial point and the
        # final KKT residual read every pair
        assert result["pair_passes"] > result["iterations"]
        ds = load_bundle(recovered)
        assert ds.n == 40

        report_path = tmp_path / "train.json"
        run(["train", "--bundle", str(recovered), "--epochs", "50",
             "--seed", "3", "--out", str(report_path)])
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["test_accuracy"] <= 1.0
        assert len(report["loss_trace"]) == 50
        assert capsys.readouterr().out.endswith(
            f"(ran 50 epochs, best val epoch {report['best_val_epoch']})\n")

    def test_denoise_threshold_zero_round_trips(self, tmp_path):
        bundle = tmp_path / "clean"
        run(["synth", "--sbm-size", "10", "--seed", "1", "--out", str(bundle)])
        recovered = tmp_path / "recovered"
        run(["denoise", "--bundle", str(bundle), "--threshold", "0",
             "--iters", "20", "--out", str(recovered)])
        ds = load_bundle(recovered)
        assert ds.graph.edge_count > 0
        run(["train", "--bundle", str(recovered), "--epochs", "5"])

    def test_train_seed_reaches_train(self, tmp_path, monkeypatch):
        bundle = tmp_path / "clean"
        run(["synth", "--sbm-size", "10", "--seed", "1", "--out", str(bundle)])
        seeds = []
        real = cli.train

        def spy(dataset, a_hat, split, config, seed):
            seeds.append(seed)
            return real(dataset, a_hat, split, config, seed)

        monkeypatch.setattr(cli, "train", spy)
        run(["train", "--bundle", str(bundle), "--epochs", "2", "--seed", "9"])
        run(["train", "--bundle", str(bundle), "--epochs", "2"])
        assert seeds == [9, 0]

    def test_random_attack_rate(self, tmp_path):
        bundle = tmp_path / "clean"
        run(["synth", "--sbm-size", "20", "--sbm-p-in", "0.4", "--seed", "4",
             "--out", str(bundle)])
        edges = load_bundle(bundle).graph.edge_count
        poisoned = tmp_path / "poisoned"
        run(["attack", "--bundle", str(bundle), "--attack", "random",
             "--rate", "0.2", "--seed", "5", "--out", str(poisoned)])
        assert load_bundle(poisoned).graph.edge_count == edges + int(0.2 * edges)

    def test_heterophilic_attack_rate_without_budget(self, tmp_path):
        # the pipeline's rule: with no budget, floor(rate * |E|) edges
        bundle = tmp_path / "clean"
        run(["synth", "--sbm-size", "20", "--sbm-p-in", "0.4", "--seed", "4",
             "--out", str(bundle)])
        edges = load_bundle(bundle).graph.edge_count
        poisoned = tmp_path / "poisoned"
        run(["attack", "--bundle", str(bundle), "--attack", "heterophilic",
             "--rate", "0.3", "--seed", "5", "--out", str(poisoned)])
        stats = json.loads((poisoned / "attack_report.json").read_text())
        assert stats["edges_added"] == int(0.3 * edges + 1e-9) > 0
        assert stats["added_cross_label_fraction"] == 1.0


class TestPipelineAndSweep:
    def test_pipeline_deterministic_outputs(self, tmp_path):
        args = ["pipeline", "--sbm-size", "15", "--attack", "heterophilic",
                "--rate", "0.25", "--iters", "50", "--epochs", "30",
                "--reps", "2", "--seed", "9"]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        run(args + ["--out", str(out_a)])
        run(args + ["--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.json"
        csv_path = tmp_path / "sweep.csv"
        run(["sweep", "--sbm-size", "15", "--attack", "random",
             "--iters", "30", "--epochs", "20", "--reps", "2", "--seed", "1",
             "--sweep-param", "rate", "--values", "0,0.2",
             "--out", str(out), "--csv", str(csv_path)])
        payload = json.loads(out.read_text())
        assert len(payload) == 2
        lines = csv_path.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 2 * 3

    def test_pipeline_csv(self, tmp_path):
        csv_path = tmp_path / "pipeline.csv"
        run(["pipeline", "--sbm-size", "15", "--attack", "random",
             "--iters", "30", "--epochs", "20", "--reps", "2", "--seed", "1",
             "--csv", str(csv_path)])
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "report,arm,repetition,seed,test_accuracy"
        assert [line.split(",")[:3] for line in lines[1:]] == [
            ["0", arm, str(rep)] for rep in range(2) for arm in ("clean", "poisoned", "denoised")]


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 0.25\niters = 42  # short run\nattack = random\n")
        args = parse_args(["pipeline", "--config", str(cfg)])
        assert args.beta == 0.25
        assert args.max_iters == 42
        assert args.kind == "random"

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 0.25\nseed = 7\n")
        args = parse_args(["pipeline", "--config", str(cfg), "--beta", "0.75"])
        assert args.beta == 0.75
        assert args.seed == 7

    def test_unknown_keys_for_other_commands_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sweep_param = beta\nvalues = 0.1,0.5\nbeta = 0.3\n")
        args = parse_args(["pipeline", "--config", str(cfg)])
        assert args.beta == 0.3
        args = parse_args(["sweep", "--config", str(cfg)])
        assert args.sweep_param == "beta"
        assert args.values == [0.1, 0.5]

    def test_abbreviated_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 0.25\n")
        assert parse_args(["pipeline", "--config", str(cfg), "--bet", "0.75"]).beta == 0.75

    def test_split_from_file_parses_like_the_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("split = 0.6,0.2,0.2\n")
        from_file = parse_args(["train", "--config", str(cfg)]).fractions
        assert from_file == parse_args(["train", "--split", "0.6,0.2,0.2"]).fractions
        assert from_file == (0.6, 0.2, 0.2)

    def test_command_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = synth\n")
        with pytest.raises(ValueError, match="run.cfg: unknown key 'command'"):
            parse_args(["train", "--config", str(cfg)])

    def test_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("config = other.cfg\n")
        with pytest.raises(ValueError, match="run.cfg: unknown key 'config'"):
            parse_args(["pipeline", "--config", str(cfg)])

    def test_misspelt_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 0.3\niter = 5\n")
        with pytest.raises(ValueError, match="run.cfg: unknown key 'iter'"):
            parse_args(["pipeline", "--config", str(cfg)])

    @pytest.mark.parametrize("text, message", [
        ("iters = 10\niters = 20\n", ":2: key 'iters' repeats line 1$"),
        ("sbm-size = 5\n# size\nsbm_size = 6\n", ":3: key 'sbm_size' repeats line 1$"),
    ], ids=["same-spelling", "dash-and-underscore"])
    def test_repeated_key_rejected(self, tmp_path, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        with pytest.raises(ValueError, match="run.cfg" + message):
            read_config_file(str(cfg))

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("beta 0.25\n")
        with pytest.raises(ValueError, match="key = value"):
            read_config_file(str(cfg))

    def test_pipeline_runs_from_config_only(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "sbm-size = 15\nattack = heterophilic\nrate = 0.25\n"
            "iters = 40\nepochs = 25\nreps = 2\nseed = 13\n"
        )
        out = tmp_path / "report.json"
        run(["pipeline", "--config", str(cfg), "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["config"]["seed"] == 13
        assert payload["config"]["attack"]["kind"] == "heterophilic"


class TestDefaults:
    """Every flag's default is its config field's default."""

    def test_pipeline_config_is_the_default_config(self):
        args = parse_args(["pipeline"])
        assert cli._experiment_config(args) == ExperimentConfig(sbm=SbmParams())

    @pytest.mark.parametrize("command, cls", [
        ("synth", SbmParams), ("attack", AttackSpec), ("denoise", DenoiseConfig),
        ("train", TrainConfig)])
    def test_subcommand_config_is_the_default_config(self, command, cls):
        assert cli._from_args(cls, parse_args([command])) == cls()


def _float_flags():
    """(subcommand, flag) for every flag of every subcommand typed float."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0])
            for command, parser in sub.choices.items()
            for action in parser._actions if action.type is float]


FLOAT_FLAGS = _float_flags()
# the flags each subcommand needs, so that only the value under test is bad
REQUIRED = {
    "synth": ["--out", "{tmp}/out"],
    "attack": ["--bundle", "{bundle}", "--out", "{tmp}/out"],
    "denoise": ["--bundle", "{bundle}", "--out", "{tmp}/out"],
    "train": ["--bundle", "{bundle}", "--out", "{tmp}/out"],
    "pipeline": ["--reps", "1"],
    "sweep": ["--sweep-param", "beta", "--values", "0.5", "--reps", "1"],
}
# what a refused value must not reach
WORK = [(cli, "apply_attack"), (cli, "denoise"), (cli, "train"), (cli, "generate_sbm"),
        (cli, "save_bundle"), (pipeline, "run_repetition")]


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran")
    return refuse


# more cross-label edges than a graph of 2 x 10 nodes or the 6-node bundle has room for
BIG_BUDGET = ["--attack", "heterophilic", "--budget", "100000"]
SMALL_RUN = ["--sbm-size", "10", "--reps", "1"]


class TestBadInput:
    """Bad input, or a run it makes diverge, ends a command with one error
    line and exit status 2."""

    @pytest.mark.parametrize("argv,config,edit,message", [
        (["train", "--bundle", "/nonexistent"], None, None,
         "missing bundle file: /nonexistent/features.csv"),
        # the second feature row of the bundle loses a value
        (["denoise", "--bundle", "{bundle}", "--out", "{tmp}/out"], None,
         ("features.csv", 1, b"1.0"), "features.csv row 2: expected 2 fields, got 1"),
        (["pipeline"], "beta = 0.3\niter = 5\n", None, "bad.cfg: unknown key 'iter'"),
        (["denoise"], "step_mode = fixed\n", None, "bad.cfg: unknown key 'step_mode'"),
        (["pipeline"], "split = 0.5,0.5\n", None, "expected three comma-separated fractions"),
        (["pipeline", "--alpha", "0"], None, None, "alpha must be > 0, got 0.0"),
        (["denoise", "--out", "{tmp}/out"], None, None, "--bundle is required for this command"),
        (["pipeline", "--config", "{tmp}/nonexistent.cfg"], None, None,
         "nonexistent.cfg: cannot read config file: No such file or directory"),
        # a Latin-1 byte in the third feature row
        (["train", "--bundle", "{bundle}"], None, ("features.csv", 2, b"0.9,-0.1\xff"),
         "features.csv row 3: not UTF-8 text"),
        (["train", "--bundle", "{bundle}"], None, ("labels.csv", 3, b"2,1000000000000"),
         "labels.csv row 4: label 1000000000000 outside [0, 6) for 6 nodes"),
        (["pipeline"], "split = 0.8,0.3,0.1\n", None, "fractions sum to 1.2"),
        (["pipeline"] + BIG_BUDGET + SMALL_RUN, None, None,
         "repetition 0, stage attack: cannot add 100000 edges: only 100 eligible absent pairs"),
        (["sweep", "--sweep-param", "beta", "--values", "0.5"] + BIG_BUDGET + SMALL_RUN, None, None,
         "repetition 0, stage attack: cannot add 100000 edges: only 100 eligible absent pairs"),
        (["attack", "--bundle", "{bundle}", "--out", "{tmp}/out"] + BIG_BUDGET, None, None,
         "cannot add 100000 edges: only 8 eligible absent pairs"),
        (["pipeline", "--attack", "random", "--rate", "1e308"] + SMALL_RUN, None, None,
         "repetition 0, stage attack: budget is not finite: rate 1e+308 of "),
        (["sweep", "--sweep-param", "rate", "--values", "0.1,1e308", "--attack", "random"]
         + SMALL_RUN, None, None, "budget is not finite: rate 1e+308 of "),
        (["attack", "--bundle", "{bundle}", "--attack", "heterophilic", "--rate", "1e308",
          "--out", "{tmp}/out"], None, None, "budget is not finite: rate 1e+308 of "),
        (["attack", "--bundle", "{bundle}", "--attack", "random", "--rate", "1e308",
          "--out", "{tmp}/out"], None, None, "budget is not finite: rate 1e+308 of "),
        (["pipeline"], b"beta = 0.3\n# caf\xe9\n", None, "bad.cfg: not UTF-8 text (line 2)"),
        # 0.8,0.1,0.1 of the 6-node bundle, which has no splits.json, is 5/1/0
        (["train", "--bundle", "{bundle}"], None, None, "test split must be non-empty"),
        # 0.8,0.1,0.1 of 2 x 2 nodes is 3/1/0
        (["pipeline", "--sbm-size", "2", "--reps", "1"], None, None,
         "test split must be non-empty: fractions [0.8, 0.1, 0.1] of 4 nodes give 3/1/0"),
        (["pipeline"], "reps = x\n", None,
         "bad.cfg: reps: invalid literal for int() with base 10: 'x'"),
        (["pipeline"], "split = 0.5,x,0\n", None,
         "bad.cfg: split: could not convert string to float: 'x'"),
        (["pipeline"], "split = nan,0,0\n", None,
         "bad.cfg: split: fractions must be non-negative and finite, got [nan, 0.0, 0.0]"),
        # Adam moves each weight by about the learning rate in its first
        # step, so at 1e160 the logits that score that step overflow
        (["train", "--bundle", "{bundle}", "--split", "0.5,0.25,0.25", "--lr-gnn", "1e160"],
         None, None, "training diverged: non-finite loss or logits at epoch 0\n"),
        (["pipeline", "--lr-gnn", "1e160"] + SMALL_RUN, None, None,
         "repetition 0, stage train[clean]: training diverged: non-finite loss or logits "
         "at epoch 0\n"),
        # the first edge of the bundle gets a weight whose square overflows
        (["denoise", "--bundle", "{bundle}", "--out", "{tmp}/out"], None,
         ("edges.csv", 1, b"0,1,1e200"), "non-finite objective at iteration "),
        (["pipeline", "--bundle", "{bundle}", "--split", "0.5,0.25,0.25", "--reps", "1"], None,
         ("edges.csv", 1, b"0,1,1e200"),
         "repetition 0, stage denoise: non-finite objective at iteration "),
        (["pipeline", "--sbm-size", "5", "--reps", "1", "--epochs", "2", "--p", "400",
          "--sbm-noise", "3"], None, None,
         "repetition 0, stage distances: d_p is not finite at p = 400.0 for the node pair ("),
    ], ids=["missing-bundle", "malformed-bundle", "unknown-config-key",
            "removed-step-mode", "short-split", "refused-flag-value", "required-flag",
            "missing-config", "non-utf8-bundle", "label-beyond-n", "split-above-one",
            "pipeline-budget", "sweep-budget", "attack-budget", "pipeline-rate-overflow",
            "sweep-rate-overflow", "attack-heterophilic-rate-overflow",
            "attack-random-rate-overflow", "non-utf8-config",
            "train-empty-split", "pipeline-empty-split", "config-bad-int",
            "config-bad-split", "config-nan-split", "train-divergence",
            "pipeline-divergence", "denoise-divergence", "pipeline-denoise-divergence",
            "pipeline-p-overflow"])
    def test_one_error_line(self, tmp_path, bundle_dir, capsys, argv, config, edit, message):
        if edit is not None:
            name, row, content = edit
            lines = (bundle_dir / name).read_bytes().split(b"\n")
            lines[row] = content
            (bundle_dir / name).write_bytes(b"\n".join(lines))
        argv = [a.format(bundle=bundle_dir, tmp=tmp_path) for a in argv]
        if config is not None:
            cfg = tmp_path / "bad.cfg"
            if isinstance(config, bytes):
                cfg.write_bytes(config)
            else:
                cfg.write_text(config)
            argv += ["--config", str(cfg)]
        with pytest.raises(SystemExit) as stopped:
            main(argv)
        assert stopped.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("graphclean: error: ")
        assert message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, target, message", [
        (["sweep", "--sweep-param", "beta", "--values", "0.5,-1"] + SMALL_RUN,
         (pipeline, "run_repetition"), "beta must be >= 0, got -1.0"),
        (["sweep", "--sweep-param", "p", "--values", "0.5"] + SMALL_RUN,
         (pipeline, "run_repetition"), "p must be >= 1, got 0.5"),
        (["attack", "--bundle", "{bundle}", "--attack", "random", "--rate", "0.1",
          "--p", "0.5", "--out", "{tmp}/out"], (cli, "apply_attack"), "p must be >= 1, got 0.5"),
        (["attack", "--bundle", "{bundle}", "--attack", "random", "--budget", "5",
          "--out", "{tmp}/out"], (cli, "load_bundle"),
         "budget applies to the heterophilic attack only, got budget 5 with kind 'random'"),
        (["pipeline", "--budget", "5"] + SMALL_RUN, (pipeline, "run_repetition"),
         "got budget 5 with kind 'none'"),
        (["pipeline", "--rate", "0.5"] + SMALL_RUN, (pipeline, "run_repetition"),
         "got rate 0.5 with kind 'none' and budget 0"),
        (["denoise", "--bundle", "{bundle}", "--threshold", "-1", "--out", "{tmp}/out"],
         (cli, "load_bundle"), "weight threshold must be finite and >= 0, got -1.0"),
        (["denoise", "--bundle", "{bundle}", "--threshold", "nan", "--out", "{tmp}/out"],
         (cli, "load_bundle"), "weight threshold must be finite and >= 0, got nan"),
        (["denoise", "--bundle", "{bundle}", "--threshold", "inf", "--out", "{tmp}/out"],
         (cli, "load_bundle"), "weight threshold must be finite and >= 0, got inf"),
        (["train", "--bundle", "{bundle}", "--epochs", "0"], (cli, "load_bundle"),
         "epochs must be >= 1, got 0"),
    ], ids=["sweep-beta", "sweep-p", "attack-p", "random-budget", "none-budget", "none-rate",
            "negative-threshold", "nan-threshold", "inf-threshold", "train-epochs"])
    def test_flag_value_refused_before_work(self, tmp_path, bundle_dir, capsys, monkeypatch,
                                            argv, target, message):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{target[1]} ran")
        monkeypatch.setattr(*target, refuse)
        with pytest.raises(SystemExit) as stopped:
            main([a.format(bundle=bundle_dir, tmp=tmp_path) for a in argv])
        assert stopped.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("graphclean: error: ")
        assert message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag", FLOAT_FLAGS,
                             ids=[f"{c}{f}" for c, f in FLOAT_FLAGS])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_float_flag_refused_before_work(self, tmp_path, bundle_dir, capsys,
                                                       monkeypatch, command, flag, value):
        for module, name in WORK:
            monkeypatch.setattr(module, name, _refuse(name))
        argv = [command, *REQUIRED[command], flag, value]
        with pytest.raises(SystemExit) as stopped:
            main([a.format(bundle=bundle_dir, tmp=tmp_path) for a in argv])
        assert stopped.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("graphclean: error: ")
        assert err.count("\n") == 1
        assert value in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("split, message", [
        ("--split=-0.1,0.5,0.5", "fractions must be non-negative"),
        ("--split=0.8,0.3,0.1", "fractions sum to 1.2"),
        ("--split=nan,0,0", "fractions must be non-negative and finite, got [nan, 0.0, 0.0]"),
    ])
    def test_split_flag_refused_before_work(self, capsys, split, message):
        # argparse reports a bad flag value under its usage line
        with pytest.raises(SystemExit) as stopped:
            main(["pipeline", split, "--reps", "1"])
        assert stopped.value.code == 2
        assert f"argument --split: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, splits, message", [
        (["pipeline", "--split", "0,0,1"], None,
         "train split must be non-empty: fractions [0.0, 0.0, 1.0] of 10 nodes give 0/0/10 "
         "train/val/test nodes"),
        (["sweep", "--sweep-param", "p", "--values", "2,3", "--split", "0.5,0.5,0"], None,
         "test split must be non-empty: fractions [0.5, 0.5, 0.0] of 10 nodes give 5/5/0 "
         "train/val/test nodes"),
        (["pipeline", "--bundle", "{bundle}"], {"train": [0, 1, 2, 3], "val": [], "test": [4, 5]},
         "val split must be non-empty: splits.json has 4/0/2 train/val/test nodes"),
    ], ids=["pipeline", "sweep", "bundle-splits"])
    def test_empty_split_refused_before_work(self, bundle_dir, capsys, monkeypatch,
                                             argv, splits, message):
        for name in ("generate_sbm", "apply_attack", "pairwise_p_distances", "denoise"):
            monkeypatch.setattr(pipeline, name, _refuse(name))
        if splits is not None:
            (bundle_dir / "splits.json").write_text(json.dumps(splits))
        with pytest.raises(SystemExit) as stopped:
            main([a.format(bundle=bundle_dir) for a in argv] + ["--sbm-size", "5", "--reps", "1"])
        assert stopped.value.code == 2
        err = capsys.readouterr().err
        assert err == f"graphclean: error: {message}\n"

    @pytest.mark.parametrize("stage, target", [("attack", "heterophilic_add"),
                                               ("train[clean]", "train")])
    def test_other_stage_failures_keep_their_traceback(self, monkeypatch, stage, target):
        def fail(*args, **kwargs):
            raise ValueError("boom")
        monkeypatch.setattr(pipeline, target, fail)
        with pytest.raises(PipelineStageError, match=re.escape(f"stage {stage}: boom")):
            main(["pipeline", "--attack", "heterophilic", "--budget", "3",
                  "--sbm-size", "10", "--reps", "1", "--epochs", "2"])
