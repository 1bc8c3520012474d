"""CLI: subcommands, config files, flag precedence, determinism of outputs."""

import json

import pytest

from graphclean.cli import main, parse_args, read_config_file
from graphclean.datasets import load_bundle


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

    def test_attack_then_denoise_then_train(self, tmp_path):
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
        ds = load_bundle(recovered)
        assert ds.n == 40

        report_path = tmp_path / "train.json"
        run(["train", "--bundle", str(recovered), "--epochs", "50",
             "--seed", "3", "--out", str(report_path)])
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["test_accuracy"] <= 1.0
        assert len(report["loss_trace"]) == 50

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


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 0.25\niters = 42  # short run\nattack = random\n")
        args = parse_args(["pipeline", "--config", str(cfg)])
        assert args.beta == 0.25
        assert args.iters == 42
        assert args.attack == "random"

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


class TestBadInput:
    """Bad input ends a command with one error line and exit status 2."""

    @pytest.mark.parametrize("argv,config,message", [
        (["train", "--bundle", "/nonexistent"], None,
         "missing bundle file: /nonexistent/features.csv"),
        (["denoise", "--bundle", "{bundle}", "--out", "{tmp}/out"], None,
         "features.csv row 2: expected 2 values, got 1"),
        (["pipeline"], "beta = 0.3\niter = 5\n", "bad.cfg: unknown key 'iter'"),
        (["denoise"], "step_mode = fixed\n", "bad.cfg: unknown key 'step_mode'"),
        (["pipeline"], "split = 0.5,0.5\n", "expected three comma-separated fractions"),
        (["pipeline", "--alpha", "0"], None, "alpha must be > 0, got 0.0"),
        (["denoise", "--out", "{tmp}/out"], None, "--bundle is required for this command"),
    ], ids=["missing-bundle", "malformed-bundle", "unknown-config-key",
            "removed-step-mode", "short-split", "refused-flag-value", "required-flag"])
    def test_one_error_line(self, tmp_path, bundle_dir, capsys, argv, config, message):
        # the second feature row of the bundle loses a value
        features = bundle_dir / "features.csv"
        lines = features.read_text().split("\n")
        lines[1] = "1.0"
        features.write_text("\n".join(lines))
        argv = [a.format(bundle=bundle_dir, tmp=tmp_path) for a in argv]
        if config is not None:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        with pytest.raises(SystemExit) as stopped:
            main(argv)
        assert stopped.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("graphclean: error: ")
        assert message in err
        assert err.count("\n") == 1
