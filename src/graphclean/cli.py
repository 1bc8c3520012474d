"""Command-line entry point.

Subcommands: ``synth`` (write an SBM bundle), ``attack``, ``denoise``,
``train``, ``pipeline`` and ``sweep``.  A flag that sets a field of a config
class (``_FLAGS``) takes its type and default from that field.  Every flag can
also come from a flat ``key = value`` config file passed with --config: its
values, converted by each flag's own type, become the subcommand's argparse
defaults, so explicit flags win over them.  Bad input (an :class:`InputError`),
a diverged denoiser or training run, or a pipeline stage failure that one of
these caused, ends the command with one ``graphclean: error: ...`` line on
stderr and exit status 2, as argparse does; any other exception keeps its
traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from pathlib import Path

from .attacks import perturbation_report
from .datasets import (
    Dataset,
    InputError,
    SbmParams,
    check_fractions,
    check_weight_threshold,
    generate_sbm,
    load_bundle,
    load_splits,
    save_bundle,
    split_nodes,
)
from .denoise import DenoiseConfig, DenoiseDivergence, denoise, pairwise_p_distances
from .gcn import TrainConfig, TrainDivergence, normalize_adjacency, train
from .pipeline import (
    AttackSpec,
    ExperimentConfig,
    SWEEPABLE,
    PipelineStageError,
    apply_attack,
    run_pipeline,
    sweep,
    write_report_csv,
    write_report_json,
)

__all__ = ["main"]


def _fractions(text: str) -> tuple:
    parts = tuple(float(x) for x in text.split(","))
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated fractions")
    try:
        check_fractions(parts)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return parts


def _float_list(text: str) -> list:
    return [float(x) for x in text.split(",")]


# the flags that set each config class's fields, flag -> field; a flag's type
# and default are its field's unless _EXTRA says otherwise
_FLAGS = {
    SbmParams: {"--sbm-blocks": "blocks", "--sbm-size": "nodes_per_block",
                "--sbm-p-in": "p_in", "--sbm-p-out": "p_out", "--sbm-dim": "feature_dim",
                "--sbm-signal": "feature_signal", "--sbm-noise": "feature_noise"},
    AttackSpec: {"--attack": "kind", "--rate": "rate", "--budget": "budget"},
    DenoiseConfig: {"--alpha": "alpha", "--beta": "beta", "--p": "p",
                    "--iters": "max_iters", "--tol": "tol"},
    TrainConfig: {"--epochs": "epochs", "--lr-gnn": "learning_rate", "--hidden": "hidden",
                  "--weight-decay": "weight_decay"},
    ExperimentConfig: {"--seed": "seed", "--split": "fractions", "--bundle": "bundle",
                       "--reps": "repetitions"},
}
_EXTRA = {
    "--sbm-size": {"help": "nodes per block"},
    "--sbm-dim": {"help": "feature dimension"},
    "--attack": {"choices": ["none", "random", "heterophilic"]},
    "--p": {"help": "p of the feature distances d_p"},
    "--epochs": {"help": "training is Adam, with early stop, up to this many epochs"},
    "--split": {"type": _fractions, "help": "train,val,test fractions"},
    "--bundle": {"type": str},
}


def _add_fields(parser, cls, *only) -> None:
    """Add the flags of ``cls``'s fields, or only the flags named in ``only``."""
    types = typing.get_type_hints(cls)
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for flag, name in _FLAGS[cls].items():
        if not only or flag in only:
            parser.add_argument(flag, **{"dest": name, "type": types[name],
                                         "default": defaults[name], **_EXTRA.get(flag, {})})


def _from_args(cls, args, **given):
    """A ``cls`` whose fields not in ``given`` are the values of their flags."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
                  if f.name not in given}, **given)


def _add_common(p):
    p.add_argument("--config", help="flat key=value config file")
    _add_fields(p, ExperimentConfig, "--seed")
    p.add_argument("--out", help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphclean",
        description="Denoise poisoned graphs and evaluate a GCN on the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic SBM bundle")
    _add_common(p)
    _add_fields(p, SbmParams)

    p = sub.add_parser("attack", help="poison a bundle and write the result")
    _add_common(p)
    _add_fields(p, AttackSpec)
    _add_fields(p, ExperimentConfig, "--bundle")
    _add_fields(p, DenoiseConfig, "--p")

    p = sub.add_parser("denoise", help="recover clean weights from a bundle")
    _add_common(p)
    _add_fields(p, DenoiseConfig)
    _add_fields(p, ExperimentConfig, "--bundle")
    p.add_argument("--threshold", type=float, default=1e-8,
                   help="emit recovered edges with weight above this")

    p = sub.add_parser("train", help="train the GCN on a bundle")
    _add_common(p)
    _add_fields(p, TrainConfig)
    _add_fields(p, ExperimentConfig, "--split", "--bundle")

    for name in ("pipeline", "sweep"):
        p = sub.add_parser(name, help=f"run the {name}")
        _add_common(p)
        for cls in (SbmParams, AttackSpec, DenoiseConfig, TrainConfig):
            _add_fields(p, cls)
        _add_fields(p, ExperimentConfig, "--split", "--bundle", "--reps")
        p.add_argument("--csv")
        if name == "sweep":
            p.add_argument("--sweep-param", choices=SWEEPABLE)
            p.add_argument("--values", type=_float_list, help="comma-separated sweep values")

    return parser


def read_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` file; '#' starts a comment, and a key
    ('-' and '_' alike) may be given once."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: cannot read config file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        # read_text decodes the whole file at once, so exc.start is a file offset
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}: not UTF-8 text (line {line})") from None
    values, lines = {}, {}
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{ln}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in lines:
            raise InputError(f"{path}:{ln}: key {key!r} repeats line {lines[key]}")
        values[key], lines[key] = value.strip(), ln
    return values


def parse_args(argv) -> argparse.Namespace:
    """Parse ``argv``; --config values become the subcommand's defaults."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        # a config key is a flag name with '_' for '-'
        flags = {name: {a.option_strings[0][2:].replace("-", "_"): a
                        for a in sub._actions if a.dest != "help"}
                 for name, sub in commands.items()}
        # keys of any subcommand are allowed, so one file can serve them all
        known = set().union(*flags.values()) - {"config"}
        defaults = {}
        for key, text in read_config_file(args.config).items():
            if key not in known:
                raise InputError(f"{args.config}: unknown key {key!r}")
            action = flags[args.command].get(key)
            if action is not None:
                try:
                    defaults[action.dest] = (action.type or str)(text)
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise InputError(f"{args.config}: {key}: {exc}") from None
        commands[args.command].set_defaults(**defaults)
        args = parser.parse_args(argv)  # flags win over the new defaults
    return args


def _fail(error) -> None:
    """Report bad input, or a run that diverged, the way argparse reports bad
    input: one line, exit status 2."""
    print(f"graphclean: error: {error}", file=sys.stderr)
    raise SystemExit(2)


def _require(args, attr: str):
    if getattr(args, attr) is None:
        raise InputError(f"--{attr.replace('_', '-')} is required for this command")
    return getattr(args, attr)


def cmd_synth(args) -> int:
    out = _require(args, "out")
    dataset = generate_sbm(_from_args(SbmParams, args), args.seed)
    save_bundle(dataset, out)
    print(f"wrote bundle: {out} (n={dataset.n}, edges={dataset.graph.edge_count}, "
          f"classes={dataset.num_classes}, dim={dataset.feature_dim})")
    return 0


def cmd_attack(args) -> int:
    bundle = _require(args, "bundle")
    out = _require(args, "out")
    attack = _from_args(AttackSpec, args)
    dataset = load_bundle(bundle)
    d_p = pairwise_p_distances(dataset.features, args.p)
    poisoned = apply_attack(dataset, attack, args.seed)
    stats = perturbation_report(dataset.graph, poisoned, dataset, d_p)
    save_bundle(Dataset(features=dataset.features, labels=dataset.labels,
                        graph=poisoned, num_classes=dataset.num_classes), out)
    write_report_json(stats, Path(out) / "attack_report.json")
    print(f"wrote poisoned bundle: {out} (+{stats.edges_added} edges)")
    return 0


def cmd_denoise(args) -> int:
    bundle = _require(args, "bundle")
    out = _require(args, "out")
    config = _from_args(DenoiseConfig, args)
    threshold = check_weight_threshold(args.threshold)
    dataset = load_bundle(bundle)
    result = denoise(dataset.graph, dataset.features, config)
    save_bundle(Dataset(features=dataset.features, labels=dataset.labels,
                        graph=result.weights, num_classes=dataset.num_classes),
                out, weight_threshold=threshold)
    (Path(out) / "denoise_result.json").write_text(
        json.dumps(result.to_json_dict(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote recovered bundle: {out} (iterations={result.iterations_run}, "
          f"objective={result.objective_trace[-1]:.6g}, kkt={result.kkt_residual:.3g})")
    return 0


def cmd_train(args) -> int:
    bundle = _require(args, "bundle")
    config = _from_args(TrainConfig, args)
    dataset = load_bundle(bundle)
    split = load_splits(bundle, dataset.n)
    if split is None:
        split = split_nodes(dataset.n, args.fractions, args.seed)
    a_hat = normalize_adjacency(dataset.graph)
    _, report = train(dataset, a_hat, split, config, args.seed)
    if args.out:
        write_report_json(report, args.out)
    print(f"test accuracy {report.test_accuracy:.4f} "
          f"(ran {len(report.loss_trace)} epochs, best val epoch {report.best_val_epoch})")
    return 0


def _experiment_config(args) -> ExperimentConfig:
    return _from_args(
        ExperimentConfig, args,
        sbm=None if args.bundle else _from_args(SbmParams, args),
        attack=_from_args(AttackSpec, args),
        denoise=_from_args(DenoiseConfig, args),
        train=_from_args(TrainConfig, args),
    )


def cmd_pipeline(args) -> int:
    report = run_pipeline(_experiment_config(args))
    if args.out:
        write_report_json(report, args.out)
    if args.csv:
        write_report_csv(report, args.csv)
    for arm, stats in report.aggregates.items():
        print(f"{arm}: {stats['mean']:.4f} +- {stats['std']:.4f}")
    return 0


def cmd_sweep(args) -> int:
    parameter, values = _require(args, "sweep_param"), _require(args, "values")
    reports = sweep(_experiment_config(args), parameter, values)
    if args.out:
        write_report_json(reports, args.out)
    if args.csv:
        write_report_csv(reports, args.csv)
    for value, report in zip(args.values, reports):
        stats = report.aggregates["denoised"]
        print(f"{args.sweep_param}={value}: denoised {stats['mean']:.4f} +- {stats['std']:.4f}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "attack": cmd_attack,
    "denoise": cmd_denoise,
    "train": cmd_train,
    "pipeline": cmd_pipeline,
    "sweep": cmd_sweep,
}


_ONE_LINE = (InputError, DenoiseDivergence, TrainDivergence)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_args(argv)
        return _COMMANDS[args.command](args)
    except _ONE_LINE as exc:
        _fail(exc)
    except PipelineStageError as exc:
        if isinstance(exc.__cause__, _ONE_LINE):
            _fail(exc)
        raise


if __name__ == "__main__":
    raise SystemExit(main())
