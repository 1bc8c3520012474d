"""Command-line entry point.

Subcommands: ``synth`` (write an SBM bundle), ``attack``, ``denoise``,
``train``, ``pipeline`` and ``sweep``.  Every flag can also come from a flat
``key = value`` config file passed with --config; explicit flags win over
config values, which win over defaults.  Bad input, an :class:`InputError` or
a pipeline stage failure that one caused, ends the command with one
``graphclean: error: ...`` line on stderr and exit status 2, as argparse does;
any other exception keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
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
from .denoise import DenoiseConfig, denoise, pairwise_p_distances
from .gcn import TrainConfig, normalize_adjacency, train
from .pipeline import (
    AttackSpec,
    ExperimentConfig,
    PipelineStageError,
    apply_attack,
    run_configs,
    run_pipeline,
    sweep_configs,
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


def _add_common(p):
    p.add_argument("--config", type=str, default=None, help="flat key=value config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None, help="output path")


def _add_sbm(p):
    p.add_argument("--sbm-blocks", type=int, default=2)
    p.add_argument("--sbm-size", type=int, default=50, help="nodes per block")
    p.add_argument("--sbm-p-in", type=float, default=0.2)
    p.add_argument("--sbm-p-out", type=float, default=0.01)
    p.add_argument("--sbm-dim", type=int, default=8, help="feature dimension")
    p.add_argument("--sbm-signal", type=float, default=2.0)
    p.add_argument("--sbm-noise", type=float, default=0.5)


def _add_attack(p):
    p.add_argument("--attack", choices=["none", "random", "heterophilic"], default="none")
    p.add_argument("--rate", type=float, default=0.0)
    p.add_argument("--budget", type=int, default=0)


def _add_denoise(p):
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=0.0)


def _add_train(p):
    p.add_argument("--epochs", type=int, default=250)
    p.add_argument("--lr-gnn", type=float, default=1e-2)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--weight-decay", type=float, default=5e-4)
    p.add_argument("--split", type=_fractions, default=(0.8, 0.1, 0.1),
                   help="train,val,test fractions")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphclean",
        description="Denoise poisoned graphs and evaluate a GCN on the result.",
        # abbreviated flags would dodge the explicit-flag detection that
        # gives command-line values precedence over --config values
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic SBM bundle")
    _add_common(p)
    _add_sbm(p)

    p = sub.add_parser("attack", help="poison a bundle and write the result")
    _add_common(p)
    _add_attack(p)
    p.add_argument("--bundle", type=str, required=False)
    p.add_argument("--p", type=float, default=2.0, help="p for the distance report")

    p = sub.add_parser("denoise", help="recover clean weights from a bundle")
    _add_common(p)
    _add_denoise(p)
    p.add_argument("--bundle", type=str, required=False)
    p.add_argument("--threshold", type=float, default=1e-8,
                   help="emit recovered edges with weight above this")

    p = sub.add_parser("train", help="train the GCN on a bundle")
    _add_common(p)
    _add_train(p)
    p.add_argument("--bundle", type=str, required=False)

    for name in ("pipeline", "sweep"):
        p = sub.add_parser(name, help=f"run the {name}")
        _add_common(p)
        _add_sbm(p)
        _add_attack(p)
        _add_denoise(p)
        _add_train(p)
        p.add_argument("--bundle", type=str, default=None)
        p.add_argument("--reps", type=int, default=10)
        p.add_argument("--csv", type=str, default=None)
        if name == "sweep":
            p.add_argument("--sweep-param", choices=["rate", "beta", "p"], required=False)
            p.add_argument("--values", type=_float_list, default=None,
                           help="comma-separated sweep values")

    return parser


def read_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: cannot read config file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        # read_text decodes the whole file at once, so exc.start is a file offset
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}: not UTF-8 text (line {line})") from None
    values = {}
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{ln}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def parse_args(argv) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        file_values = read_config_file(args.config)
        # keys of any subcommand are allowed, so one file can serve them all
        known = set().union(*(vars(parser.parse_args([name])) for name in _COMMANDS))
        known -= {"command", "config"}
        defaults = parser.parse_args([args.command])
        explicit = _explicit_dests(argv)
        converters = {"split": _fractions, "values": _float_list}
        for key, text in file_values.items():
            if key not in known:
                raise InputError(f"{args.config}: unknown key {key!r}")
            if not hasattr(args, key):
                continue  # key belongs to another subcommand
            if key in explicit:
                continue  # flags win over the config file
            like = getattr(defaults, key)
            convert = converters.get(key, str if like is None else type(like))
            setattr(args, key, convert(text))
    return args


def _explicit_dests(argv) -> set:
    dests = set()
    for token in argv:
        if token.startswith("--"):
            dests.add(token[2:].split("=", 1)[0].replace("-", "_"))
    return dests


def _fail(error) -> None:
    """Report bad input the way argparse does: one line, exit status 2."""
    print(f"graphclean: error: {error}", file=sys.stderr)
    raise SystemExit(2)


def _sbm_from_args(args) -> SbmParams:
    return SbmParams(
        nodes_per_block=args.sbm_size,
        blocks=args.sbm_blocks,
        p_in=args.sbm_p_in,
        p_out=args.sbm_p_out,
        feature_dim=args.sbm_dim,
        feature_signal=args.sbm_signal,
        feature_noise=args.sbm_noise,
    )


def _attack_from_args(args) -> AttackSpec:
    return AttackSpec(kind=args.attack, rate=args.rate, budget=args.budget)


def _denoise_from_args(args) -> DenoiseConfig:
    return DenoiseConfig(
        alpha=args.alpha,
        beta=args.beta,
        p=args.p,
        max_iters=args.iters,
        tol=args.tol,
    )


def _train_from_args(args) -> TrainConfig:
    return TrainConfig(
        hidden=args.hidden,
        epochs=args.epochs,
        learning_rate=args.lr_gnn,
        weight_decay=args.weight_decay,
        seed=args.seed,
    )


def _require(args, attr: str):
    if getattr(args, attr) is None:
        raise InputError(f"--{attr.replace('_', '-')} is required for this command")
    return getattr(args, attr)


def cmd_synth(args) -> int:
    out = _require(args, "out")
    dataset = generate_sbm(_sbm_from_args(args), args.seed)
    save_bundle(dataset, out)
    print(f"wrote bundle: {out} (n={dataset.n}, edges={dataset.graph.edge_count}, "
          f"classes={dataset.num_classes}, dim={dataset.feature_dim})")
    return 0


def cmd_attack(args) -> int:
    bundle = _require(args, "bundle")
    out = _require(args, "out")
    attack = _attack_from_args(args)
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
    config = _denoise_from_args(args)
    threshold = check_weight_threshold(args.threshold)
    dataset = load_bundle(bundle)
    result = denoise(dataset.graph, dataset.features, config)
    save_bundle(Dataset(features=dataset.features, labels=dataset.labels,
                        graph=result.weights, num_classes=dataset.num_classes),
                out, weight_threshold=threshold)
    (Path(out) / "denoise_result.json").write_text(
        json.dumps(result.to_json_dict(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote recovered bundle: {out} (iterations={result.iterations_run}, "
          f"objective={result.objective_trace[-1]:.6g})")
    return 0


def cmd_train(args) -> int:
    bundle = _require(args, "bundle")
    config = _train_from_args(args)
    dataset = load_bundle(bundle)
    split = load_splits(bundle, dataset.n)
    if split is None:
        split = split_nodes(dataset.n, args.split, args.seed)
    a_hat = normalize_adjacency(dataset.graph)
    _, report = train(dataset, a_hat, split, config)
    if args.out:
        write_report_json(report, args.out)
    print(f"test accuracy {report.test_accuracy:.4f} "
          f"(best val epoch {report.best_val_epoch})")
    return 0


def _experiment_config(args) -> ExperimentConfig:
    return ExperimentConfig(
        bundle=args.bundle,
        sbm=None if args.bundle else _sbm_from_args(args),
        attack=_attack_from_args(args),
        denoise=_denoise_from_args(args),
        train=_train_from_args(args),
        fractions=args.split,
        repetitions=args.reps,
        seed=args.seed,
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
    reports = run_configs(sweep_configs(_experiment_config(args), parameter, values))
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


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_args(argv)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        _fail(exc)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        _fail(exc)
    except PipelineStageError as exc:
        if isinstance(exc.__cause__, InputError):
            _fail(exc)
        raise


if __name__ == "__main__":
    raise SystemExit(main())
