"""Command-line surface.

Exit codes: 0 success, 1 check failure (gradcheck), 2 usage/configuration
errors or missing or malformed files, 3 training divergence.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import accounting, gradcheck, heatmaps, runconfig, training
from .dataset import generate_dataset, read_dataset, write_dataset
from .errors import ConfigError, ContractViolation, TrainingDivergence
from .evaluate import Metrics, evaluate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="run configuration file")
    for key in runconfig.DEFAULTS:
        parser.add_argument(f"--{key}", dest=key.replace(".", "__"),
                            metavar="V", help=argparse.SUPPRESS)


def _collect_config(args, **fixed) -> runconfig.RunConfig:
    """The run config: file < ``--<key>`` flags < ``fixed`` (keyed like the
    flags' dests, ``data__seed``); a None value leaves its key to the layer below."""
    given = [(key, getattr(args, key.replace(".", "__"))) for key in runconfig.DEFAULTS]
    given += [(dest.replace("__", "."), value) for dest, value in fixed.items()]
    overrides = {key: str(value) for key, value in given if value is not None}
    return runconfig.load_config(args.config, overrides)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kphead",
        description="Condensed detection heads: parameter accounting, gradient "
                    "checks and the synthetic benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="print parameter/MAC reports")
    p_params.add_argument("--preset", help="named head configuration")
    p_params.add_argument("--sweep", action="store_true",
                          help="also print the (K, L) grid table")
    p_params.add_argument("--csv", metavar="FILE", help="write the report as CSV")
    _add_config_flags(p_params)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p_grad.add_argument("--trials", type=int, default=3)
    p_grad.add_argument("--seed", type=int, default=0)

    p_toy = sub.add_parser("toy", help="synthetic benchmark")
    toy_sub = p_toy.add_subparsers(dest="toy_command", required=True)

    p_gen = toy_sub.add_parser("gen", help="generate train/test dataset files")
    p_gen.add_argument("--out", required=True, metavar="FILE",
                       help="train-split path; the test split lands next to it")
    p_gen.add_argument("--seed", type=int, help="override data.seed")
    _add_config_flags(p_gen)

    p_train = toy_sub.add_parser("train", help="train a head on a dataset file")
    p_train.add_argument("--data", required=True, metavar="FILE")
    p_train.add_argument("--out", required=True, metavar="FILE",
                         help="trained-parameter payload path")
    p_train.add_argument("--log", metavar="FILE", help="write the per-epoch CSV log")
    p_train.add_argument("--model", choices=("condensed", "baseline"),
                         default="condensed")
    p_train.add_argument("--seed", type=int, help="override train.seed")
    _add_config_flags(p_train)

    p_eval = toy_sub.add_parser("eval", help="evaluate trained parameters")
    p_eval.add_argument("--data", required=True, metavar="FILE")
    p_eval.add_argument("--params", required=True, metavar="FILE")
    p_eval.add_argument("--out", metavar="FILE", help="also write the metrics CSV")

    p_heat = toy_sub.add_parser("heatmaps", help="export confidence/activation maps")
    p_heat.add_argument("--data", required=True, metavar="FILE")
    p_heat.add_argument("--params", required=True, metavar="FILE")
    p_heat.add_argument("--out", required=True, metavar="DIR")
    p_heat.add_argument("--index", type=int, default=0,
                        help="example index within the dataset file")
    p_heat.add_argument("--threshold", type=float,
                        default=heatmaps.CONFIDENCE_THRESHOLD)

    p_cfg = sub.add_parser("config", help="configuration helpers")
    cfg_sub = p_cfg.add_subparsers(dest="config_command", required=True)
    cfg_sub.add_parser("dump", help="print every key with its default")

    return parser


def sibling_test_path(train_path: str) -> str:
    stem, ext = os.path.splitext(train_path)
    return f"{stem}.test{ext or '.bin'}"


# -- command implementations --------------------------------------------------

def _cmd_params(args) -> int:
    if args.preset:
        report = accounting.preset_report(args.preset)
        num_classes = 80 if args.preset.endswith("coco") else 20
        head, disc = accounting.fpn_configs(num_classes)
        counted = f"the FPN head ({num_classes} classes)"
    else:
        cfg = _collect_config(args)
        head, disc = cfg.head_config(), cfg.discovery_config()
        report = accounting.count_params_condensed(
            head, disc, baseline_params=accounting.baseline_params(head),
            title="condensed head (config)")
        counted = "the configured head"
    print(report.render(), end="")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.to_csv())
        print(f"wrote {args.csv}")
    if args.sweep:
        print(f"\n(K, L) sweep of {counted} vs its two-FC baseline:")
        print(accounting.render_sweep(accounting.sweep(head=head, disc=disc)), end="")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    results = gradcheck.run_suite(trials=args.trials, seed=args.seed)
    failed = []
    for name, err in results.items():
        status = "ok" if err < gradcheck.GRAD_TOL else "FAIL"
        print(f"{name:<24} max rel err {err:.3e}  {status}")
        if err >= gradcheck.GRAD_TOL:
            failed.append(name)
    if failed:
        print(f"gradcheck FAILED for: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"gradcheck OK ({len(results)} operations, tolerance {gradcheck.GRAD_TOL})")
    return EXIT_OK


def _cmd_toy_gen(args) -> int:
    cfg = _collect_config(args, data__seed=args.seed)
    train_set, test_set = generate_dataset(cfg.data)
    write_dataset(args.out, cfg.data, train_set)
    test_path = sibling_test_path(args.out)
    write_dataset(test_path, cfg.data, test_set)
    print(f"wrote {args.out} ({len(train_set)} examples) and "
          f"{test_path} ({len(test_set)} examples)")
    return EXIT_OK


def _cmd_toy_train(args) -> int:
    info, examples = read_dataset(args.data)
    cfg = _collect_config(args, train__seed=args.seed,
                          **{f"data__{key}": info[key]
                             for key in ("channels", "height", "width", "num_classes")})
    model = _build_model(args.model, cfg)
    logs = training.train(model, examples, cfg.train)
    training.save_params(args.out, model, cfg.as_text())
    if args.log:
        training.write_log(args.log, logs)
    last = logs[-1]
    print(training.LOG_HEADER)
    print(last.csv_row())
    print(f"wrote {args.out} (+.manifest)")
    return EXIT_OK


def _build_model(kind: str, cfg: runconfig.RunConfig):
    if kind == "condensed":
        return training.build_condensed(cfg.discovery_config(), cfg.head_config(),
                                        cfg.train.seed)
    if kind == "baseline":
        return training.build_baseline(cfg.head_config(), cfg.train.seed)
    raise ContractViolation(f"unknown model {kind!r}; expected 'condensed' or 'baseline'")


def _load_model(params_path):
    kind, meta, tensors = training.load_params(params_path)
    cfg = runconfig.load_config(None, meta)
    model = _build_model(kind, cfg)
    training.restore_into(model, tensors)
    return model


def _read_for_model(data_path, model):
    """Read a dataset file whose grid shape and class count are the model's."""
    info, examples = read_dataset(data_path)
    cfg = model.head_cfg
    have = tuple(info[key] for key in ("channels", "height", "width", "num_classes"))
    want = (cfg.channels, cfg.height, cfg.width, cfg.num_classes)
    if have != want:
        raise ContractViolation(
            f"{data_path}: channels, height, width, classes = {have}, but the "
            f"parameters are for {want}")
    return examples


def _cmd_toy_eval(args) -> int:
    model = _load_model(args.params)
    examples = _read_for_model(args.data, model)
    metrics = evaluate(model, examples)
    print(Metrics.CSV_HEADER)
    print(metrics.csv_row())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(Metrics.CSV_HEADER + "\n" + metrics.csv_row() + "\n")
    return EXIT_OK


def _cmd_toy_heatmaps(args) -> int:
    model = _load_model(args.params)
    examples = _read_for_model(args.data, model)
    if not (0 <= args.index < len(examples)):
        raise ContractViolation(
            f"--index {args.index} outside dataset of {len(examples)} examples")
    paths = heatmaps.export_heatmaps(model, examples[args.index], args.out,
                                     threshold=args.threshold)
    for path in paths:
        print(path)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "params":
            return _cmd_params(args)
        if args.command == "gradcheck":
            return _cmd_gradcheck(args)
        if args.command == "toy":
            return {"gen": _cmd_toy_gen, "train": _cmd_toy_train,
                    "eval": _cmd_toy_eval, "heatmaps": _cmd_toy_heatmaps}[args.toy_command](args)
        if args.command == "config":
            print(runconfig.dump_defaults(), end="")
            return EXIT_OK
        raise AssertionError(f"unhandled command {args.command}")
    except TrainingDivergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ConfigError, ContractViolation, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
