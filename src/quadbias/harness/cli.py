"""Command-line entry point.

Subcommands: gen-data, train, bias-scan, overlap, cg-compare, laplace-sweep,
verify. Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from ..errors import NumericalError, ValidationError
from .config import (
    config_digest,
    load_experiment_config,
    parse_dataset_spec,
    read_config_file,
    with_seed_override,
)
from .datasets import dataset_table, generate_dataset
from .experiments import run_experiment
from .reports import verify_result_dir, write_csv, write_summary
from .training import save_checkpoint, train

_EXPERIMENT_COMMANDS = {
    # the bias-scan command also runs the scan-family kinds selected in the
    # config file (bias-over-training, size-sweep)
    "bias-scan": ("bias-scan", "bias-over-training", "size-sweep"),
    "overlap": ("overlap",),
    "cg-compare": ("cg-compare",),
    "laplace-sweep": ("laplace-sweep",),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadbias",
        description="Mini-batch quadratic bias diagnostics and debiasing experiments",
    )
    parser.add_argument("--config", type=Path, help="experiment config file")
    parser.add_argument("--out-dir", type=Path, default=Path("results"),
                        help="output directory")
    parser.add_argument("--seed-override", type=int, default=None,
                        help="override the dataset seed from the config")
    parser.add_argument("--verbose", action="store_true",
                        help="show numerical warnings (eigenvalue clamps etc.)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen-data", "train", *_EXPERIMENT_COMMANDS):
        sub.add_parser(name)
    verify = sub.add_parser("verify")
    verify.add_argument("result_dir", nargs="?", type=Path, default=None)
    return parser


def _require_config(args) -> Path:
    if args.config is None:
        raise ValidationError("this command requires --config")
    if not args.config.is_file():
        raise ValidationError(f"config file not found: {args.config}")
    return args.config


def _cmd_gen_data(args) -> None:
    sections = with_seed_override(read_config_file(_require_config(args)),
                                  args.seed_override)
    dataset = generate_dataset(parse_dataset_spec(sections))
    digest = config_digest(sections)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name, inputs, labels in (("train", dataset.train_inputs, dataset.train_labels),
                                 ("test", dataset.test_inputs, dataset.test_labels),
                                 ("ood", dataset.ood_inputs, dataset.ood_labels)):
        if inputs is not None:
            write_csv(args.out_dir / f"{name}.csv", *dataset_table(inputs, labels), digest)
    write_summary(args.out_dir / "summary.json", digest, {
        "command": "gen-data",
        "n_train": int(dataset.n_train),
        "n_test": int(dataset.test_inputs.shape[0]),
        "has_ood": dataset.ood_inputs is not None,
    })
    print(f"wrote dataset to {args.out_dir}")


def _cmd_train(args) -> None:
    cfg = load_experiment_config(_require_config(args), args.seed_override)
    dataset = generate_dataset(cfg.dataset)
    cfg.check_layers(dataset.dim, dataset.n_classes)
    checkpoints = train(cfg.arch, dataset, cfg.train)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for ckpt in checkpoints:
        save_checkpoint(replace(ckpt, config_digest=cfg.digest),
                        args.out_dir / f"ckpt_epoch{ckpt.epoch:04d}.qckpt")
    write_summary(args.out_dir / "summary.json", cfg.digest, {
        "command": "train",
        "epochs": [c.epoch for c in checkpoints],
        "n_params": checkpoints[-1].params.n_params,
    })
    print(f"wrote {len(checkpoints)} checkpoints to {args.out_dir}")


def _cmd_experiment(args, allowed_kinds) -> None:
    cfg = load_experiment_config(_require_config(args), args.seed_override)
    if cfg.kind not in allowed_kinds:
        raise ValidationError(
            f"config kind {cfg.kind!r} not runnable via this subcommand "
            f"(expected one of {allowed_kinds})"
        )
    out = run_experiment(cfg, args.out_dir)
    print(f"experiment {cfg.kind} complete: {out}")


def _cmd_verify(args) -> None:
    target = args.result_dir or args.out_dir
    result = verify_result_dir(target)
    if not result["consistent"]:
        raise ValidationError(
            f"digest mismatch in {target}: {result['mismatches']}"
        )
    print(f"verified {len(result['files'])} files, digest {result['digest'][:12]}...")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING)
    if not args.verbose:
        # roundoff-scale eigenvalue clamps are routine at desk scale
        logging.getLogger("quadbias.laplace").setLevel(logging.ERROR)
    try:
        if args.command == "gen-data":
            _cmd_gen_data(args)
        elif args.command == "train":
            _cmd_train(args)
        elif args.command == "verify":
            _cmd_verify(args)
        else:
            _cmd_experiment(args, _EXPERIMENT_COMMANDS[args.command])
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
