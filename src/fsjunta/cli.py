"""Command-line entry point: one subcommand per experiment kind.

Each field of ``ExperimentConfig`` but ``kind`` is one ``--flag`` (``-`` for
``_``) and one config-file key; both reach ``config_from_mapping`` as text,
which parses them by the field's type and validates the config once.
Exit codes: 0 on success, 2 on configuration errors, 3 when the optional
wall-clock budget truncated the run (partial outputs are still written).
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .harness import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_OK,
    KINDS,
    ConfigError,
    ExperimentConfig,
    config_from_mapping,
    parse_config_file,
    run_experiment,
)


_HELP = {
    "seed": "master seed",
    "trials": "trial count",
    "out": "CSV output path (summary goes to <out>.summary)",
    "delta": "confidence level for the reported interval",
    "eps": "accuracy parameter",
    "k": "junta size bound",
    "n": "ambient variable count",
    "r": "address-variable count of the instance families",
    "num_draws": "oracle draws per transcript or distribution test",
    "c": "scenario distinguisher constant",
    "target": "target family for test-junta/learn-junta/fs-dist",
    "max_ex": "learner stage-2 example cap override",
    "max_seconds": "wall-clock budget; exceeding it exits with code 3",
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value config file; flags override it")
    for f in fields(ExperimentConfig):
        if f.name != "kind":  # the subcommand
            default = "" if f.default is None else f" (default {f.default})"
            sub.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                             help=_HELP[f.name] + default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsjunta",
        description="Run seeded experiments on the junta tester, the hybrid "
                    "learner, and the hard-instance distinguishers.")
    subs = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        _add_common(subs.add_parser(kind, help=f"run a {kind} experiment"))
    return parser


def _assemble(args: argparse.Namespace) -> ExperimentConfig:
    """The validated config of a command line; its flags override the file."""
    mapping = parse_config_file(args.config) if args.config else {}
    if mapping.get("kind", args.kind) != args.kind:
        raise ConfigError(f"config file kind {mapping['kind']!r} conflicts "
                          f"with subcommand {args.kind!r}")
    mapping.update((key, value) for key, value in vars(args).items()
                   if value is not None and key != "config")
    mapping.setdefault("out", f"{args.kind}.csv")
    return config_from_mapping(mapping)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _assemble(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    result = run_experiment(cfg)
    for key, value in result.summary.items():
        print(f"{key} = {value}")
    print(f"rows -> {result.out_path}")
    print(f"summary -> {result.summary_path}")
    return EXIT_BUDGET if result.truncated else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
