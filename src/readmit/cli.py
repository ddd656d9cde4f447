"""Command line interface.

Subcommands mirror the pipeline stages: generate, episodes, features,
train, evaluate, and all. Exit codes: 0 success, 2 usage, 3 missing or
unreadable input (any ``OSError``), 4 parse/schema failure, 5 invalid or
infeasible configuration, 1 other pipeline errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, MappingError, ParseError, ReadmitError
from .pipeline import (
    INPUT_PATHS, RunConfig, run_all, stage_episodes, stage_evaluate, stage_features,
    stage_generate, stage_train,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_PARSE = 4
EXIT_CONFIG = 5


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="JSON run configuration file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", required=True, help="output directory root")
    parser.add_argument("--jobs", type=int, help="worker processes for grid search")
    parser.add_argument("--threshold", type=float,
                        help="score threshold for sensitivity/specificity")
    strictness = parser.add_mutually_exclusive_group()
    strictness.add_argument("--strict", dest="strict", action="store_true",
                            default=None, help="abort on the first bad input row")
    strictness.add_argument("--lenient", dest="strict", action="store_false",
                            default=None, help="skip bad input rows and report counts")


def _add_input_overrides(parser: argparse.ArgumentParser, *names: str):
    for name in names:
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="readmit",
        description="Reconstruct admissions from claims and model 30-day readmissions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, extra in (
        ("generate", ()),
        ("episodes", ("medical", "comorbidity_map", "ccs_map")),
        ("features", ("medical", "pharmacy", "demographics", "comorbidity_map", "ccs_map")),
        ("train", ("features", "comorbidity_map", "ccs_map")),
        ("evaluate", ("features", "models", "comorbidity_map", "ccs_map")),
        ("all", ("medical", "pharmacy", "demographics", "comorbidity_map", "ccs_map")),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        _add_input_overrides(p, *extra)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The config file's values with the flags given on top, validated once
    against the final input paths."""
    overrides = {name: getattr(args, name) for name in ("seed", "jobs", "threshold", "strict")
                 if getattr(args, name) is not None}
    for name in INPUT_PATHS:
        if getattr(args, name, None):
            overrides[name] = getattr(args, name)
    if args.config:
        return RunConfig.from_json(args.config, **overrides)
    return RunConfig.from_dict(overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        out_root = Path(args.out)
        out_root.mkdir(parents=True, exist_ok=True)
        if args.command == "generate":
            stage_generate(cfg, out_root)
        elif args.command == "episodes":
            stage_episodes(cfg, out_root)
        elif args.command == "features":
            stage_features(cfg, out_root)
        elif args.command == "train":
            features = Path(args.features) if getattr(args, "features", None) else None
            stage_train(cfg, out_root, features_path=features)
        elif args.command == "evaluate":
            features = Path(args.features) if getattr(args, "features", None) else None
            models = Path(args.models) if getattr(args, "models", None) else None
            stage_evaluate(cfg, out_root, features_path=features, models_dir=models)
        elif args.command == "all":
            run_all(cfg, out_root)
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (ParseError, MappingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ReadmitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
