"""Command line interface.

Subcommands mirror the pipeline stages: generate, episodes, features,
train, evaluate, and all. Exit codes: 0 success, 2 usage, 3 missing or
unreadable input (any ``OSError``), 4 parse/schema failure, 5 invalid or
infeasible configuration, 1 other pipeline errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# BLAS splits its sums by thread, so the last digits of a logistic or PCA fit, and
# the model files, depend on the thread count: one thread, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from .errors import ConfigError, MappingError, ParseError, ReadmitError  # noqa: E402
from .pipeline import (  # noqa: E402
    INPUT_PATHS, RunConfig, run_all, stage_episodes, stage_evaluate, stage_features,
    stage_generate, stage_train,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_PARSE = 4
EXIT_CONFIG = 5
# Error kinds -> exit code, the first that matches; other errors are bugs.
EXIT_CODES = (
    (OSError, EXIT_MISSING_INPUT),
    ((ParseError, MappingError), EXIT_PARSE),
    (ConfigError, EXIT_CONFIG),
    ((ReadmitError, ValueError), EXIT_FAILURE),
)

MAPS = ("comorbidity_map", "ccs_map")
# Subcommand -> (the stage it runs, the input paths it takes as flags).
STAGES = {
    "generate": (stage_generate, ()),
    "episodes": (stage_episodes, ("medical", *MAPS)),
    "features": (stage_features, INPUT_PATHS),
    "train": (stage_train, ("features", *MAPS)),
    "evaluate": (stage_evaluate, ("features", "models", *MAPS)),
    "all": (run_all, INPUT_PATHS),
}
# Input flags a stage takes as an argument, not from the config -> its keyword.
STAGE_PATHS = {"features": "features_path", "models": "models_dir"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="readmit",
        description="Reconstruct admissions from claims and model 30-day readmissions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, inputs) in STAGES.items():
        p = sub.add_parser(command)
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", required=True, help="output directory root")
        p.add_argument("--jobs", type=int, help="worker processes for grid search")
        p.add_argument("--threshold", type=float,
                       help="score threshold for sensitivity/specificity")
        strictness = p.add_mutually_exclusive_group()
        strictness.add_argument("--strict", dest="strict", action="store_true",
                                default=None, help="abort on the first bad input row")
        strictness.add_argument("--lenient", dest="strict", action="store_false",
                                default=None, help="skip bad input rows and report counts")
        for name in inputs:
            p.add_argument(f"--{name.replace('_', '-')}", dest=name)
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
        paths = {keyword: Path(getattr(args, name)) for name, keyword in STAGE_PATHS.items()
                 if getattr(args, name, None)}
        STAGES[args.command][0](cfg, out_root, **paths)
        return EXIT_OK
    except (OSError, ReadmitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    raise SystemExit(main())
