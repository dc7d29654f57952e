"""Command-line interface: run, sweep, and validate experiment configs.

Exit codes: 0 success, 2 invalid config or usage, 3 numeric failure. The
environment variable ``OPENCHAIN_SEED`` (a non-negative integer) overrides
the master seed of any config it is run with.
"""

from __future__ import annotations

import argparse
import dataclasses
import locale  # noqa: F401  (argparse's gettext loads it at the first parser build)
import os
import sys

import numpy as np

from .config import ConfigError, load_config
from .lindblad import DegenerateGapError
from .runner import run_scenario, sweep

SEED_ENV_VAR = "OPENCHAIN_SEED"


def _load(path: str):
    config = load_config(path)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        if not env_seed.strip().isdecimal():
            raise ValueError(f"{SEED_ENV_VAR} must be a non-negative integer, got {env_seed!r}")
        config = dataclasses.replace(config, seed=int(env_seed))
    return config


def _parse_values(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="openchain",
        description="Excitation transport and clocked computation on disordered chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario ensemble from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--workers", type=int, default=1)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter over a list of values")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--vary", required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated list")
    p_sweep.add_argument("--workers", type=int, default=1)

    p_val = sub.add_parser("validate", help="check a config file and report all problems")
    p_val.add_argument("config")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load(args.config)
        if args.command == "validate":
            print("config ok")
            return 0
        if args.command == "run":
            manifest = run_scenario(config, workers=args.workers)
        else:
            manifest = sweep(config, args.vary, _parse_values(args.values), workers=args.workers)
        print(f"wrote {len(manifest.outputs)} files to {config.output}")
        return 0
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (DegenerateGapError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
