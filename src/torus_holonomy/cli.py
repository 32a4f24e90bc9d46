"""Command-line interface.

Subcommands: spectrum | classical | evolve | holonomy | verify.
Exit codes: 0 ok, 2 config error, 3 precondition error, 4 verification
failure.  Outputs are written atomically; a failing run leaves no partial
files and prints one line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import ExperimentConfig, load_config
from .errors import (
    ConfigError,
    DimensionMismatchError,
    OpenCurveError,
    SplitViolationError,
    StepCountError,
    TorusHolonomyError,
)
from . import harness
from .serialize import atomic_write_json, atomic_write_text, json_text

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY = 4


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torus-holonomy",
        description="Simulate and verify controlled integrable torus dynamics.",
    )
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument("--steps", type=int, help="override run.steps from the config")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument(
        "command",
        choices=["spectrum", "classical", "evolve", "holonomy", "verify"],
        help="what to run",
    )
    return parser


def _load(args) -> ExperimentConfig:
    from dataclasses import replace

    if not args.config:
        raise ConfigError("--config is required for this command")
    config = load_config(args.config)
    if args.steps is not None:
        if args.steps < 1:
            raise ConfigError("--steps must be >= 1")
        config = replace(config, run=replace(config.run, steps=args.steps))
    return config


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _measured(value) -> str:
    return "non-finite" if value is None else f"{value:.3e}"


# Quiet numpy's floating-point warnings: every non-finite result is refused
# on its own (JSON and CSV payloads are not written, verify records null),
# so a failing run prints its one error line only.
@np.errstate(all="ignore")
def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out = args.out
    try:
        if args.command == "verify":
            config = _load(args) if args.config else None
            payload = harness.run_verify(config)
            path = os.path.join(out, "verify.json")
            atomic_write_json(path, payload)
            for check in payload["checks"]:
                _say(
                    args,
                    f"{'PASS' if check['passed'] else 'FAIL'} {check['name']}: "
                    f"{_measured(check['measured'])} {check['comparison']} {check['tolerance']:.3e}",
                )
            _say(args, f"wrote {path}")
            return EXIT_OK if payload["passed"] else EXIT_VERIFY

        config = _load(args)
        if args.command == "spectrum":
            payload = harness.run_spectrum(config)
            path = os.path.join(out, "spectrum.json")
            atomic_write_json(path, payload)
            _say(args, f"wrote {path} ({len(payload['levels'])} levels)")
        elif args.command == "classical":
            text = harness.run_classical(config)
            path = os.path.join(out, "trajectory.csv")
            atomic_write_text(path, text)
            _say(args, f"wrote {path}")
        else:
            if args.command == "holonomy":
                matrix, diagnostics = harness.run_holonomy(config)
                stem = "holonomy"
            else:
                matrix, diagnostics = harness.run_evolve(config)
                stem = "evolution"
            path = os.path.join(out, f"{stem}.json")
            diag_path = os.path.join(out, f"{stem}_diagnostics.json")
            # serialize both before writing either, so a refused payload leaves no file
            matrix_text, diag_text = json_text(matrix), json_text(diagnostics)
            atomic_write_text(path, matrix_text)
            atomic_write_text(diag_path, diag_text)
            _say(args, f"wrote {path} and {diag_path}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OpenCurveError, SplitViolationError, DimensionMismatchError, StepCountError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except TorusHolonomyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
