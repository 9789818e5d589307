"""Command-line interface.

    afcmem run <preset-or-config.json> [--seed N] [--out DIR]
               [--format csv|json] [--trials N] [--spins N]
    afcmem validate <preset-or-config.json>

Exit codes: 0 success, 2 invalid configuration (diagnostics on stderr),
3 any other error this package raises while running: a capacity limit, a
domain error, or a derived quantity out of range such as a NaN efficiency
(the message names the violated constraint), or an output directory or
file that cannot be written (the message names the path).
The output directory resolves as flag > AFCMEM_OUT environment variable >
config value; nothing else is read from the environment.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import OUTPUT_DIR_ENV, load_config, preset_names
from .errors import AfcmemError, ConfigError
from .runner import run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afcmem",
        description="Spin-wave optical memory simulator: run experiment "
                    "presets or validate configurations.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a preset or config file")
    run.add_argument("target", help=f"preset name ({', '.join(preset_names())}) "
                                    "or path to a JSON config")
    run.add_argument("--seed", type=int, help="root random seed")
    run.add_argument("--out", help="output directory")
    run.add_argument("--format", choices=("csv", "json"), help="report format")
    run.add_argument("--trials", type=int, help="photon-counting trials")
    run.add_argument("--spins", type=int, help="Monte Carlo ensemble size")

    val = sub.add_parser("validate", help="check a preset or config file")
    val.add_argument("target")
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    over: dict = {}
    if args.seed is not None:
        over["seed"] = args.seed
    if args.format is not None:
        over["format"] = args.format
    if args.trials is not None:
        over["detection"] = {"trials": args.trials}
    if args.spins is not None:
        over["ensemble"] = {"n_spins": args.spins}
    out = args.out if args.out is not None else os.environ.get(OUTPUT_DIR_ENV)
    if out is not None:
        over["output_dir"] = out
    return over


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            load_config(args.target)  # raises ConfigError with all diagnostics
            print(f"{args.target}: ok")
            return EXIT_OK
        cfg, fixtures = load_config(args.target, _overrides(args))
        try:
            paths = run_experiment(cfg, fixtures)
        except OSError as exc:  # the output directory or a file in it cannot be written
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
        for p in paths:
            print(p)
        return EXIT_OK
    except ConfigError as exc:
        for d in exc.diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return EXIT_CONFIG
    except AfcmemError as exc:  # after ConfigError, which is one too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
