"""Command-line benchmark harness.

Every flag is a flat config-file key (``--max-sweeps`` is ``max-sweeps =
...`` in a file); both come from the one option table
:data:`drbcd.experiment.OPTIONS`. Flags override file values and the merged
result is echoed to the output directory as ``config.txt``, from which the
experiment can be reproduced. ``--paper-scale`` switches the defaults to the
full-size comparison (shape 100x200x300, rank 5, 10 runs, all four
algorithms); explicit flags still win over the preset. A setting the
experiment cannot run with (a beta outside ``(0, 1]``, a rank the data
cannot have, a missing data file) exits 2 with one ``error:`` line before
the output directory is created.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .experiment import (
    DEFAULT_ALGOS,
    DEFAULT_BETA,
    DEFAULT_C_PRIME,
    DEFAULT_SURROGATE_SHAPE,
    OPTIONS,
    PAPER_SCALE_PRESET,
    AlgorithmSpec,
    ExperimentConfig,
    SettingError,
    run_experiment,
)

__all__ = ["build_parser", "parse_config", "main"]

_OPTIONS_BY_KEY = {opt.key: opt for opt in OPTIONS}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="drbcd",
        description=(
            "Benchmark nonnegative tensor factorization: radius-restricted "
            "block descent (als_dr), plain alternating least squares (als), "
            "and multiplicative updates (mu)."
        ),
    )
    p.add_argument("--config", metavar="FILE", help="flat key = value config file")
    for opt in OPTIONS:
        if opt.switch:
            p.add_argument(f"--{opt.key}", action="store_const", const=True, help=opt.help)
        elif opt.key == "algo":
            p.add_argument("--algo", action="append", help=opt.help)
        else:
            p.add_argument(f"--{opt.key}", type=opt.parse, help=opt.help)
    return p


def read_config_file(path) -> dict:
    """Parse a flat ``key = value`` file; keys match the flag names."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _OPTIONS_BY_KEY:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            parsed = _OPTIONS_BY_KEY[key].parse(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from exc
        if key == "algo":
            values.setdefault(key, []).append(parsed)
        else:
            values[key] = parsed
    return values


def parse_config(argv=None) -> tuple[ExperimentConfig, list[str]]:
    """Resolve flags + optional config file into an experiment config.

    Returns the config plus provenance notes recording any file values that
    flags overrode.
    """
    parser = build_parser()
    args = parser.parse_args(argv)

    file_values = {}
    if args.config:
        try:
            file_values = read_config_file(args.config)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))

    flag_values = {
        opt.key: getattr(args, opt.attr)
        for opt in OPTIONS
        if getattr(args, opt.attr) is not None
    }
    notes = []
    for key in sorted(set(file_values) & set(flag_values)):
        if file_values[key] != flag_values[key]:
            notes.append(
                f"flag --{key} value {flag_values[key]!r} overrode config file "
                f"value {file_values[key]!r}"
            )

    merged: dict = {}
    if flag_values.get("paper-scale", file_values.get("paper-scale", False)):
        merged.update(PAPER_SCALE_PRESET)
    merged.update(file_values)
    merged.update(flag_values)

    if "rank" not in merged:
        parser.error("missing required value for rank (use --rank or a config file)")
    if "shape" not in merged and merged.get("data") == "surrogate":
        merged["shape"] = DEFAULT_SURROGATE_SHAPE

    kwargs = {
        f.name: merged[key]
        for f in fields(ExperimentConfig)
        if (key := f.name.replace("_", "-")) in merged
    }
    try:
        tokens = [tok.strip() for tok in merged.get("algo", DEFAULT_ALGOS)]
        beta = merged.get("beta", DEFAULT_BETA)
        c_prime = merged.get("c-prime", DEFAULT_C_PRIME)
        kwargs["algos"] = [AlgorithmSpec.parse(tok, beta, c_prime) for tok in tokens]
        # A value that no entry uses would be dropped without a word.
        if "beta" in merged and "als_dr" not in tokens:
            raise ValueError(
                "beta applies only to bare als_dr entries and none is given "
                f"(algorithms: {', '.join(tokens)}); pin it inline as als_dr-BETA"
            )
        if "c-prime" in merged and not any(a.name == "als_dr" for a in kwargs["algos"]):
            raise ValueError(
                "c-prime applies only to als_dr entries and none is given "
                f"(algorithms: {', '.join(tokens)})"
            )
        cfg = ExperimentConfig(**kwargs)
    except ValueError as exc:
        parser.error(str(exc))
    return cfg, notes


def main(argv=None) -> int:
    cfg, notes = parse_config(argv)
    try:
        summary = run_experiment(cfg, notes)
    except SettingError as exc:
        print(f"drbcd: error: {exc}", file=sys.stderr)
        return 2
    print(summary.report())
    print(f"traces: {len(summary.trace_paths)} CSV files in {summary.out_dir}")
    if summary.aggregate_path is not None:
        print(f"aggregate: {summary.aggregate_path}")
    if summary.plot_path is not None:
        print(f"plot: {summary.plot_path}")
    return 1 if summary.failures else 0


if __name__ == "__main__":
    sys.exit(main())
