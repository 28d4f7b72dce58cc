"""Command-line benchmark harness.

Every flag is a flat config-file key (``--max-sweeps`` is ``max-sweeps =
...`` in a file); both come from the one option table
:data:`drbcd.experiment.OPTIONS`. Each key sets the config field of its
name, except ``algo`` and ``beta``, which build ``algos``, and
``paper-scale``. Flags override file values and the merged result is echoed
to the output directory as ``config.txt``, from which the experiment can be
reproduced. ``--paper-scale`` switches the defaults to the full-size
comparison (shape 100x200x300, rank 5, 10 runs); explicit flags still win
over the preset. A default that the experiment does not read, such as the
preset's shape with file data, is dropped. A setting the experiment would
not read (``--noise-level`` without ``--data synth``, ``--c-prime`` without
an ``als_dr`` entry) or cannot run with (a beta outside ``(0, 1]``, a rank
the data cannot have, a missing data file) exits 2 with one ``error:`` line
before the output directory is created.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .experiment import (
    DEFAULT_ALGOS,
    DEFAULT_BETA,
    DEFAULT_SURROGATE_SHAPE,
    OPTIONS,
    PAPER_SCALE_PRESET,
    AlgorithmSpec,
    ExperimentConfig,
    SettingError,
    readers,
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
        text = opt.help + (f" (read with {' or '.join(opt.read_with)})" if opt.read_with else "")
        if opt.switch:
            p.add_argument(f"--{opt.key}", action="store_const", const=True, help=text)
        elif opt.key == "algo":
            p.add_argument("--algo", action="append", help=text)
        else:
            p.add_argument(f"--{opt.key}", type=opt.parse, help=text)
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
    flag_values = {
        opt.key: getattr(args, opt.attr)
        for opt in OPTIONS
        if getattr(args, opt.attr) is not None
    }
    try:
        file_values = read_config_file(args.config) if args.config else {}
        notes = []
        for key in sorted(set(file_values) & set(flag_values)):
            if file_values[key] != flag_values[key]:
                notes.append(
                    f"flag --{key} value {flag_values[key]!r} overrode config file "
                    f"value {file_values[key]!r}"
                )

        merged = {**file_values, **flag_values}
        tokens = [tok.strip() for tok in merged.get("algo", DEFAULT_ALGOS)]
        beta = _OPTIONS_BY_KEY["beta"]
        if "beta" in merged and not beta.read_by({f"--algo {tok}" for tok in tokens}):
            raise beta.unread()
        algos = [AlgorithmSpec.parse(tok, merged.get("beta", DEFAULT_BETA)) for tok in tokens]
        # Defaults the user did not set; dropped where nothing would read them.
        data = merged.get("data", "synth")
        defaults = {"shape": DEFAULT_SURROGATE_SHAPE} if data == "surrogate" else {}
        if merged.get("paper-scale"):
            defaults.update(PAPER_SCALE_PRESET)
        switches = [key for key, value in merged.items() if _OPTIONS_BY_KEY[key].switch and value]
        present = readers(data, algos, switches)
        values = {k: v for k, v in defaults.items() if _OPTIONS_BY_KEY[k].read_by(present)}
        values.update(merged)
        if "rank" not in values:
            raise ValueError("missing required value for rank (use --rank or a config file)")
        names = {f.name for f in fields(ExperimentConfig)}
        kwargs = {opt.attr: values[opt.key] for opt in OPTIONS if opt.key in values and opt.attr in names}
        cfg = ExperimentConfig(**kwargs, algos=algos)
    except (OSError, ValueError) as exc:
        # One line, without argparse's usage block, as for a SettingError.
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
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
