"""Benchmark harness: multi-run factorization comparisons with CSV traces.

An experiment fixes one data tensor (synthetic low-rank, sparse surrogate, or
an NTF1 file), then runs each configured algorithm ``runs`` times from
uniform random initializations seeded ``base seed + run index``; run ``k``
of every algorithm starts from the same point. The data, the problem, each
algorithm's solver config and the starts are resolved before anything is
written, so a bad setting fails once, up front. Each run writes a trace
CSV; runs are aggregated onto common time bins
(last-observation-carried-forward) into mean/std curves per algorithm.

The resolved configuration is echoed to the output directory; re-running
from that file reproduces the experiment (byte-identical trace CSVs with the
deterministic sweep clock, at the same BLAS thread count: between 1 and 2
OpenBLAS threads, the objective and the reconstruction error were seen to
move in their last bits, by up to 4.2e-16 relative; see ROADMAP item 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .datagen import SynthSpec, sparse_surrogate, synthetic_lowrank
from .driver import SolverConfig, TraceRecord, run, verify_trace
from .factorization import NtfProblem, init_factors, run_mu
from .schedule import RadiusSchedule
from .subsolver import MAX_RANK
from .tensors import SparseTensor, _pass_threads, read_ntf1, write_ntf1

__all__ = [
    "AlgorithmSpec",
    "ExperimentConfig",
    "Option",
    "OPTIONS",
    "readers",
    "AggregateCurve",
    "ExperimentSummary",
    "AlgorithmTally",
    "RunFailure",
    "InvariantViolation",
    "SettingError",
    "run_experiment",
    "aggregate_runs",
    "write_trace_csv",
    "write_aggregate_csv",
]

AGGREGATE_HEADER = "elapsed_s,algorithm,mean_error,std_error,n_runs"

ALGORITHM_NAMES = ("als_dr", "als", "mu")

# The algorithm entries of a config that names none, as ``--algo`` tokens;
# a bare ``als_dr`` entry takes the default beta.
DEFAULT_ALGOS = ("als_dr-0.5", "als_dr-1", "als", "mu")
DEFAULT_BETA = 0.5

# The preset's algorithms are the default four.
PAPER_SCALE_PRESET = {"shape": (100, 200, 300), "rank": 5, "runs": 10}

DEFAULT_SURROGATE_SHAPE = (90, 500, 100)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# A trace CSV's columns after its leading ``run``: (column, record formatter).
TRACE_COLUMNS = (
    ("iter", lambda rec: str(rec.n)),
    ("elapsed_s", lambda rec: _fmt(rec.elapsed_seconds)),
    ("objective", lambda rec: _fmt(rec.objective)),
    ("recon_error", lambda rec: _fmt(math.sqrt(max(rec.objective, 0.0)))),
    ("step_norm_total", lambda rec: _fmt(math.sqrt(sum(s * s for s in rec.block_step_norms)))),
    ("radius", lambda rec: _fmt(rec.radius)),
    ("stationarity", lambda rec: _fmt(rec.stationarity)),
    ("point_class", lambda rec: rec.point_class),
    ("unconverged_solves", lambda rec: str(rec.unconverged_solves)),
    ("stop_reason", lambda rec: rec.stop_reason),
)
TRACE_HEADER = ",".join(["run"] + [column for column, _ in TRACE_COLUMNS])


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm entry: the radius-restricted solver with its decay
    exponent ``beta``, plain ALS, or MU."""

    name: str
    beta: float | None = None

    def __post_init__(self):
        if self.name not in ALGORITHM_NAMES:
            raise ValueError(
                f"unknown algorithm {self.name!r}; expected one of {ALGORITHM_NAMES}"
            )
        if self.name == "als_dr":
            if self.beta is None:
                raise ValueError("als_dr requires beta")
        elif self.beta is not None:
            raise ValueError(f"{self.name} takes no beta")

    @property
    def label(self) -> str:
        if self.name == "als_dr":
            return f"als_dr-{self.beta:g}"
        return self.name

    @classmethod
    def parse(cls, token: str, beta: float) -> "AlgorithmSpec":
        """Parse an ``--algo`` token; ``als_dr-<beta>`` pins beta inline."""
        token = token.strip()
        if token.startswith("als_dr-"):
            return cls(name="als_dr", beta=float(token[len("als_dr-") :]))
        if token == "als_dr":
            return cls(name="als_dr", beta=beta)
        return cls(name=token)


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description (see the CLI for construction).

    A field whose option nothing in the experiment reads (see
    :attr:`Option.read_with`) must hold its default.
    """

    rank: int
    data: str = "synth"
    shape: tuple[int, ...] = (20, 25, 30)
    algos: list[AlgorithmSpec] = field(
        default_factory=lambda: [AlgorithmSpec.parse(token, DEFAULT_BETA) for token in DEFAULT_ALGOS]
    )
    runs: int = 5
    seed: int = 0
    max_sweeps: int = 300
    max_seconds: float = 60.0
    box_bound: float | None = None
    out: str = "experiment_out"
    plot: bool = False
    clock: str = "wall"
    log_y: bool = False
    noise_level: float = 0.0
    density: float = 0.01
    mean_abs: float = 0.00067
    # The radius constant and log offset of every als_dr entry's schedule.
    c_prime: float = RadiusSchedule.c_prime
    log_offset: int = RadiusSchedule.log_offset
    init_scale: float = 1.0
    save_data: bool = False
    bins: int = 50

    def __post_init__(self):
        self.shape = tuple(int(d) for d in self.shape)
        if self.rank < 1:
            raise ValueError(f"rank must be a positive integer, got {self.rank}")
        if self.rank > MAX_RANK and any(a.name != "mu" for a in self.algos):
            # The exact block solve refuses a wider block, so every ALS run
            # would fail at its first solve; MU solves no block QP.
            raise ValueError(
                f"rank must be at most {MAX_RANK}, the exact block solve's limit, got {self.rank}"
            )
        if self.runs < 1:
            raise ValueError(f"runs must be at least 1, got {self.runs}")
        if not self.algos:
            raise ValueError("at least one algorithm is required")
        labels = [a.label for a in self.algos]
        repeated = sorted({l for l in labels if labels.count(l) > 1})
        if repeated:
            # Each label names its trace files, so a repeat would overwrite.
            raise ValueError(f"duplicate algorithm labels: {', '.join(repeated)}")
        if not (
            self.data in ("synth", "surrogate") or self.data.startswith("file:")
        ):
            raise ValueError(
                f"data must be 'synth', 'surrogate', or 'file:PATH', got {self.data!r}"
            )
        for key, text in (("data", self.data), ("out", self.out)):
            # config.txt is ASCII, one value a line, '#' starts a comment, and
            # values are read back stripped.
            if (
                not text.isascii()
                or "#" in text
                or text != text.strip()
                or len(text.splitlines()) > 1
            ):
                raise ValueError(
                    f"{key} {text!r} cannot be written to config.txt: it must be "
                    "ASCII, on one line, without '#' or surrounding spaces"
                )
        if self.clock not in ("wall", "sweep"):
            raise ValueError(f"clock must be 'wall' or 'sweep', got {self.clock!r}")
        if self.bins < 1:
            raise ValueError(f"bins must be at least 1, got {self.bins}")
        # config.txt would record a value that nothing ran with.
        defaults = {f.name: f.default for f in fields(self)}
        read = self._read_options()
        for opt in OPTIONS:
            if opt not in read and getattr(self, opt.attr, None) != defaults.get(opt.attr):
                raise opt.unread()

    def _read_options(self) -> list[Option]:
        switches = [opt.key for opt in OPTIONS if opt.switch and getattr(self, opt.attr, False)]
        present = readers(self.data, self.algos, switches)
        return [opt for opt in OPTIONS if opt.read_by(present)]

    def provenance_lines(self, notes: Sequence[str] = ()) -> list[str]:
        """Flat key = value lines, one for each setting the experiment reads;
        parseable back into an identical config."""
        lines = ["# resolved experiment configuration"]
        lines += [f"# {note}" for note in notes]
        for opt in self._read_options():
            if opt.key == "algo":
                lines += [
                    f"algo = als_dr-{_fmt(a.beta)}" if a.name == "als_dr" else f"algo = {a.name}"
                    for a in self.algos
                ]
            elif getattr(self, opt.attr, None) is not None:
                value = getattr(self, opt.attr)
                lines.append(f"{opt.key} = {_FORMATS.get(opt.parse, str)(value)}")
        return lines


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"invalid boolean {raw!r}")


def _parse_shape(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


# How config.txt writes a value, by the parser that reads it back (else str).
_FORMATS: dict[Callable, Callable] = {
    float: _fmt,
    _parse_bool: lambda v: "true" if v else "false",
    _parse_shape: lambda v: ",".join(str(d) for d in v),
}


@dataclass(frozen=True)
class Option:
    """One CLI flag and config-file key: ``--max-sweeps N`` is ``max-sweeps = N``.

    ``parse`` reads a value from text; a switch's flag takes no value. A
    key names the :class:`ExperimentConfig` field with its dashes as
    underscores, except three: ``algo`` and ``beta`` build the ``algos``
    field, and ``paper-scale`` selects a preset. ``read_with`` names what
    reads the option, as flags: ``--data KIND``, ``--algo NAME`` or a switch
    such as ``--plot``; an option that names none is always read. A field
    that nothing in its experiment reads must keep its default, and
    ``config.txt`` leaves it out.
    """

    key: str
    parse: Callable[[str], object]
    help: str
    read_with: tuple[str, ...] = ()

    @property
    def attr(self) -> str:
        return self.key.replace("-", "_")

    @property
    def switch(self) -> bool:
        return self.parse is _parse_bool

    def read_by(self, present: set[str]) -> bool:
        """Whether an experiment with the ``present`` readers reads this option."""
        return not self.read_with or not present.isdisjoint(self.read_with)

    def unread(self) -> ValueError:
        return ValueError(f"{self.key} is not read: only {' or '.join(self.read_with)} reads it")


def readers(data: str, algos: Iterable[AlgorithmSpec], switches: Iterable[str]) -> set[str]:
    """What an experiment reads options with, named as in :attr:`Option.read_with`:
    its data kind, its algorithms and the switches that are on."""
    present = {f"--data {data.split(':', 1)[0]}", *(f"--{key}" for key in switches)}
    return present | {f"--algo {a.name}" for a in algos}


# In config.txt order; ``algo`` is the one key that repeats.
OPTIONS = (
    Option("data", str, "synth, surrogate or file:PATH (an NTF1 tensor)"),
    Option("shape", _parse_shape, "data tensor dimensions d1,d2,...", ("--data synth", "--data surrogate")),
    Option("rank", int, "factorization rank"),
    Option("algo", str, "algorithm entry: als_dr, als_dr-BETA, als or mu (repeatable)"),
    # Read where the tokens are parsed: only a bare als_dr token takes it.
    Option("beta", float, "decay exponent for bare als_dr entries; als_dr-BETA pins one inline", ("--algo als_dr",)),
    Option("c-prime", float, "search radius constant for every als_dr entry", ("--algo als_dr",)),
    Option("runs", int, "runs per algorithm"),
    Option("seed", int, "base seed (run k uses seed + k)"),
    Option("max-sweeps", int, "sweep budget per run"),
    Option("max-seconds", float, "time budget per run, in seconds"),
    Option("box-bound", float, "factor entry upper bound"),
    Option("out", str, "output directory"),
    Option("plot", _parse_bool, "emit convergence.svg"),
    Option("paper-scale", _parse_bool, "full-size comparison defaults (100x200x300, rank 5, 10 runs)"),
    Option("clock", str, "trace timestamps: wall (wall time) or sweep (deterministic sweep index)"),
    Option("log-y", _parse_bool, "log-scale error axis", ("--plot",)),
    Option("noise-level", float, "synthetic data noise level", ("--data synth",)),
    Option("density", float, "surrogate nonzero probability", ("--data surrogate",)),
    Option("mean-abs", float, "surrogate target mean absolute entry", ("--data surrogate",)),
    Option("log-offset", int, "offset inside the schedule log divisor", ("--algo als_dr",)),
    Option("init-scale", float, "uniform init upper bound"),
    Option("save-data", _parse_bool, "write data.ntf1"),
    Option("bins", int, "aggregation time bins"),
)


@dataclass(frozen=True)
class AggregateCurve:
    """Per-algorithm mean/std reconstruction error on shared time bins."""

    bin_centers: np.ndarray
    mean: dict[str, np.ndarray]
    std: dict[str, np.ndarray]
    n_runs: dict[str, np.ndarray]

    def __post_init__(self):
        centers = np.asarray(self.bin_centers, dtype=np.float64)
        if centers.size and np.any(np.diff(centers) <= 0):
            raise ValueError("bin centers must be strictly increasing")
        object.__setattr__(self, "bin_centers", centers)
        for label, s in self.std.items():
            if np.any(np.asarray(s) < 0):
                raise ValueError(f"negative std in aggregate for {label}")

    @property
    def algorithms(self) -> list[str]:
        return list(self.mean.keys())


@dataclass(frozen=True)
class RunFailure:
    algorithm: str
    run_index: int
    message: str


@dataclass(frozen=True)
class InvariantViolation:
    """A block-descent run whose trace broke one of :func:`verify_trace`'s checks.

    ``sweep`` is where the check's worst excess, ``excess``, occurred.
    """

    algorithm: str
    run_index: int
    check: str
    sweep: int
    excess: float


@dataclass
class AlgorithmTally:
    """One algorithm entry's completed runs, and what they add up to."""

    algo: AlgorithmSpec
    traces: list[list[TraceRecord]] = field(default_factory=list)

    @property
    def initial_errors(self) -> list[float]:
        return [math.sqrt(max(trace[0].objective, 0.0)) for trace in self.traces]

    @property
    def final_errors(self) -> list[float]:
        return [math.sqrt(max(trace[-1].objective, 0.0)) for trace in self.traces]

    @property
    def total_sweeps(self) -> int:
        return sum(len(trace) - 1 for trace in self.traces)

    @property
    def short_sweeps(self) -> int:
        """Sweeps in which some block step reached the radius."""
        return sum(rec.point_class == "short" for trace in self.traces for rec in trace[1:])

    @property
    def block_solves(self) -> int:
        """Block QP solves; MU makes none."""
        if self.algo.name == "mu":
            return 0
        return sum((len(trace) - 1) * len(trace[0].block_step_norms) for trace in self.traces)

    @property
    def unconverged_solves(self) -> int:
        return sum(rec.unconverged_solves for trace in self.traces for rec in trace)

    @property
    def time_stops(self) -> int:
        """Runs that the time budget stopped; their sweep counts depend on the
        machine's speed."""
        return sum(trace[-1].stop_reason == "max_seconds" for trace in self.traces)


@dataclass
class ExperimentSummary:
    out_dir: Path
    trace_paths: dict[tuple[str, int], Path]
    aggregate_path: Path | None
    plot_path: Path | None
    curve: AggregateCurve | None
    # One tally per algorithm entry, by label, in config order.
    tallies: dict[str, AlgorithmTally]
    failures: list[RunFailure]
    # Every broken invariant of the block-descent runs' traces; reported,
    # not a failure.
    violations: list[InvariantViolation]

    def report(self) -> str:
        lines = []
        for label, tally in self.tallies.items():
            init, final = tally.initial_errors, tally.final_errors
            mean_init = float(np.mean(init)) if init else math.nan
            mean_final = float(np.mean(final)) if final else math.nan
            ratio = mean_final / mean_init if mean_init else math.nan
            solves = (
                f", {tally.unconverged_solves} of {tally.block_solves} "
                "block solves unconverged"
                if tally.block_solves
                else ""
            )
            lines.append(
                f"{label}: mean initial error {mean_init:.6g}, "
                f"mean final error {mean_final:.6g} (ratio {ratio:.3g}, "
                f"{len(final)} runs, {tally.short_sweeps} of "
                f"{tally.total_sweeps} sweeps short{solves}, "
                f"{tally.time_stops} of {len(final)} runs stopped by the time budget)"
            )
        als = self.tallies.get("als")
        if als is not None and als.traces:
            als_final = float(np.mean(als.final_errors))
            for label, tally in self.tallies.items():
                if tally.algo.name != "als_dr" or not tally.traces:
                    continue
                dr_final = float(np.mean(tally.final_errors))
                verdict = "below" if dr_final < als_final else "not below"
                unbound = (
                    "; radius never bound: same path as plain als"
                    if tally.short_sweeps == 0
                    else ""
                )
                lines.append(
                    f"comparison: {label} mean final error {dr_final:.6g} is "
                    f"{verdict} plain als ({als_final:.6g}){unbound}"
                )
        threads, cores, blas = _pass_threads()
        lines.append(
            f"dense passes and set-up: up to {_count(threads, 'thread')} ({_count(cores, 'core')}, "
            f"{_count(blas, 'BLAS thread') if blas else 'BLAS thread count unknown'}, "
            f"{_blas_build() or 'BLAS build unknown'})"
        )
        for v in self.violations:
            lines.append(
                f"INVARIANT {v.algorithm} run {v.run_index}: {v.check} broken at "
                f"sweep {v.sweep} (worst excess {v.excess:.3g})"
            )
        for f in self.failures:
            lines.append(f"FAILED {f.algorithm} run {f.run_index}: {f.message}")
        return "\n".join(lines)


def _blas_build() -> str | None:
    """The name and version of the BLAS numpy was built with, such as
    ``scipy-openblas 0.3.31.188.0``, or ``None`` where numpy does not say
    (``np.show_config(mode="dicts")`` came with numpy 1.26)."""
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:
        return None
    return " ".join(str(blas[key]) for key in ("name", "version") if blas.get(key)) or None


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}" + ("" if n == 1 else "s")


class SettingError(ValueError):
    """A setting the experiment cannot run with, found before anything is written."""


def resolve_data(cfg: ExperimentConfig) -> np.ndarray | SparseTensor:
    """Build or load the experiment tensor (once per config).

    A sparse surrogate comes as the coordinates of its nonzeros, at every
    density, which :class:`NtfProblem` takes as it takes a tensor;
    ``.dense()`` gives the tensor.
    """
    if cfg.data == "synth":
        spec = SynthSpec(
            dims=cfg.shape, rank=cfg.rank, seed=cfg.seed, noise_level=cfg.noise_level
        )
        return synthetic_lowrank(spec)[0]
    if cfg.data == "surrogate":
        spec = SynthSpec(
            dims=cfg.shape,
            rank=cfg.rank,
            seed=cfg.seed,
            density=cfg.density,
            target_mean_abs=cfg.mean_abs,
        )
        return sparse_surrogate(spec)
    return read_ntf1(cfg.data[len("file:") :])


def _solver_config(cfg: ExperimentConfig, algo: AlgorithmSpec) -> SolverConfig:
    if algo.name == "als_dr":
        schedule = RadiusSchedule(
            kind="power_log",
            beta=algo.beta,
            c_prime=cfg.c_prime,
            log_offset=cfg.log_offset,
        )
    else:
        schedule = RadiusSchedule(kind="infinite")
    return SolverConfig(
        schedule=schedule,
        max_sweeps=cfg.max_sweeps,
        max_seconds=cfg.max_seconds,
        clock=cfg.clock,
    )


def _start(problem: NtfProblem, cfg: ExperimentConfig, run_index: int) -> list[np.ndarray]:
    """Run ``run_index``'s start, seeded ``seed + run_index`` whatever the
    algorithm; read-only, since every algorithm's run shares it."""
    blocks = init_factors(
        problem.shape,
        cfg.rank,
        seed=cfg.seed + run_index,
        scale=cfg.init_scale,
        box_bound=problem.box_bound,
    ).to_blocks()
    for block in blocks:
        block.flags.writeable = False
    return blocks


def write_trace_csv(path, run_index: int, trace: Sequence[TraceRecord]) -> None:
    """One row per trace record, 17 significant digits, fixed newline."""
    rows = [TRACE_HEADER] + [
        ",".join([str(run_index)] + [fmt(rec) for _, fmt in TRACE_COLUMNS]) for rec in trace
    ]
    Path(path).write_bytes(("\n".join(rows) + "\n").encode("ascii"))


def write_aggregate_csv(path, curve: AggregateCurve) -> None:
    rows = [AGGREGATE_HEADER]
    for label in curve.algorithms:
        for j, t in enumerate(curve.bin_centers):
            rows.append(
                ",".join(
                    [
                        _fmt(float(t)),
                        label,
                        _fmt(float(curve.mean[label][j])),
                        _fmt(float(curve.std[label][j])),
                        str(int(curve.n_runs[label][j])),
                    ]
                )
            )
    Path(path).write_bytes(("\n".join(rows) + "\n").encode("ascii"))


def aggregate_runs(
    traces_by_algo: Mapping[str, Sequence[Sequence[TraceRecord]]], bins: int
) -> AggregateCurve:
    """Resample traces onto shared time bins and average per algorithm.

    The ``bins`` bin centers are evenly spaced up to the latest elapsed time
    of any trace, and each run contributes its last reconstruction error at
    or before a center (last observation carried forward); a run whose first
    record comes after a center does not count there. Every trace must be
    nonempty, with nondecreasing elapsed times, as :func:`drbcd.driver.run`
    and :func:`drbcd.factorization.run_mu` record them. Population standard
    deviation is reported (a single run gives zero std).
    """
    for label, traces in traces_by_algo.items():
        for k, trace in enumerate(traces):
            if not trace:
                raise ValueError(f"{label} run {k}: empty trace")
    t_max = max(trace[-1].elapsed_seconds for traces in traces_by_algo.values() for trace in traces)
    if t_max <= 0.0:
        t_max = 1.0
    centers = np.linspace(t_max / bins, t_max, bins)

    mean: dict[str, np.ndarray] = {}
    std: dict[str, np.ndarray] = {}
    n_runs: dict[str, np.ndarray] = {}
    for label, traces in traces_by_algo.items():
        # Row k holds run k's error at each center; ``seen`` marks the
        # centers at or after its first record.
        errors = np.empty((len(traces), bins))
        seen = np.empty((len(traces), bins), dtype=bool)
        for k, trace in enumerate(traces):
            last = np.searchsorted([rec.elapsed_seconds for rec in trace], centers, side="right") - 1
            seen[k] = last >= 0
            errors[k] = [math.sqrt(max(trace[i].objective, 0.0)) for i in last]
        at = [errors[seen[:, j], j] for j in range(bins)]
        mean[label] = np.array([a.mean() if a.size else math.nan for a in at])
        std[label] = np.array([a.std() if a.size else 0.0 for a in at])
        n_runs[label] = seen.sum(axis=0)
    return AggregateCurve(bin_centers=centers, mean=mean, std=std, n_runs=n_runs)


def run_experiment(cfg: ExperimentConfig, notes: Sequence[str] = ()) -> ExperimentSummary:
    """Execute every algorithm x run cell, write traces, aggregate, plot.

    The data, the problem, one solver config per algorithm and one start per
    run index are resolved first; a setting that fails there raises
    :class:`SettingError` before ``cfg.out`` is created. Solver failures
    after that are recorded per run and do not abort the experiment; the
    CLI maps a nonempty failure list to a nonzero exit status. Every
    block-descent trace is re-checked with :func:`verify_trace`, and each
    broken invariant is listed in the report, without failing the run. The
    cells run one after another, each algorithm's runs in order.
    """
    try:
        problem = NtfProblem(resolve_data(cfg), cfg.rank, box_bound=cfg.box_bound)
        solvers = {algo.label: _solver_config(cfg, algo) for algo in cfg.algos}
        starts = {k: _start(problem, cfg, k) for k in range(1, cfg.runs + 1)}
    except (ValueError, OSError, MemoryError) as exc:
        # A MemoryError raised by Python itself, not numpy, has no message.
        raise SettingError(str(exc) or type(exc).__name__) from exc

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(
        "\n".join(cfg.provenance_lines(notes)) + "\n", encoding="ascii"
    )
    if cfg.save_data:
        write_ntf1(out_dir / "data.ntf1", problem.data)

    tallies = {algo.label: AlgorithmTally(algo) for algo in cfg.algos}
    trace_paths: dict[tuple[str, int], Path] = {}
    failures: list[RunFailure] = []
    violations: list[InvariantViolation] = []
    for algo in cfg.algos:
        solve = run_mu if algo.name == "mu" else run
        for k, start in starts.items():
            try:
                trace = solve(problem, start, solvers[algo.label])[1]
            except Exception as exc:  # recorded, experiment continues
                failures.append(RunFailure(algo.label, k, str(exc)))
                continue
            path = out_dir / f"{algo.label}_run{k}.csv"
            write_trace_csv(path, k, trace)
            trace_paths[(algo.label, k)] = path
            tallies[algo.label].traces.append(trace)
            if algo.name != "mu":
                verdict = verify_trace(trace, solvers[algo.label].schedule)
                violations += [
                    InvariantViolation(algo.label, k, outcome.check, outcome.sweep, outcome.worst)
                    for outcome in verdict.outcomes
                    if not outcome.ok
                ]

    curve = None
    aggregate_path = None
    plot_path = None
    nonempty = {label: t.traces for label, t in tallies.items() if t.traces}
    if nonempty:
        curve = aggregate_runs(nonempty, cfg.bins)
        aggregate_path = out_dir / "aggregate.csv"
        write_aggregate_csv(aggregate_path, curve)
        if cfg.plot:
            from .svgplot import emit_svg_plot

            plot_path = out_dir / "convergence.svg"
            emit_svg_plot(curve, plot_path, log_y=cfg.log_y)

    return ExperimentSummary(
        out_dir=out_dir,
        trace_paths=trace_paths,
        aggregate_path=aggregate_path,
        plot_path=plot_path,
        curve=curve,
        tallies=tallies,
        failures=failures,
        violations=violations,
    )
