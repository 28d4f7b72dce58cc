"""Benchmark harness: multi-run factorization comparisons with CSV traces.

An experiment fixes one data tensor (synthetic low-rank, sparse surrogate, or
an NTF1 file), then runs each configured algorithm ``runs`` times from
uniform random initializations seeded ``base seed + run index``. Each run
writes a trace CSV; runs are aggregated onto common time bins
(last-observation-carried-forward) into mean/std curves per algorithm.

The resolved configuration is echoed to the output directory; re-running
from that file reproduces the experiment (byte-identical trace CSVs with the
deterministic sweep clock, whether the runs are serial or threaded).
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .datagen import SynthSpec, sparse_surrogate, synthetic_lowrank
from .driver import SolverConfig, TraceRecord, TraceVerification, run, verify_trace
from .factorization import NtfProblem, init_factors, run_mu
from .schedule import RadiusSchedule
from .tensors import read_ntf1, write_ntf1

__all__ = [
    "AlgorithmSpec",
    "ExperimentConfig",
    "Option",
    "OPTIONS",
    "AggregateCurve",
    "ExperimentSummary",
    "RunFailure",
    "InvariantViolation",
    "run_experiment",
    "aggregate_runs",
    "write_trace_csv",
    "write_aggregate_csv",
]

TRACE_HEADER = (
    "run,iter,elapsed_s,objective,recon_error,step_norm_total,radius,stationarity,point_class,"
    "unconverged_solves,stop_reason"
)
AGGREGATE_HEADER = "elapsed_s,algorithm,mean_error,std_error,n_runs"

ALGORITHM_NAMES = ("als_dr", "als", "mu")

# The algorithm entries of a config that names none, as ``--algo`` tokens;
# a bare ``als_dr`` entry takes the default beta.
DEFAULT_ALGOS = ("als_dr-0.5", "als_dr-1", "als", "mu")
DEFAULT_BETA = 0.5
DEFAULT_C_PRIME = 1e5

PAPER_SCALE_PRESET = {
    "shape": (100, 200, 300),
    "rank": 5,
    "runs": 10,
    "algo": list(DEFAULT_ALGOS),
}

DEFAULT_SURROGATE_SHAPE = (90, 500, 100)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm entry: the radius-restricted solver, plain ALS, or MU."""

    name: str
    beta: float | None = None
    c_prime: float | None = None

    def __post_init__(self):
        if self.name not in ALGORITHM_NAMES:
            raise ValueError(
                f"unknown algorithm {self.name!r}; expected one of {ALGORITHM_NAMES}"
            )
        if self.name == "als_dr":
            if self.beta is None or self.c_prime is None:
                raise ValueError("als_dr requires beta and c_prime")
        elif self.beta is not None or self.c_prime is not None:
            raise ValueError(f"{self.name} takes no beta or c_prime")

    @property
    def label(self) -> str:
        if self.name == "als_dr":
            return f"als_dr-{self.beta:g}"
        return self.name

    @classmethod
    def parse(cls, token: str, beta: float, c_prime: float) -> "AlgorithmSpec":
        """Parse an ``--algo`` token; ``als_dr-<beta>`` pins beta inline."""
        token = token.strip()
        if token.startswith("als_dr-"):
            return cls(name="als_dr", beta=float(token[len("als_dr-") :]), c_prime=c_prime)
        if token == "als_dr":
            return cls(name="als_dr", beta=beta, c_prime=c_prime)
        return cls(name=token)


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description (see the CLI for construction)."""

    rank: int
    data: str = "synth"
    shape: tuple[int, ...] = (20, 25, 30)
    algos: list[AlgorithmSpec] = field(
        default_factory=lambda: [
            AlgorithmSpec.parse(token, DEFAULT_BETA, DEFAULT_C_PRIME) for token in DEFAULT_ALGOS
        ]
    )
    runs: int = 5
    seed: int = 0
    max_sweeps: int = 300
    max_seconds: float = 60.0
    box_bound: float | None = None
    out: str = "experiment_out"
    plot: bool = False
    serial: bool = False
    clock: str = "wall"
    log_y: bool = False
    noise_level: float = 0.0
    density: float = 0.01
    mean_abs: float = 0.00067
    log_offset: int = 1
    init_scale: float = 1.0
    save_data: bool = False
    bins: int = 50

    def __post_init__(self):
        self.shape = tuple(int(d) for d in self.shape)
        if self.rank < 1:
            raise ValueError(f"rank must be a positive integer, got {self.rank}")
        if self.runs < 1:
            raise ValueError(f"runs must be at least 1, got {self.runs}")
        if not self.algos:
            raise ValueError("at least one algorithm is required")
        labels = [a.label for a in self.algos]
        repeated = sorted({l for l in labels if labels.count(l) > 1})
        if repeated:
            # Each label names its trace files, so a repeat would overwrite.
            raise ValueError(f"duplicate algorithm labels: {', '.join(repeated)}")
        if len({a.c_prime for a in self.algos if a.name == "als_dr"}) > 1:
            # config.txt holds one c-prime for every als_dr entry.
            raise ValueError("every als_dr entry must use the same c_prime")
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

    def provenance_lines(self, notes: Sequence[str] = ()) -> list[str]:
        """Flat key = value lines; parseable back into an identical config."""
        lines = ["# resolved experiment configuration"]
        lines += [f"# {note}" for note in notes]
        for opt in OPTIONS:
            if opt.key == "algo":
                lines += [
                    f"algo = als_dr-{_fmt(a.beta)}" if a.name == "als_dr" else f"algo = {a.name}"
                    for a in self.algos
                ]
            elif opt.key == "c-prime":
                # At most one value: every als_dr entry shares it.
                c_primes = {a.c_prime for a in self.algos if a.name == "als_dr"}
                lines += [f"c-prime = {_fmt(c)}" for c in c_primes]
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
    underscores; ``algo``, ``beta`` and ``c-prime`` build the ``algos``
    field together, and ``paper-scale`` selects a preset.
    """

    key: str
    parse: Callable[[str], object]
    help: str

    @property
    def attr(self) -> str:
        return self.key.replace("-", "_")

    @property
    def switch(self) -> bool:
        return self.parse is _parse_bool


# In config.txt order; ``algo`` is the one key that repeats.
OPTIONS = (
    Option("data", str, "synth, surrogate or file:PATH (an NTF1 tensor)"),
    Option("shape", _parse_shape, "data tensor dimensions d1,d2,..."),
    Option("rank", int, "factorization rank"),
    Option("algo", str, "algorithm entry: als_dr, als_dr-BETA, als or mu (repeatable)"),
    Option("beta", float, "decay exponent for bare als_dr entries (an error when there are none)"),
    Option("c-prime", float, "search radius constant for every als_dr entry, the default ones too"),
    Option("runs", int, "runs per algorithm"),
    Option("seed", int, "base seed (run k uses seed + k)"),
    Option("max-sweeps", int, "sweep budget per run"),
    Option("max-seconds", float, "time budget per run, in seconds"),
    Option("box-bound", float, "factor entry upper bound"),
    Option("out", str, "output directory"),
    Option("plot", _parse_bool, "emit convergence.svg"),
    Option("paper-scale", _parse_bool, "full-size comparison defaults (100x200x300, rank 5, 10 runs)"),
    Option("serial", _parse_bool, "run cells sequentially"),
    Option("clock", str, "trace timestamps: wall (wall time) or sweep (deterministic sweep index)"),
    Option("log-y", _parse_bool, "log-scale error axis"),
    Option("noise-level", float, "synthetic data noise level"),
    Option("density", float, "surrogate nonzero probability"),
    Option("mean-abs", float, "surrogate target mean absolute entry"),
    Option("log-offset", int, "offset inside the schedule log divisor"),
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

    @classmethod
    def from_verdict(
        cls, algorithm: str, run_index: int, verdict: TraceVerification
    ) -> list["InvariantViolation"]:
        checks = (
            ("monotone descent", verdict.monotone_ok, verdict.monotone_sweep, verdict.monotone_worst),
            ("radius bound", verdict.radius_ok, verdict.radius_sweep, verdict.radius_worst),
            ("square-sum bound", verdict.square_sum_ok, verdict.square_sum_sweep, verdict.square_sum_worst),
        )
        return [
            cls(algorithm, run_index, check, sweep, excess)
            for check, ok, sweep, excess in checks
            if not ok
        ]


@dataclass
class ExperimentSummary:
    out_dir: Path
    trace_paths: dict[tuple[str, int], Path]
    aggregate_path: Path | None
    plot_path: Path | None
    curve: AggregateCurve | None
    initial_errors: dict[str, list[float]]
    final_errors: dict[str, list[float]]
    failures: list[RunFailure]
    # Sweeps over all of an algorithm's completed runs, and how many of them
    # were short (some block step reached the radius).
    short_sweeps: dict[str, int]
    total_sweeps: dict[str, int]
    # Block QP solves over all of an algorithm's completed runs (none for
    # MU), and how many of them stopped without converging.
    block_solves: dict[str, int]
    unconverged_solves: dict[str, int]
    # Completed runs of each algorithm that its time budget stopped; their
    # sweep counts depend on the machine's speed.
    time_stops: dict[str, int]
    # Every broken invariant of the block-descent runs' traces; reported,
    # not a failure.
    violations: list[InvariantViolation]

    def report(self) -> str:
        lines = []
        for label in self.final_errors:
            init = self.initial_errors[label]
            final = self.final_errors[label]
            mean_init = float(np.mean(init)) if init else math.nan
            mean_final = float(np.mean(final)) if final else math.nan
            ratio = mean_final / mean_init if mean_init else math.nan
            solves = (
                f", {self.unconverged_solves[label]} of {self.block_solves[label]} "
                "block solves unconverged"
                if self.block_solves[label]
                else ""
            )
            lines.append(
                f"{label}: mean initial error {mean_init:.6g}, "
                f"mean final error {mean_final:.6g} (ratio {ratio:.3g}, "
                f"{len(final)} runs, {self.short_sweeps[label]} of "
                f"{self.total_sweeps[label]} sweeps short{solves}, "
                f"{self.time_stops[label]} of {len(final)} runs stopped by the time budget)"
            )
        dr_labels = [l for l in self.final_errors if l.startswith("als_dr")]
        if dr_labels and "als" in self.final_errors and self.final_errors["als"]:
            als_final = float(np.mean(self.final_errors["als"]))
            for label in dr_labels:
                if not self.final_errors[label]:
                    continue
                dr_final = float(np.mean(self.final_errors[label]))
                verdict = "below" if dr_final < als_final else "not below"
                unbound = (
                    "; radius never bound: same path as plain als"
                    if self.short_sweeps[label] == 0
                    else ""
                )
                lines.append(
                    f"comparison: {label} mean final error {dr_final:.6g} is "
                    f"{verdict} plain als ({als_final:.6g}){unbound}"
                )
        for v in self.violations:
            lines.append(
                f"INVARIANT {v.algorithm} run {v.run_index}: {v.check} broken at "
                f"sweep {v.sweep} (worst excess {v.excess:.3g})"
            )
        for f in self.failures:
            lines.append(f"FAILED {f.algorithm} run {f.run_index}: {f.message}")
        return "\n".join(lines)


def resolve_data(cfg: ExperimentConfig) -> np.ndarray:
    """Build or load the experiment tensor (once per config)."""
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
            c_prime=algo.c_prime,
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


def _single_run(
    problem: NtfProblem, cfg: ExperimentConfig, algo: AlgorithmSpec, run_index: int
) -> list[TraceRecord]:
    seed = cfg.seed + run_index
    model = init_factors(
        problem.data.shape,
        cfg.rank,
        seed=seed,
        scale=cfg.init_scale,
        box_bound=problem.box_bound,
    )
    solver_cfg = _solver_config(cfg, algo)
    if algo.name == "mu":
        _, trace = run_mu(problem, model.to_blocks(), solver_cfg)
    else:
        _, trace = run(problem, model.to_blocks(), solver_cfg)
    return trace


def write_trace_csv(path, run_index: int, trace: Sequence[TraceRecord]) -> None:
    """One row per trace record, 17 significant digits, fixed newline."""
    rows = [TRACE_HEADER]
    for rec in trace:
        total_step = math.sqrt(sum(s * s for s in rec.block_step_norms))
        recon = math.sqrt(max(rec.objective, 0.0))
        rows.append(
            ",".join(
                [
                    str(run_index),
                    str(rec.n),
                    _fmt(rec.elapsed_seconds),
                    _fmt(rec.objective),
                    _fmt(recon),
                    _fmt(total_step),
                    _fmt(rec.radius),
                    _fmt(rec.stationarity),
                    rec.point_class,
                    str(rec.unconverged_solves),
                    rec.stop_reason,
                ]
            )
        )
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


def _trace_errors_at(trace: Sequence[TraceRecord], t: float) -> float | None:
    """Last-observation-carried-forward reconstruction error at time t."""
    value = None
    for rec in trace:
        if rec.elapsed_seconds <= t:
            value = math.sqrt(max(rec.objective, 0.0))
        else:
            break
    return value


def aggregate_runs(
    traces_by_algo: Mapping[str, Sequence[Sequence[TraceRecord]]],
    bins,
) -> AggregateCurve:
    """Resample traces onto shared time bins and average per algorithm.

    ``bins`` is either an integer bin count (bins span the longest observed
    trace) or an explicit strictly increasing array of bin centers. Runs
    with empty traces are dropped with a warning; population standard
    deviation is reported (a single run gives zero std).
    """
    kept: dict[str, list[Sequence[TraceRecord]]] = {}
    for label, traces in traces_by_algo.items():
        good = []
        for k, tr in enumerate(traces):
            if len(tr) == 0:
                warnings.warn(f"{label} run {k}: empty trace excluded from aggregation")
                continue
            good.append(tr)
        if good:
            kept[label] = good
    if not kept:
        raise ValueError("no nonempty traces to aggregate")

    if np.isscalar(bins):
        t_max = max(
            rec.elapsed_seconds for traces in kept.values() for tr in traces for rec in tr
        )
        if t_max <= 0.0:
            t_max = 1.0
        centers = np.linspace(t_max / int(bins), t_max, int(bins))
    else:
        centers = np.asarray(bins, dtype=np.float64)

    mean: dict[str, np.ndarray] = {}
    std: dict[str, np.ndarray] = {}
    n_runs: dict[str, np.ndarray] = {}
    for label, traces in kept.items():
        m = np.empty(len(centers))
        s = np.empty(len(centers))
        c = np.empty(len(centers), dtype=np.int64)
        for j, t in enumerate(centers):
            vals = [
                v for tr in traces if (v := _trace_errors_at(tr, float(t))) is not None
            ]
            if vals:
                arr = np.asarray(vals)
                m[j] = float(arr.mean())
                s[j] = float(arr.std())
                c[j] = len(vals)
            else:
                m[j] = math.nan
                s[j] = 0.0
                c[j] = 0
        mean[label], std[label], n_runs[label] = m, s, c
    return AggregateCurve(bin_centers=centers, mean=mean, std=std, n_runs=n_runs)


def run_experiment(cfg: ExperimentConfig, notes: Sequence[str] = ()) -> ExperimentSummary:
    """Execute every algorithm x run cell, write traces, aggregate, plot.

    Solver failures are recorded per run and do not abort the experiment;
    the CLI maps a nonempty failure list to a nonzero exit status. Every
    block-descent trace is re-checked with :func:`verify_trace`, and each
    broken invariant is listed in the report, without failing the run. Runs
    execute in a thread pool unless ``cfg.serial`` is set.
    """
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(
        "\n".join(cfg.provenance_lines(notes)) + "\n", encoding="ascii"
    )

    data = resolve_data(cfg)
    if cfg.save_data:
        write_ntf1(out_dir / "data.ntf1", data)
    problem = NtfProblem(data, cfg.rank, box_bound=cfg.box_bound)

    cells = [(algo, k) for algo in cfg.algos for k in range(1, cfg.runs + 1)]
    results: dict[tuple[str, int], list[TraceRecord]] = {}
    failures: list[RunFailure] = []

    def _execute(cell):
        algo, k = cell
        return _single_run(problem, cfg, algo, k)

    outcomes = []
    if cfg.serial:
        for cell in cells:
            try:
                outcomes.append((cell, _execute(cell), None))
            except Exception as exc:  # recorded, experiment continues
                outcomes.append((cell, None, exc))
    else:
        workers = min(len(cells), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pending = [(cell, pool.submit(_execute, cell)) for cell in cells]
            for cell, future in pending:
                try:
                    outcomes.append((cell, future.result(), None))
                except Exception as exc:
                    outcomes.append((cell, None, exc))

    trace_paths: dict[tuple[str, int], Path] = {}
    for (algo, k), trace, err in outcomes:
        if err is not None:
            failures.append(RunFailure(algo.label, k, str(err)))
            continue
        results[(algo.label, k)] = trace
        path = out_dir / f"{algo.label}_run{k}.csv"
        write_trace_csv(path, k, trace)
        trace_paths[(algo.label, k)] = path

    initial_errors: dict[str, list[float]] = {a.label: [] for a in cfg.algos}
    final_errors: dict[str, list[float]] = {a.label: [] for a in cfg.algos}
    traces_by_algo: dict[str, list[list[TraceRecord]]] = {a.label: [] for a in cfg.algos}
    short_sweeps: dict[str, int] = {a.label: 0 for a in cfg.algos}
    total_sweeps: dict[str, int] = {a.label: 0 for a in cfg.algos}
    block_solves: dict[str, int] = {a.label: 0 for a in cfg.algos}
    unconverged_solves: dict[str, int] = {a.label: 0 for a in cfg.algos}
    time_stops: dict[str, int] = {a.label: 0 for a in cfg.algos}
    violations: list[InvariantViolation] = []
    for algo in cfg.algos:
        for k in range(1, cfg.runs + 1):
            trace = results.get((algo.label, k))
            if trace is None:
                continue
            traces_by_algo[algo.label].append(trace)
            initial_errors[algo.label].append(math.sqrt(max(trace[0].objective, 0.0)))
            final_errors[algo.label].append(math.sqrt(max(trace[-1].objective, 0.0)))
            short_sweeps[algo.label] += sum(r.point_class == "short" for r in trace[1:])
            total_sweeps[algo.label] += len(trace) - 1
            time_stops[algo.label] += trace[-1].stop_reason == "max_seconds"
            if algo.name != "mu":
                block_solves[algo.label] += (len(trace) - 1) * len(trace[0].block_step_norms)
                unconverged_solves[algo.label] += sum(r.unconverged_solves for r in trace)
                verdict = verify_trace(trace, _solver_config(cfg, algo).schedule)
                violations += InvariantViolation.from_verdict(algo.label, k, verdict)

    curve = None
    aggregate_path = None
    plot_path = None
    nonempty = {k: v for k, v in traces_by_algo.items() if v}
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
        initial_errors=initial_errors,
        final_errors=final_errors,
        failures=failures,
        short_sweeps=short_sweeps,
        total_sweeps=total_sweeps,
        block_solves=block_solves,
        unconverged_solves=unconverged_solves,
        time_stops=time_stops,
        violations=violations,
    )
