"""Generic driver for block coordinate descent with a diminishing radius.

One sweep updates blocks 1..m in order; block ``i`` is replaced by the
exact, certified minimizer of its convex quadratic restriction over the
block's box intersected with a Frobenius ball of radius ``c' * w_n`` around
the previous block value (see :func:`drbcd.subsolver.solve_block_qp`). The
driver records per-sweep diagnostics (objective, step norms, radius, a
projected-gradient stationarity measure, long/short classification, elapsed
time, and on the last record why the run stopped) and :func:`verify_trace`
re-checks the descent, radius-feasibility, and square-summable-step
properties on a finished trace.

A run is strictly sequential; independent runs may execute concurrently.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Protocol, Sequence

import numpy as np

from .schedule import RadiusSchedule
from .subsolver import BoxBallFeasibleSet, QuadraticBlockSubproblem, solve_block_qp

__all__ = [
    "BlockProblem",
    "TraceRecord",
    "SolverConfig",
    "TraceVerification",
    "bcd_dr_sweep",
    "classify_point",
    "stationarity_measure",
    "run",
    "verify_trace",
]

# Relative slack used when classifying steps that graze the radius bound and
# when re-checking monotone descent in floating point.
LONG_POINT_SLACK = 1e-9
MONOTONE_SLACK = 1e-9
RADIUS_SLACK = 1e-12
SQUARE_SUM_SLACK = 1e-6


class BlockProblem(Protocol):
    """What a problem must provide to be driven by :func:`run`.

    Points are lists of 2-D arrays, one per block. The objective must be
    finite and nonnegative on the feasible product box, and each block's
    quadratic sub-problem must agree with the objective's restriction to
    that block up to an additive constant.
    """

    @property
    def num_blocks(self) -> int: ...

    def objective(self, blocks: Sequence[np.ndarray]) -> float: ...

    def block_subproblem(
        self, blocks: Sequence[np.ndarray], i: int
    ) -> QuadraticBlockSubproblem: ...

    def block_feasible_box(self, i: int) -> tuple[float, float]: ...

    def full_gradient(self, blocks: Sequence[np.ndarray]) -> list[np.ndarray]: ...


@dataclass
class TraceRecord:
    """Diagnostics for one sweep (``n = 0`` is the initial point)."""

    n: int
    objective: float
    block_step_norms: tuple[float, ...]
    radius: float
    stationarity: float
    point_class: str
    elapsed_seconds: float
    cumulative_sq_steps: float
    # Block solves of this sweep that the exact solve and its certificate
    # did not settle: pivoting failed, or the projected-gradient loop met
    # its iteration cap or fell back to the start.
    unconverged_solves: int = 0
    # Why the run stopped, on its last record only: "max_sweeps",
    # "max_seconds" or "stationarity" (the sweep budget, the time budget, or
    # the stationarity stop). Empty on every other record.
    stop_reason: str = ""


@dataclass(frozen=True)
class SolverConfig:
    """Run-level knobs: schedule, budgets, sub-solver tolerances.

    ``clock='wall'`` stamps records with accumulated wall time;
    ``clock='sweep'`` stamps the sweep index instead, making whole traces
    reproducible byte for byte. The sweep loop itself is deterministic.
    """

    schedule: RadiusSchedule = field(default_factory=RadiusSchedule)
    max_sweeps: int = 100
    max_seconds: float = math.inf
    stationarity_stop: float | None = None
    qp_tol: float = 1e-8
    qp_max_iters: int = 500
    compute_stationarity: bool = True
    clock: str = "wall"

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if not self.max_seconds > 0.0:
            raise ValueError("max_seconds must be positive")
        if self.clock not in ("wall", "sweep"):
            raise ValueError(f"clock must be 'wall' or 'sweep', got {self.clock!r}")


def classify_point(step_norms: Sequence[float], radius: float) -> str:
    """``'long'`` when no block step reaches the radius bound, else ``'short'``."""
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    if math.isinf(radius):
        return "long"
    worst = max(step_norms, default=0.0)
    return "long" if worst < radius * (1.0 - LONG_POINT_SLACK) else "short"


def stationarity_measure(problem: BlockProblem, blocks: Sequence[np.ndarray]) -> float:
    """Norm of the unit-step projected-gradient mapping over the product box.

    Zero exactly at points satisfying the first-order optimality condition
    of the objective over the feasible box.
    """
    grads = problem.full_gradient(blocks)
    total = 0.0
    for i, (b, g) in enumerate(zip(blocks, grads)):
        lower, upper = problem.block_feasible_box(i)
        moved = np.clip(b - g, lower, upper)
        total += float(np.sum((b - moved) ** 2))
    return math.sqrt(total)


def bcd_dr_sweep(
    problem: BlockProblem,
    blocks: Sequence[np.ndarray],
    n: int,
    cfg: SolverConfig,
) -> tuple[list[np.ndarray], TraceRecord]:
    """One full pass over all blocks at sweep index ``n >= 1``.

    Blocks are updated in ascending order; each update starts from the
    previous block value (always feasible) and stays within the sweep
    radius. ``cumulative_sq_steps`` in the returned record covers this sweep
    only, and ``elapsed_seconds`` is 0; :func:`run` accumulates the first
    across sweeps and stamps the clock.
    """
    if n < 1:
        raise ValueError("sweep index n must be >= 1")
    radius = cfg.schedule.radius(n)
    current = [np.asarray(b, dtype=np.float64) for b in blocks]
    step_norms = []
    unconverged = 0
    for i in range(problem.num_blocks):
        sub = problem.block_subproblem(current, i)
        lower, upper = problem.block_feasible_box(i)
        feasible = BoxBallFeasibleSet(
            lower=lower, upper=upper, center=current[i], radius=radius
        )
        try:
            result = solve_block_qp(
                sub, feasible, start=current[i], tol=cfg.qp_tol, max_iters=cfg.qp_max_iters
            )
        except (ValueError, FloatingPointError) as exc:
            raise type(exc)(f"block {i} at sweep {n}: {exc}") from exc
        step_norms.append(float(np.linalg.norm(result.point - current[i])))
        unconverged += not result.converged
        current[i] = result.point
    objective = problem.objective(current)
    stat = (
        stationarity_measure(problem, current) if cfg.compute_stationarity else math.nan
    )
    record = TraceRecord(
        n=n,
        objective=objective,
        block_step_norms=tuple(step_norms),
        radius=radius,
        stationarity=stat,
        point_class=classify_point(step_norms, radius),
        elapsed_seconds=0.0,
        cumulative_sq_steps=float(sum(s * s for s in step_norms)),
        unconverged_solves=unconverged,
    )
    return current, record


def run(
    problem: BlockProblem,
    blocks0: Sequence[np.ndarray],
    cfg: SolverConfig,
) -> tuple[list[np.ndarray], list[TraceRecord]]:
    """Drive sweeps until the sweep, time, or stationarity budget is hit.

    Returns the final point and the trace (a leading ``n = 0`` record holds
    the initial objective and stationarity). Deterministic given the
    initial point and config; with ``clock='sweep'`` the trace is exactly
    reproducible.
    """
    return _sweep_loop(
        problem, blocks0, cfg, lambda blocks, n: bcd_dr_sweep(problem, blocks, n, cfg)
    )


def _sweep_loop(
    problem: BlockProblem,
    blocks0: Sequence[np.ndarray],
    cfg: SolverConfig,
    sweep: Callable[[list[np.ndarray], int], tuple[list[np.ndarray], TraceRecord]],
) -> tuple[list[np.ndarray], list[TraceRecord]]:
    """The loop behind :func:`run` and the multiplicative-update baseline.

    Checks the initial point against the boxes, clips it, and records it as
    ``n = 0``. Then ``sweep(blocks, n)`` does sweep ``n >= 1`` and returns
    the new point and a record whose squared steps cover that sweep only;
    the loop accumulates them, stamps the clock, and stops at the sweep,
    time, or stationarity budget, which it names in the last record's
    ``stop_reason``.
    """
    blocks = [np.asarray(b, dtype=np.float64) for b in blocks0]
    if len(blocks) != problem.num_blocks:
        raise ValueError(
            f"expected {problem.num_blocks} blocks, got {len(blocks)}"
        )
    for i, b in enumerate(blocks):
        lower, upper = problem.block_feasible_box(i)
        if float(b.min()) < lower - 1e-12 or float(b.max()) > upper + 1e-12:
            raise ValueError(f"initial block {i} violates its feasible box")
        blocks[i] = np.clip(b, lower, upper)

    start_time = time.perf_counter()
    f0 = problem.objective(blocks)
    if not math.isfinite(f0):
        raise FloatingPointError(f"objective at the initial point is {f0}")
    stat0 = (
        stationarity_measure(problem, blocks) if cfg.compute_stationarity else math.nan
    )
    trace = [
        TraceRecord(
            n=0,
            objective=f0,
            block_step_norms=tuple(0.0 for _ in blocks),
            radius=math.inf,
            stationarity=stat0,
            point_class="long",
            elapsed_seconds=0.0,
            cumulative_sq_steps=0.0,
        )
    ]

    cum_sq = 0.0
    reason = "max_sweeps"
    for n in range(1, cfg.max_sweeps + 1):
        blocks, record = sweep(blocks, n)
        if not math.isfinite(record.objective):
            raise FloatingPointError(
                f"objective became {record.objective} at sweep {n}"
            )
        cum_sq += record.cumulative_sq_steps
        elapsed = (
            float(n) if cfg.clock == "sweep" else time.perf_counter() - start_time
        )
        record = replace(
            record, elapsed_seconds=elapsed, cumulative_sq_steps=cum_sq
        )
        trace.append(record)
        if (
            cfg.stationarity_stop is not None
            and cfg.compute_stationarity
            and record.stationarity <= cfg.stationarity_stop
        ):
            reason = "stationarity"
            break
        if elapsed >= cfg.max_seconds:
            reason = "max_seconds"
            break
    trace[-1] = replace(trace[-1], stop_reason=reason)
    return blocks, trace


@dataclass(frozen=True)
class TraceVerification:
    """Outcome of the three per-run invariant checks.

    Worst excesses are signed: positive means the corresponding bound was
    violated by that amount; the sweep index points at the offender.
    """

    monotone_ok: bool
    monotone_worst: float
    monotone_sweep: int | None
    radius_ok: bool
    radius_worst: float
    radius_sweep: int | None
    square_sum_ok: bool
    square_sum_worst: float
    square_sum_sweep: int | None

    @property
    def all_ok(self) -> bool:
        return self.monotone_ok and self.radius_ok and self.square_sum_ok


def verify_trace(
    trace: Sequence[TraceRecord], schedule: RadiusSchedule
) -> TraceVerification:
    """Re-check descent, radius feasibility, and the squared-step bound.

    (a) objective non-increasing within ``1e-9 * (1 + f)`` slack;
    (b) every block step norm at most ``radius * (1 + 1e-12)``;
    (c) at every horizon, the accumulated squared step norm stays below
        ``m * c'^2 * sum w_n^2 + 1e-6`` (trivially true for infinite radii).
    """
    if not trace:
        raise ValueError("trace is empty")

    mono_worst, mono_sweep = -math.inf, None
    prev_f = None
    for rec in trace:
        if prev_f is not None:
            excess = rec.objective - prev_f - MONOTONE_SLACK * (1.0 + abs(prev_f))
            if excess > mono_worst:
                mono_worst, mono_sweep = excess, rec.n
        prev_f = rec.objective

    rad_worst, rad_sweep = -math.inf, None
    for rec in trace:
        if rec.n == 0:
            continue
        bound = rec.radius * (1.0 + RADIUS_SLACK)
        worst_step = max(rec.block_step_norms, default=0.0)
        excess = worst_step - bound
        if math.isinf(rec.radius):
            excess = -math.inf if worst_step < math.inf else math.inf
        if excess > rad_worst:
            rad_worst, rad_sweep = excess, rec.n

    sq_worst, sq_sweep = -math.inf, None
    m = len(trace[0].block_step_norms)
    cum = 0.0
    weight_sq_partial = 0.0
    for rec in trace:
        if rec.n == 0:
            continue
        cum += float(sum(s * s for s in rec.block_step_norms))
        w = schedule.weight(rec.n)
        weight_sq_partial += w * w
        if schedule.kind == "infinite" or math.isinf(schedule.c_prime):
            bound = math.inf
        else:
            bound = m * schedule.c_prime**2 * weight_sq_partial
        excess = cum - bound - SQUARE_SUM_SLACK
        if excess > sq_worst:
            sq_worst, sq_sweep = excess, rec.n

    def _finite(x: float) -> float:
        return x if math.isfinite(x) else 0.0

    return TraceVerification(
        monotone_ok=mono_worst <= 0.0,
        monotone_worst=_finite(mono_worst),
        monotone_sweep=mono_sweep if mono_worst > 0.0 else None,
        radius_ok=rad_worst <= 0.0,
        radius_worst=_finite(rad_worst),
        radius_sweep=rad_sweep if rad_worst > 0.0 else None,
        square_sum_ok=sq_worst <= 0.0,
        square_sum_worst=_finite(sq_worst),
        square_sum_sweep=sq_sweep if sq_worst > 0.0 else None,
    )
