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

A run takes its sweeps, and the blocks within a sweep, one after another.
The dense passes of :class:`drbcd.factorization.NtfProblem` inside them may
share their row slabs among threads, with the bits of one thread (see
:mod:`drbcd.tensors`). Independent runs may execute concurrently.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Protocol, Sequence

import numpy as np

from .schedule import RadiusSchedule
from .subsolver import CERTIFICATE_TOL, BoxBallFeasibleSet, QuadraticBlockSubproblem, solve_block_qp

__all__ = [
    "BlockProblem",
    "CheckOutcome",
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
    # Block solves of this sweep that the exact solve and its certificate
    # did not settle: pivoting failed, the certifying step's residual was
    # above the tolerance, or the solve fell back to the center, the
    # block's previous value.
    unconverged_solves: int = 0
    # Why the run stopped, on its last record only: "max_sweeps",
    # "max_seconds" or "stationarity" (the sweep budget, the time budget, or
    # the stationarity stop). Empty on every other record.
    stop_reason: str = ""


@dataclass(frozen=True)
class SolverConfig:
    """Run-level knobs: schedule, budgets, the stationarity stop and the clock.

    ``clock='wall'`` stamps records with accumulated wall time;
    ``clock='sweep'`` stamps the sweep index instead, making whole traces
    reproducible byte for byte. The sweep loop itself is deterministic.
    ``qp_tol`` (:data:`~drbcd.subsolver.CERTIFICATE_TOL`, 1e-8) and
    ``qp_max_iters`` (500) are class constants that no run sets and the
    package does not read: every block solve takes the certificate's
    tolerance and one certifying step. Both stay because
    ``bench/kernels.py`` passes them to
    :func:`~drbcd.subsolver.solve_block_qp`.
    """

    schedule: RadiusSchedule = field(default_factory=RadiusSchedule)
    max_sweeps: int = 100
    max_seconds: float = math.inf
    stationarity_stop: float | None = None
    clock: str = "wall"
    qp_tol: ClassVar[float] = CERTIFICATE_TOL
    qp_max_iters: ClassVar[int] = 500

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
    previous block value, the center of its ball, and stays within the
    sweep radius. ``elapsed_seconds`` in the returned record is 0;
    :func:`run` stamps the clock. The schedule's radius refuses an ``n`` below 1.
    """
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
            result = solve_block_qp(sub, feasible)
        except (ValueError, FloatingPointError) as exc:
            raise type(exc)(f"block {i} at sweep {n}: {exc}") from exc
        step_norms.append(float(np.linalg.norm(result.point - current[i])))
        unconverged += not result.converged
        current[i] = result.point
    return current, _trace_record(problem, current, n, step_norms, radius, unconverged)


def _trace_record(
    problem: BlockProblem,
    blocks: Sequence[np.ndarray],
    n: int,
    step_norms: Sequence[float],
    radius: float,
    unconverged: int = 0,
) -> TraceRecord:
    """The record of the point ``blocks`` that sweep ``n`` reached.

    Takes the objective and the stationarity measure there, in that order,
    and classifies the steps against ``radius``; ``elapsed_seconds`` is 0
    until the sweep loop stamps the clock.
    """
    return TraceRecord(
        n=n,
        objective=problem.objective(blocks),
        block_step_norms=tuple(step_norms),
        radius=radius,
        stationarity=stationarity_measure(problem, blocks),
        point_class=classify_point(step_norms, radius),
        elapsed_seconds=0.0,
        unconverged_solves=unconverged,
    )


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

    Checks that the initial point is finite and in its boxes, clips it, and
    records it as ``n = 0``. Then ``sweep(blocks, n)`` does sweep ``n >= 1``
    and returns the new point and its record; the loop stamps the clock, and
    stops at the sweep, time, or stationarity budget, which it names in the
    last record's ``stop_reason``.
    """
    blocks = [np.asarray(b, dtype=np.float64) for b in blocks0]
    if len(blocks) != problem.num_blocks:
        raise ValueError(
            f"expected {problem.num_blocks} blocks, got {len(blocks)}"
        )
    for i, b in enumerate(blocks):
        lower, upper = problem.block_feasible_box(i)
        if not np.isfinite(b).all():
            raise ValueError(f"initial block {i} has a non-finite entry")
        if float(b.min()) < lower - 1e-12 or float(b.max()) > upper + 1e-12:
            raise ValueError(f"initial block {i} violates its feasible box")
        blocks[i] = np.clip(b, lower, upper)

    start_time = time.perf_counter()
    trace = [_trace_record(problem, blocks, 0, [0.0] * len(blocks), math.inf)]
    if not math.isfinite(trace[0].objective):
        raise FloatingPointError(f"objective at the initial point is {trace[0].objective}")

    reason = "max_sweeps"
    for n in range(1, cfg.max_sweeps + 1):
        blocks, record = sweep(blocks, n)
        if not math.isfinite(record.objective):
            raise FloatingPointError(
                f"objective became {record.objective} at sweep {n}"
            )
        elapsed = (
            float(n) if cfg.clock == "sweep" else time.perf_counter() - start_time
        )
        record = replace(record, elapsed_seconds=elapsed)
        trace.append(record)
        if cfg.stationarity_stop is not None and record.stationarity <= cfg.stationarity_stop:
            reason = "stationarity"
            break
        if elapsed >= cfg.max_seconds:
            reason = "max_seconds"
            break
    trace[-1] = replace(trace[-1], stop_reason=reason)
    return blocks, trace


# The checks of :func:`verify_trace`, listed in TRACE_CHECKS. Each one is
# built per trace from the schedule and the block count, and maps each
# record in turn to its signed excess over the check's bound (positive is a
# violation), or to ``None`` where it does not apply.
def _monotone_descent(schedule: RadiusSchedule, num_blocks: int):
    """Objective non-increasing within ``1e-9 * (1 + f)`` slack."""
    prev_f = None

    def excess(rec: TraceRecord) -> float | None:
        nonlocal prev_f
        f, prev_f = prev_f, rec.objective
        return None if f is None else rec.objective - f - MONOTONE_SLACK * (1.0 + abs(f))

    return excess


def _radius_bound(schedule: RadiusSchedule, num_blocks: int):
    """Every block step norm at most ``radius * (1 + 1e-12)``."""

    def excess(rec: TraceRecord) -> float | None:
        if rec.n == 0:
            return None
        worst_step = max(rec.block_step_norms, default=0.0)
        if math.isinf(rec.radius):
            return -math.inf if worst_step < math.inf else math.inf
        return worst_step - rec.radius * (1.0 + RADIUS_SLACK)

    return excess


def _square_sum_bound(schedule: RadiusSchedule, num_blocks: int):
    """At every horizon, the accumulated squared step norm stays below
    ``m * c'^2 * sum w_n^2 + 1e-6`` (trivially true for infinite radii)."""
    unbounded = schedule.kind == "infinite" or math.isinf(schedule.c_prime)
    cum = 0.0
    weight_sq_partial = 0.0

    def excess(rec: TraceRecord) -> float | None:
        nonlocal cum, weight_sq_partial
        if rec.n == 0:
            return None
        cum += float(sum(s * s for s in rec.block_step_norms))
        w = schedule.weight(rec.n)
        weight_sq_partial += w * w
        bound = math.inf if unbounded else num_blocks * schedule.c_prime**2 * weight_sq_partial
        return cum - bound - SQUARE_SUM_SLACK

    return excess


TRACE_CHECKS = (
    ("monotone descent", _monotone_descent),
    ("radius bound", _radius_bound),
    ("square-sum bound", _square_sum_bound),
)


@dataclass(frozen=True)
class CheckOutcome:
    """One check over a whole trace.

    ``worst`` is the signed worst excess (positive: the bound was violated
    by that much; 0 when it is not finite) and ``sweep`` the sweep of a
    violation's worst excess, ``None`` when the check held.
    """

    check: str
    ok: bool
    worst: float
    sweep: int | None


@dataclass(frozen=True)
class TraceVerification:
    """Outcome of every check in :data:`TRACE_CHECKS`, in its order."""

    outcomes: tuple[CheckOutcome, ...]

    @property
    def all_ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)


def verify_trace(
    trace: Sequence[TraceRecord], schedule: RadiusSchedule
) -> TraceVerification:
    """Re-check descent, radius feasibility, and the squared-step bound.

    One pass over the trace runs every check in :data:`TRACE_CHECKS` and
    keeps each one's worst excess and the sweep where it occurred.
    """
    if not trace:
        raise ValueError("trace is empty")

    num_blocks = len(trace[0].block_step_norms)
    excesses = [make(schedule, num_blocks) for _, make in TRACE_CHECKS]
    worst = [(-math.inf, None)] * len(TRACE_CHECKS)
    for rec in trace:
        for j, excess in enumerate(excesses):
            e = excess(rec)
            if e is not None and e > worst[j][0]:
                worst[j] = (e, rec.n)

    return TraceVerification(tuple(
        CheckOutcome(name, w <= 0.0, w if math.isfinite(w) else 0.0, n if w > 0.0 else None)
        for (name, _), (w, n) in zip(TRACE_CHECKS, worst)
    ))
