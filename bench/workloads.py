"""Workload definitions, instance set-up, and checked solver runs.

A workload is a fixed problem family. One run of the benchmark solves
``instance_count(seconds)`` instances of it; instance ``j`` draws its tensor
and its initial point from seeds derived from ``(workload seed, j)``, so the
same seed always gives the same inputs. Both BCD-DR and MU start from that
point. Convergence speed varies much more from one random tensor to the next
than from one initial point to the next, so every instance gets a tensor of
its own, and a run averages over as many instances as fit in its time.
"""

from __future__ import annotations

import itertools
import math
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from drbcd import datagen, driver, factorization, schedule, tensors


@dataclass(frozen=True)
class Workload:
    name: str
    data: str  # "synth" (exact low rank) or "surrogate" (sparse)
    dims: tuple[int, ...]
    rank: int
    beta: float
    c_prime: float
    sweeps: int
    mu_sweeps: int
    target: float  # relative error defining time and sweeps to target
    # Seconds one instance takes on a 2-core Xeon with one BLAS thread; a run
    # solves floor(--seconds / instance_s) instances, at least one.
    instance_s: float
    density: float = 0.01
    mean_abs: float = 0.00067

    def instance_count(self, seconds: float) -> int:
        return max(1, int(seconds // self.instance_s))


WORKLOADS = {
    w.name: w
    for w in (
        # Inner QP solves dominate; the radius never binds. The target is
        # 1e-5, not 1e-6: the inner tolerance leaves a plateau near 2e-7, and
        # on some seeds 1e-6 needs more than 300 sweeps.
        Workload("desk_recover", "synth", (20, 25, 30), 3, 0.5, 1e5,
                 sweeps=300, mu_sweeps=300, target=1e-5, instance_s=1.2),
        # Objective, stationarity and MTTKRP bookkeeping dominate a sweep; the
        # 48 MB tensor and its cached unfoldings exercise set-up and memory.
        # The target is a coarse fit: how long ALS swamps last makes the
        # sweeps to 1e-2 vary by ~28% from one tensor to the next (10 to 25
        # sweeps), against ~15% for 0.1. Short runs let 8 tensors fit in 30 s.
        Workload("paper_fit", "synth", (100, 200, 300), 5, 1.0, 1e5,
                 sweeps=12, mu_sweeps=6, target=0.1, instance_s=3.6),
        # c' = 3 makes the radius bind on every sweep, so Dykstra projections
        # do the work; the mostly-zero data changes what MTTKRP sees.
        Workload("surrogate_bound", "surrogate", (90, 500, 100), 5, 0.5, 3.0,
                 sweeps=25, mu_sweeps=6, target=0.997, instance_s=6.0),
    )
}

# Small shapes with the same structure, for the smoke test.
TINY = {
    "desk_recover": replace(WORKLOADS["desk_recover"], dims=(6, 7, 8), rank=2,
                            sweeps=150, mu_sweeps=20, instance_s=1.0),
    "paper_fit": replace(WORKLOADS["paper_fit"], dims=(10, 12, 14), rank=3,
                         mu_sweeps=5, instance_s=1.0),
    "surrogate_bound": replace(WORKLOADS["surrogate_bound"], dims=(18, 100, 20),
                               mu_sweeps=5, instance_s=1.0),
}


@dataclass
class Instance:
    problem: factorization.NtfProblem
    init: list[np.ndarray]


def build_instance(w: Workload, seed: int, index: int) -> Instance:
    """Generate the data, build the problem and draw the initial point.

    This is exactly the work ``setup_s`` times.
    """
    state = np.random.SeedSequence([seed, index]).generate_state(2, dtype=np.uint64)
    data_seed, init_seed = (int(s) for s in state)
    if w.data == "synth":
        x = datagen.synthetic_lowrank(datagen.SynthSpec(dims=w.dims, rank=w.rank, seed=data_seed))[0]
    else:
        x = datagen.sparse_surrogate(
            datagen.SynthSpec(dims=w.dims, rank=w.rank, seed=data_seed,
                              density=w.density, target_mean_abs=w.mean_abs)
        )
    problem = factorization.NtfProblem(x, w.rank)
    init = factorization.init_factors(x.shape, w.rank, seed=init_seed, box_bound=problem.box_bound)
    return Instance(problem, init.to_blocks())


def build_timed(w: Workload, seed: int, index: int, log: RunLog, min_samples: int, min_seconds: float) -> Instance:
    """Build instance ``index`` repeatedly, logging each set-up time; keep the last."""
    start = time.perf_counter()
    for n in itertools.count(1):
        inst = None  # so that two builds are never alive at once
        t0 = time.perf_counter()
        inst = build_instance(w, seed, index)
        log.setup_seconds.append(time.perf_counter() - t0)
        if n >= min_samples and time.perf_counter() - start >= min_seconds:
            return inst


def bcd_config(w: Workload) -> driver.SolverConfig:
    return driver.SolverConfig(
        schedule=schedule.RadiusSchedule(kind="power_log", beta=w.beta, c_prime=w.c_prime),
        max_sweeps=w.sweeps,
    )


def mu_config(w: Workload) -> driver.SolverConfig:
    return driver.SolverConfig(schedule=schedule.RadiusSchedule(kind="infinite"), max_sweeps=w.mu_sweeps)


@dataclass
class RunLog:
    """Outcomes of every solver run in one benchmark run."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    setup_seconds: list[float] = field(default_factory=list)
    bcd_seconds: list[float] = field(default_factory=list)
    bcd_sweeps: list[int] = field(default_factory=list)
    mu_seconds: list[float] = field(default_factory=list)
    mu_sweeps: list[int] = field(default_factory=list)
    sweeps_to_target: list[int] = field(default_factory=list)
    seconds_to_target: list[float] = field(default_factory=list)
    final_digits: list[float] = field(default_factory=list)  # -log10 relative error, at most 16
    short_sweeps: int = 0
    missed_target: int = 0  # BCD-DR runs that ended above the target error

    def fail(self, what: str, message: str) -> None:
        self.failures.append(f"{what}: {message}")


def _output_problems(problem, blocks, trace) -> list[str]:
    """Checks shared by both algorithms: finite, in the box, consistent."""
    problems = []
    for i, b in enumerate(blocks):
        lower, upper = problem.block_feasible_box(i)
        if not np.isfinite(b).all():
            problems.append(f"block {i} is not finite")
        elif float(b.min()) < lower or float(b.max()) > upper:
            problems.append(f"block {i} leaves the box [{lower}, {upper}]")
    f_trace = trace[-1].objective
    f_blocks = problem.objective(blocks)
    if not abs(f_trace - f_blocks) <= 1e-12 * abs(f_blocks):
        problems.append(f"last trace objective {f_trace!r} != objective of returned blocks {f_blocks!r}")
    return problems


def _checked(log: RunLog, what: str, solve, check):
    """Run ``solve()``, then ``check(result)``; a raise or a problem fails it."""
    log.attempted += 1
    try:
        result = solve()
        problems = check(result)
    except Exception:
        log.fail(what, traceback.format_exc())
        return None
    if problems:
        log.fail(what, "; ".join(problems))
        return None
    return result


def _timed(fn, *args):
    t0 = time.perf_counter()
    blocks, trace = fn(*args)
    return blocks, trace, time.perf_counter() - t0


def solve_instance(w: Workload, inst: Instance, log: RunLog, label: str) -> None:
    """Run BCD-DR and then MU from the instance's initial point; check, record.

    The solvers are looked up on their modules at call time, so a tracer
    that replaced them there sees these calls.
    """
    problem = inst.problem
    norm = tensors.frobenius_norm(problem.data)
    cfg = bcd_config(w)

    def check_bcd(result):
        blocks, trace, _ = result
        problems = _output_problems(problem, blocks, trace)
        verdict = driver.verify_trace(trace, cfg.schedule)
        if not verdict.all_ok:
            problems.append(f"verify_trace failed: {verdict}")
        return problems

    done = _checked(log, f"{label} bcd_dr", lambda: _timed(driver.run, problem, inst.init, cfg), check_bcd)
    if done is not None:
        _, trace, seconds = done
        hit = _first_at_target(trace, norm, w.target)
        if hit is None:
            # A long ALS swamp: slow, not wrong. Counted, and censored at the
            # last sweep in the to-target metrics.
            log.missed_target += 1
            hit = trace[-1].n
        log.bcd_seconds.append(seconds)
        log.bcd_sweeps.append(len(trace) - 1)
        log.sweeps_to_target.append(hit)
        log.seconds_to_target.append(trace[hit].elapsed_seconds)
        final = math.sqrt(max(trace[-1].objective, 0.0)) / norm
        log.final_digits.append(-math.log10(max(final, 1e-16)))
        log.short_sweeps += sum(r.point_class == "short" for r in trace[1:])

    mu_cfg = mu_config(w)
    done = _checked(log, f"{label} mu", lambda: _timed(factorization.run_mu, problem, inst.init, mu_cfg),
                    lambda result: _output_problems(problem, result[0], result[1]))
    if done is not None:
        log.mu_seconds.append(done[2])
        log.mu_sweeps.append(len(done[1]) - 1)


def _first_at_target(trace, norm: float, target: float) -> int | None:
    """Index of the first record whose relative error is at most ``target``."""
    return next((r.n for r in trace if math.sqrt(max(r.objective, 0.0)) <= target * norm), None)
