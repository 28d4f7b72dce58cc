"""Each kernel timed on its own, at a factor state captured mid-run.

Two MTTKRP paths are timed because they are easy to mistake for each other:
the public :func:`drbcd.tensors.mttkrp` unfolds the tensor again on every
call, while the solver goes through ``NtfProblem.block_subproblem``, which
multiplies a cached unfolding (plus an r x r Gram product). The unfold alone
is timed too. FLOPs and bytes moved are computed from array sizes, not
measured.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace
from math import prod

from drbcd import driver, subsolver, tensors

from workloads import Instance, Workload, bcd_config


def median_ms(fn, min_reps: int = 3, min_seconds: float = 0.2) -> float:
    """Median wall time of ``fn()`` in ms over at least ``min_reps`` calls."""
    samples = []
    start = time.perf_counter()
    while len(samples) < min_reps or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
        if len(samples) >= 10_000:
            break
    return 1e3 * statistics.median(samples)


def mttkrp_cost(dims, rank: int, mode: int) -> tuple[float, float]:
    """Computed MFLOP and MB moved for one MTTKRP on a cached unfolding.

    FLOPs: the Khatri-Rao chain (one multiply per entry of each partial
    product) plus the GEMM's ``2 N r``. Bytes: read the unfolding, write and
    read back the Khatri-Rao matrix, write the ``d x r`` result.
    """
    n = prod(dims)
    cols = n // dims[mode]
    others = [d for k, d in enumerate(dims) if k != mode]
    chain_rows = sum(prod(others[-j:]) for j in range(2, len(others) + 1))
    flop = chain_rows * rank + 2 * n * rank
    moved = 8 * (n + 2 * cols * rank + dims[mode] * rank)
    return flop / 1e6, moved / 1e6


def kernel_metrics(w: Workload, inst: Instance) -> dict[str, float]:
    """Time the kernels at the state reached after half of the sweeps."""
    problem = inst.problem
    cfg = bcd_config(w)
    mid = max(1, w.sweeps // 2)
    blocks, _ = driver.run(problem, inst.init, replace(cfg, max_sweeps=mid))
    x = problem.data
    out: dict[str, float] = {}
    for mode in range(x.ndim):
        out[f"kernel.unfold.m{mode}.ms"] = median_ms(lambda: tensors.unfold(x, mode))
        out[f"kernel.mttkrp.m{mode}.ms"] = median_ms(lambda: tensors.mttkrp(x, blocks, mode))
        out[f"kernel.block_subproblem.m{mode}.ms"] = median_ms(lambda: problem.block_subproblem(blocks, mode))
        mflop, mb = mttkrp_cost(x.shape, w.rank, mode)
        out[f"kernel.mttkrp.m{mode}.computed_mflop"] = mflop
        out[f"kernel.mttkrp.m{mode}.computed_mb"] = mb
    out["kernel.objective.ms"] = median_ms(lambda: problem.objective(blocks))
    out["kernel.stationarity_measure.ms"] = median_ms(lambda: driver.stationarity_measure(problem, blocks))

    # One block step of the next sweep, for the block whose step takes the
    # most Dykstra cycles, and the projection within it that takes the most.
    project = subsolver.project_box_ball
    steps = []
    for i in range(problem.num_blocks):
        sub = problem.block_subproblem(blocks, i)
        lower, upper = problem.block_feasible_box(i)
        feasible = subsolver.BoxBallFeasibleSet(lower, upper, center=blocks[i], radius=cfg.schedule.radius(mid + 1))
        projections = []

        def keep(point, *args, projections=projections):
            result = project(point, *args)
            projections.append((result.cycles, point, args))
            return result

        subsolver.project_box_ball = keep
        try:
            solved = subsolver.solve_block_qp(sub, feasible, start=blocks[i], tol=cfg.qp_tol, max_iters=cfg.qp_max_iters)
        finally:
            subsolver.project_box_ball = project
        steps.append((sum(c for c, _, _ in projections), i, sub, feasible, solved, projections))
    _, i, sub, feasible, solved, projections = max(steps, key=lambda s: s[:2])
    out["kernel.solve_block_qp.ms"] = median_ms(
        lambda: subsolver.solve_block_qp(sub, feasible, start=blocks[i], tol=cfg.qp_tol, max_iters=cfg.qp_max_iters)
    )
    out["kernel.solve_block_qp.inner_iters"] = solved.iterations
    cycles, point, args = max(projections, key=lambda c: c[0])
    out["kernel.project_box_ball.ms"] = median_ms(lambda: project(point, *args))
    out["kernel.project_box_ball.cycles"] = cycles
    return out
