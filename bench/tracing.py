"""Spans recorded from outside the package, and the per-layer numbers.

:func:`instrument` replaces public functions of ``drbcd`` at the module
attribute (or class attribute) where the package looks them up at call time,
so no file of the package changes. Each call becomes a span: name, parent,
start and end, kept in memory until the run ends. A layer's self time is its
spans' duration minus the part covered by their direct children. Counts that
say how hard the inner solvers worked come from the functions' return values.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter

import numpy as np

from drbcd import driver, factorization, subsolver, tensors

# Spans under these roots are the solve; anything else the benchmark calls
# itself (its output checks) is left out of the layer totals.
SOLVE_ROOTS = ("driver.run", "factorization.run_mu")
BOOKKEEPING = ("factorization.objective", "driver.stationarity_measure", "factorization.block_subproblem")


def _count_qp(counts: Counter, result) -> None:
    counts["subsolver.solve_block_qp.inner_iters"] += result.iterations
    counts["subsolver.solve_block_qp.capped"] += not result.converged


def _count_projection(counts: Counter, result) -> None:
    counts["subsolver.project_box_ball.cycles"] += result.cycles
    counts["subsolver.project_box_ball.capped"] += not result.converged


NtfProblem = factorization.NtfProblem
# (owner, attribute, span name, counter fed from the return value)
TARGETS = (
    (driver, "run", "driver.run", None),
    (factorization, "run_mu", "factorization.run_mu", None),
    (driver, "bcd_dr_sweep", "driver.bcd_dr_sweep", None),
    (driver, "stationarity_measure", "driver.stationarity_measure", None),
    (factorization, "stationarity_measure", "driver.stationarity_measure", None),
    (driver, "solve_block_qp", "subsolver.solve_block_qp", _count_qp),
    (subsolver, "lipschitz_estimate", "subsolver.lipschitz_estimate", None),
    (subsolver, "project_box_ball", "subsolver.project_box_ball", _count_projection),
    (factorization, "mu_sweep", "factorization.mu_sweep", None),
    (tensors, "khatri_rao", "tensors.khatri_rao", None),
    (NtfProblem, "__init__", "factorization.NtfProblem.init", None),
    (NtfProblem, "objective", "factorization.objective", None),
    (NtfProblem, "block_subproblem", "factorization.block_subproblem", None),
    (NtfProblem, "full_gradient", "factorization.full_gradient", None),
)


class SpanRecorder:
    """Spans in memory, four doubles each: name id, parent index, start, end.

    One flat array keeps a million spans at 32 MB; parent is -1 for a root.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        if name not in self.names:
            self.names.append(name)
        name_id = float(self.names.index(name))
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans) // 4
            spans.extend((name_id, stack[-1] if stack else -1.0, time.perf_counter(), 0.0))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[4 * index + 3] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counts, result)
            return result

        return traced

    def table(self) -> np.ndarray:
        """Spans as an (n, 4) array: name id, parent, start, end."""
        return np.array(self.spans, dtype=np.float64).reshape(-1, 4)

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), spans=self.table())


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Route every call in :data:`TARGETS` through ``recorder`` until exit."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
    try:
        for (owner, attr, name, count), (_, _, fn) in zip(TARGETS, originals):
            setattr(owner, attr, recorder.wrap(name, fn, count))
        yield recorder
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Self time, total time and calls per span name, counts, and shares."""
    t = recorder.table()
    name = t[:, 0].astype(np.int64)
    parent = t[:, 1].astype(np.int64)
    duration = t[:, 3] - t[:, 2]
    n = len(t)
    k = len(recorder.names)

    # Root of every span by pointer jumping; parents precede their children.
    root = np.where(parent < 0, np.arange(n), parent)
    while True:
        jumped = root[root]
        if np.array_equal(jumped, root):
            break
        root = jumped
    solve_ids = [recorder.names.index(r) for r in SOLVE_ROOTS if r in recorder.names]
    in_solve = np.isin(name[root], solve_ids)

    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=n)
    self_time = duration - covered

    def per_name(values, mask):
        return np.bincount(name[mask], weights=values[mask], minlength=k)

    self_s = per_name(self_time, in_solve)
    total_s = per_name(duration, in_solve)
    calls = np.bincount(name[in_solve], minlength=k)

    out: dict[str, float] = {}
    for i, nm in enumerate(recorder.names):
        out[f"{nm}.self_ms"] = 1e3 * float(self_s[i])
        out[f"{nm}.total_ms"] = 1e3 * float(total_s[i])
        out[f"{nm}.calls"] = int(calls[i])
    out.update({key: int(v) for key, v in recorder.counts.items()})
    for layer in ("subsolver.solve_block_qp", "subsolver.project_box_ball"):
        out[f"{layer}.capped_frac"] = out.get(f"{layer}.capped", 0) / max(out.get(f"{layer}.calls", 0), 1)

    init_id = recorder.names.index("factorization.NtfProblem.init")
    out["factorization.NtfProblem.init_ms"] = 1e3 * float(np.median(duration[name == init_id]))

    sweep_id = recorder.names.index("driver.bcd_dr_sweep")
    is_sweep = name == sweep_id
    sweep_total = float(duration[is_sweep].sum())
    out["driver.sweep_ms"] = 1e3 * sweep_total / max(int(is_sweep.sum()), 1)
    # Direct children of a sweep only, so that block_subproblem calls made
    # inside stationarity_measure are not counted twice.
    bookkeeping_ids = [recorder.names.index(b) for b in BOOKKEEPING]
    under_sweep = has_parent & np.isin(name, bookkeeping_ids)
    under_sweep[under_sweep] = name[parent[under_sweep]] == sweep_id
    out["driver.bookkeeping_share"] = float(duration[under_sweep].sum()) / sweep_total
    for kind in ("self", "total"):
        out[f"subsolver.solve_block_qp.{kind}_share"] = (
            out[f"subsolver.solve_block_qp.{kind}_ms"] / out["driver.run.total_ms"]
        )
    out["trace.spans"] = n
    return out
