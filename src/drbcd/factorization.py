"""Nonnegative matrix/tensor factorization as a block-descent problem.

The model approximates a nonnegative data tensor by a rank-``r`` sum of
outer products of per-mode loading matrices, optionally combined with a
code matrix ``H`` mixing ``T`` observations along a trailing axis:

    X[i_1, ..., i_m, t]  ~=  sum_j U1[i_1,j] * ... * Um[i_m,j] * H[j,t]

In ``general`` mode the code is one more block (optimized as its transpose,
which is just the trailing-axis loading matrix); in ``cp_absorbed`` mode the
single observation's code is absorbed into the loadings and fixed at ones,
leaving the plain CP decomposition with one block per data mode.

Every block restriction of the squared reconstruction error is the convex
quadratic with Gram matrix given by the Hadamard product of the other
factors' Grams and linear term given by the MTTKRP, which is what
:meth:`NtfProblem.block_subproblem` assembles. Factors live in the box
``[0, M]``; the default bound is generous enough that it stays inactive on
data whose entries are O(1).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .driver import SolverConfig, TraceRecord, classify_point, stationarity_measure
from .subsolver import QuadraticBlockSubproblem
from .tensors import (
    _khatri_rao_native,
    _last_mode_mttkrp,
    _last_mode_partial,
    _mttkrp_from_partial,
    as_tensor,
)

__all__ = [
    "FactorModel",
    "NtfProblem",
    "make_block_problem",
    "init_factors",
    "mu_sweep",
    "run_mu",
]

MODES = ("general", "cp_absorbed")


@dataclass
class FactorModel:
    """Loading matrices plus the code matrix, with the block layout mode.

    ``factors[i]`` has shape ``(d_i, r)``; ``code`` has shape ``(r, T)``. In
    ``cp_absorbed`` mode ``T = 1`` and the code is fixed at ones and never
    updated.
    """

    factors: list[np.ndarray]
    code: np.ndarray
    mode: str = "cp_absorbed"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown model mode {self.mode!r}; expected one of {MODES}")
        self.factors = [np.asarray(f, dtype=np.float64) for f in self.factors]
        self.code = np.asarray(self.code, dtype=np.float64)
        if not self.factors:
            raise ValueError("model needs at least one loading matrix")
        r = self.factors[0].shape[1]
        for i, f in enumerate(self.factors):
            if f.ndim != 2 or f.shape[1] != r:
                raise ValueError(f"loading matrix {i} does not have {r} columns")
        if self.code.ndim != 2 or self.code.shape[0] != r:
            raise ValueError(f"code must have {r} rows, got shape {self.code.shape}")
        if self.mode == "cp_absorbed":
            if self.code.shape[1] != 1 or not np.all(self.code == 1.0):
                raise ValueError("cp_absorbed mode requires an all-ones r x 1 code")

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]

    def to_blocks(self) -> list[np.ndarray]:
        """Block list handed to the descent driver (code enters transposed)."""
        if self.mode == "general":
            return [f.copy() for f in self.factors] + [self.code.T.copy()]
        return [f.copy() for f in self.factors]

    @classmethod
    def from_blocks(cls, blocks: Sequence[np.ndarray], mode: str) -> "FactorModel":
        blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
        if mode == "general":
            return cls(factors=[b.copy() for b in blocks[:-1]], code=blocks[-1].T.copy(), mode=mode)
        r = blocks[0].shape[1]
        return cls(factors=[b.copy() for b in blocks], code=np.ones((r, 1)), mode=mode)

    def copy(self) -> "FactorModel":
        return FactorModel(
            factors=[f.copy() for f in self.factors], code=self.code.copy(), mode=self.mode
        )


def default_box_bound(data: np.ndarray, num_blocks: int) -> float:
    """Generous per-entry factor bound keeping the feasible set compact."""
    top = float(data.max(initial=0.0))
    return 10.0 * max(1.0, top) ** (1.0 / (num_blocks + 1))


# The objective forms its residual over mode-0 slabs of about this many
# bytes, in one buffer per thread, so it never makes a tensor-sized temporary.
OBJECTIVE_SLAB_BYTES = 4 << 20


class _Memo(threading.local):
    """One thread's memo of the MTTKRP work on one problem.

    ``partial`` is the last-mode partial contraction, keyed by the bytes of
    the last block it was computed from; ``linear[i]`` is block ``i``'s
    linear term, keyed by the bytes of every other block. ``slab`` is the
    objective's residual buffer.
    """

    def __init__(self, num_blocks: int):
        self.partial: tuple[bytes | None, np.ndarray | None] = (None, None)
        self.linear: list[tuple[tuple[bytes, ...] | None, np.ndarray | None]] = [
            (None, None)
        ] * num_blocks
        self.slab: np.ndarray | None = None


class NtfProblem:
    """Least-squares factorization of a nonnegative tensor, one block per mode.

    Conforms to the driver's block-problem protocol. ``mode='general'``
    expects the trailing data axis to index observations (that axis's block
    is the transposed code matrix); ``mode='cp_absorbed'`` factorizes the
    tensor as-is.

    One problem may be shared by threads. Each thread memoizes the last-mode
    partial contraction and every block's last linear term (see
    :mod:`drbcd.tensors`), keyed by exact copies of the blocks they were
    computed from. A sweep reuses the terms the previous stationarity
    measure computed, so a sweep and its stationarity measure pass over the
    tensor about twice for their MTTKRPs instead of six times. A result is
    the same, bit for bit, on a hit and on a miss: a miss computes exactly
    what a hit returns.
    """

    def __init__(self, data, rank: int, box_bound: float | None = None, mode: str = "cp_absorbed"):
        if mode not in MODES:
            raise ValueError(f"unknown problem mode {mode!r}; expected one of {MODES}")
        # A private read-only copy: the memo is keyed by the blocks alone, so
        # the data must never change under it.
        self.data = as_tensor(np.array(data, dtype=np.float64, order="C"), nonneg=True)
        self.data.flags.writeable = False
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        if self.data.ndim < 2:
            raise ValueError("factorization needs at least two data modes")
        self.rank = int(rank)
        self.mode = mode
        self.box_bound = (
            default_box_bound(self.data, self.data.ndim) if box_bound is None else float(box_bound)
        )
        if not self.box_bound > 0.0:
            raise ValueError(f"box bound must be positive, got {self.box_bound}")
        flat = self.data.ravel()
        self._norm_sq = float(np.dot(flat, flat))
        self._memo = _Memo(self.data.ndim)

    @property
    def num_blocks(self) -> int:
        return self.data.ndim

    def block_shape(self, i: int) -> tuple[int, int]:
        return (self.data.shape[i], self.rank)

    def _check_blocks(self, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        if len(blocks) != self.num_blocks:
            raise ValueError(f"expected {self.num_blocks} blocks, got {len(blocks)}")
        out = []
        for i, b in enumerate(blocks):
            b = np.asarray(b, dtype=np.float64)
            if b.shape != self.block_shape(i):
                raise ValueError(
                    f"block {i} has shape {b.shape}, expected {self.block_shape(i)}"
                )
            out.append(b)
        return out

    def objective(self, blocks: Sequence[np.ndarray]) -> float:
        """Squared Frobenius reconstruction error.

        The residual is formed explicitly, slab by slab. The expansion
        ``||X||^2 - 2<U, B> + <U^T U, G>`` would be cheaper but cancels to
        about ``eps ||X||^2`` near a good fit, which is as large as the
        slack the descent checks allow.
        """
        blocks = self._check_blocks(blocks)
        x = self.data.reshape(self.data.shape[0], -1)
        recon_t = _khatri_rao_native(blocks[1:]).T
        memo = self._memo
        if memo.slab is None:
            rows = min(x.shape[0], max(1, OBJECTIVE_SLAB_BYTES // x[0].nbytes))
            memo.slab = np.empty((rows, x.shape[1]))
        total = 0.0
        for start in range(0, x.shape[0], memo.slab.shape[0]):
            stop = min(start + memo.slab.shape[0], x.shape[0])
            residual = memo.slab[: stop - start]
            np.matmul(blocks[0][start:stop], recon_t, out=residual)
            np.subtract(x[start:stop], residual, out=residual)
            flat = residual.ravel()
            total += float(np.dot(flat, flat))
        return total

    def reconstruction_error(self, blocks: Sequence[np.ndarray]) -> float:
        return math.sqrt(max(self.objective(blocks), 0.0))

    def block_subproblem(
        self, blocks: Sequence[np.ndarray], i: int
    ) -> QuadraticBlockSubproblem:
        """Normal-equation data for block ``i`` with the others held fixed.

        Gram = Hadamard product of the other blocks' Gram matrices; linear
        term = MTTKRP against the data; the constant carries ``||X||_F^2`` so
        the quadratic equals the full objective restricted to the block.
        """
        blocks = self._check_blocks(blocks)
        if not 0 <= i < self.num_blocks:
            raise ValueError(f"block index {i} out of range")
        gram = np.ones((self.rank, self.rank))
        for j, b in enumerate(blocks):
            if j != i:
                gram *= b.T @ b
        return QuadraticBlockSubproblem(
            gram=gram, linear=self._linear(blocks, i), constant=self._norm_sq
        )

    def _linear(self, blocks: list[np.ndarray], i: int) -> np.ndarray:
        """MTTKRP of the data with every block but ``i``; read-only, memoized."""
        memo = self._memo
        key = tuple(b.tobytes() for j, b in enumerate(blocks) if j != i)
        cached_key, linear = memo.linear[i]
        if cached_key == key:
            return linear
        if i == self.num_blocks - 1:
            linear = _last_mode_mttkrp(self.data, blocks[:-1])
        else:
            linear = _mttkrp_from_partial(self._partial(blocks[-1]), blocks[:-1], i)
        linear.flags.writeable = False
        memo.linear[i] = (key, linear)
        return linear

    def _partial(self, last: np.ndarray) -> np.ndarray:
        """Last-mode partial contraction with block ``last``; read-only, memoized."""
        memo = self._memo
        key = last.tobytes()
        cached_key, partial = memo.partial
        if cached_key != key:
            partial = _last_mode_partial(self.data, last)
            partial.flags.writeable = False
            memo.partial = (key, partial)
        return partial

    def block_feasible_box(self, i: int) -> tuple[float, float]:
        if not 0 <= i < self.num_blocks:
            raise ValueError(f"block index {i} out of range")
        return (0.0, self.box_bound)

    def full_gradient(self, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Gradient of the squared error with respect to every block."""
        blocks = self._check_blocks(blocks)
        grads = []
        for i in range(self.num_blocks):
            sub = self.block_subproblem(blocks, i)
            grads.append(2.0 * (blocks[i] @ sub.gram - sub.linear))
        return grads

    def model_objective(self, model: FactorModel) -> float:
        return self.objective(model.to_blocks())


def make_block_problem(
    data, rank: int, box_bound: float | None = None, mode: str = "cp_absorbed"
) -> NtfProblem:
    """Wrap a data tensor as a driver-ready factorization problem."""
    return NtfProblem(data, rank, box_bound=box_bound, mode=mode)


def init_factors(
    shape: Sequence[int],
    rank: int,
    seed: int,
    scale: float = 1.0,
    mode: str = "cp_absorbed",
    box_bound: float | None = None,
) -> FactorModel:
    """Uniform ``[0, scale]`` initialization from a counter-based generator.

    Deterministic per seed (Philox, so identical across platforms). In
    ``general`` mode the last entry of ``shape`` is the observation count and
    the code matrix is initialized like the factors.
    """
    if mode not in MODES:
        raise ValueError(f"unknown model mode {mode!r}; expected one of {MODES}")
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    if box_bound is not None and scale > box_bound:
        raise ValueError(f"scale {scale} exceeds the box bound {box_bound}")
    shape = tuple(int(d) for d in shape)
    if any(d < 1 for d in shape):
        raise ValueError(f"dimensions must be positive, got {shape}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    factor_dims = shape if mode == "cp_absorbed" else shape[:-1]
    factors = [scale * rng.random((d, rank)) for d in factor_dims]
    if mode == "general":
        code = scale * rng.random((rank, shape[-1]))
    else:
        code = np.ones((rank, 1))
    return FactorModel(factors=factors, code=code, mode=mode)


def mu_sweep(
    problem: NtfProblem, blocks: Sequence[np.ndarray], eps: float = 1e-12
) -> list[np.ndarray]:
    """One multiplicative-update pass over all blocks.

    Each block is rescaled entrywise by ``B / (U G + eps)`` with the Gram and
    MTTKRP terms recomputed per block, then clamped at the box bound. Zero
    entries stay zero and nonnegativity is preserved exactly.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    current = [np.asarray(b, dtype=np.float64) for b in blocks]
    _, upper = problem.block_feasible_box(0)
    for i in range(problem.num_blocks):
        sub = problem.block_subproblem(current, i)
        u = current[i]
        current[i] = np.minimum(u * sub.linear / (u @ sub.gram + eps), upper)
    return current


def run_mu(
    problem: NtfProblem,
    blocks0: Sequence[np.ndarray],
    cfg: SolverConfig,
    eps: float = 1e-12,
) -> tuple[list[np.ndarray], list[TraceRecord]]:
    """Multiplicative-update baseline with the same trace schema as the driver.

    The radius column is ``inf`` (the baseline has no step restriction) and
    the budget/stop handling mirrors the block-descent runner.
    """
    blocks = [np.asarray(b, dtype=np.float64) for b in blocks0]
    trace: list[TraceRecord] = []
    start_time = time.perf_counter()
    f0 = problem.objective(blocks)
    stat0 = (
        stationarity_measure(problem, blocks) if cfg.compute_stationarity else math.nan
    )
    if cfg.record_trace:
        trace.append(
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
        )
    cum_sq = 0.0
    for n in range(1, cfg.max_sweeps + 1):
        new_blocks = mu_sweep(problem, blocks, eps=eps)
        steps = tuple(
            float(np.linalg.norm(nb - b)) for nb, b in zip(new_blocks, blocks)
        )
        blocks = new_blocks
        objective = problem.objective(blocks)
        if not math.isfinite(objective):
            raise FloatingPointError(f"objective became {objective} at sweep {n}")
        cum_sq += float(sum(s * s for s in steps))
        stat = (
            stationarity_measure(problem, blocks)
            if cfg.compute_stationarity
            else math.nan
        )
        elapsed = (
            float(n) if cfg.clock == "sweep" else time.perf_counter() - start_time
        )
        record = TraceRecord(
            n=n,
            objective=objective,
            block_step_norms=steps,
            radius=math.inf,
            stationarity=stat,
            point_class=classify_point(steps, math.inf),
            elapsed_seconds=elapsed,
            cumulative_sq_steps=cum_sq,
        )
        if cfg.record_trace:
            trace.append(record)
        if (
            cfg.stationarity_stop is not None
            and cfg.compute_stationarity
            and stat <= cfg.stationarity_stop
        ):
            break
        if elapsed >= cfg.max_seconds:
            break
    return blocks, trace
