"""Nonnegative matrix/tensor factorization as a block-descent problem.

The model approximates a nonnegative data tensor by the rank-``r`` CP
decomposition, a sum of outer products of per-mode loading matrices with
one block per data mode:

    X[i_1, ..., i_m]  ~=  sum_j U1[i_1,j] * ... * Um[i_m,j]

A code matrix mixing observations along a trailing axis needs no layout of
its own: its transpose is that axis's loading matrix, one more block.

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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .driver import SolverConfig, TraceRecord, _sweep_loop, stationarity_measure
from .subsolver import QuadraticBlockSubproblem
from .tensors import (
    _khatri_rao_native,
    _last_mode_mttkrp,
    _last_mode_partial,
    _mttkrp_from_partial,
    _row_slabs,
    as_tensor,
)

__all__ = [
    "FactorModel",
    "NtfProblem",
    "init_factors",
    "mu_sweep",
    "run_mu",
]

@dataclass
class FactorModel:
    """Per-mode loading matrices; ``factors[i]`` has shape ``(d_i, r)``."""

    factors: list[np.ndarray]

    def __post_init__(self):
        self.factors = [np.asarray(f, dtype=np.float64) for f in self.factors]
        if not self.factors:
            raise ValueError("model needs at least one loading matrix")
        r = self.factors[0].shape[1]
        for i, f in enumerate(self.factors):
            if f.ndim != 2 or f.shape[1] != r:
                raise ValueError(f"loading matrix {i} does not have {r} columns")

    def to_blocks(self) -> list[np.ndarray]:
        """Block list handed to the descent driver."""
        return [f.copy() for f in self.factors]


def default_box_bound(data: np.ndarray, num_blocks: int) -> float:
    """Generous per-entry factor bound keeping the feasible set compact."""
    top = float(data.max(initial=0.0))
    return 10.0 * max(1.0, top) ** (1.0 / (num_blocks + 1))


class _Memo(threading.local):
    """One thread's memo of the MTTKRP work on one problem.

    ``partial`` is the last-mode partial contraction, keyed by the bytes of
    the last block it was computed from; ``linear[i]`` is block ``i``'s
    linear term, keyed by the bytes of every other block. ``slab`` is the
    objective's residual buffer, one row block of the data's native view
    ``X.reshape(-1, d_last)`` (see :data:`drbcd.tensors.SLAB_BYTES`), so the
    objective never makes a tensor-sized temporary.
    """

    def __init__(self, num_blocks: int):
        self.partial: tuple[bytes | None, np.ndarray | None] = (None, None)
        self.linear: list[tuple[tuple[bytes, ...] | None, np.ndarray | None]] = [
            (None, None)
        ] * num_blocks
        self.slab: np.ndarray | None = None


class NtfProblem:
    """Least-squares factorization of a nonnegative tensor, one block per mode.

    Conforms to the driver's block-problem protocol.

    One problem may be shared by threads. Each thread memoizes the last-mode
    partial contraction and every block's last linear term (see
    :mod:`drbcd.tensors`), keyed by exact copies of the blocks they were
    computed from. A sweep reuses the terms the previous stationarity
    measure computed, so a sweep and its stationarity measure pass over the
    tensor about twice for their MTTKRPs instead of six times. A result is
    the same, bit for bit, on a hit and on a miss: a miss computes exactly
    what a hit returns. The objective is a third pass, over cache-sized row
    slabs of the data's native view ``X.reshape(-1, d_last)``.
    """

    def __init__(self, data, rank: int, box_bound: float | None = None):
        # A private read-only copy: the memo is keyed by the blocks alone, so
        # the data must never change under it.
        self.data = as_tensor(np.array(data, dtype=np.float64, order="C"), nonneg=True)
        self.data.flags.writeable = False
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        if self.data.ndim < 2:
            raise ValueError("factorization needs at least two data modes")
        if 0 in self.data.shape:
            raise ValueError(
                f"every data mode needs positive length, got shape {self.data.shape}"
            )
        self.rank = int(rank)
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

        The residual is formed explicitly over row slabs of the data's
        native view ``Xr = X.reshape(-1, d_last)``: slab ``[s:e]`` is
        ``Xr[s:e] - K[s:e] @ U_last.T``, with ``K`` the Khatri-Rao product of
        the leading blocks, formed in one per-thread buffer of about
        :data:`drbcd.tensors.SLAB_BYTES` and summed with ``dot``. The
        expansion ``||X||^2 - 2<U, B> + <U^T U, G>`` would be cheaper but
        cancels to about ``eps ||X||^2`` near a good fit, which is as large
        as the slack the descent checks allow.
        """
        blocks = self._check_blocks(blocks)
        xr = self.data.reshape(-1, self.data.shape[-1])
        kr = _khatri_rao_native(blocks[:-1])
        last_t = blocks[-1].T
        slabs = _row_slabs(xr.shape[0], xr[0].nbytes)
        memo = self._memo
        rows = slabs[0][1]  # the first slab is a longest one
        if memo.slab is None or memo.slab.shape[0] < rows:
            memo.slab = np.empty((rows, xr.shape[1]))
        total = 0.0
        for start, stop in slabs:
            residual = memo.slab[: stop - start]
            np.matmul(kr[start:stop], last_t, out=residual)
            np.subtract(xr[start:stop], residual, out=residual)
            flat = residual.ravel()
            total += float(np.dot(flat, flat))
        return total

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


def init_factors(
    shape: Sequence[int],
    rank: int,
    seed: int,
    scale: float = 1.0,
    box_bound: float | None = None,
) -> FactorModel:
    """Uniform ``[0, scale]`` initialization from a counter-based generator.

    Deterministic per seed (Philox, so identical across platforms).
    """
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    if box_bound is not None and scale > box_bound:
        raise ValueError(f"scale {scale} exceeds the box bound {box_bound}")
    shape = tuple(int(d) for d in shape)
    if any(d < 1 for d in shape):
        raise ValueError(f"dimensions must be positive, got {shape}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return FactorModel(factors=[scale * rng.random((d, rank)) for d in shape])


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
    """Multiplicative-update baseline through the block-descent runner's loop.

    Same start checks, trace schema, budgets and stops as
    :func:`drbcd.driver.run`; the radius column is ``inf`` (the baseline has
    no step restriction), so every point is long. ``cfg.schedule`` is unused.
    """

    def sweep(blocks: list[np.ndarray], n: int) -> tuple[list[np.ndarray], TraceRecord]:
        current = mu_sweep(problem, blocks, eps=eps)
        steps = tuple(float(np.linalg.norm(c - b)) for c, b in zip(current, blocks))
        objective = problem.objective(current)
        stat = (
            stationarity_measure(problem, current)
            if cfg.compute_stationarity
            else math.nan
        )
        record = TraceRecord(
            n=n,
            objective=objective,
            block_step_norms=steps,
            radius=math.inf,
            stationarity=stat,
            point_class="long",
            elapsed_seconds=0.0,
            cumulative_sq_steps=float(sum(s * s for s in steps)),
        )
        return current, record

    return _sweep_loop(problem, blocks0, cfg, sweep)
