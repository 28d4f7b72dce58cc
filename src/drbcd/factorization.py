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

from .driver import SolverConfig, TraceRecord, _sweep_loop, _trace_record
# Not called here: kept so that ``factorization.stationarity_measure`` stays
# an attribute, which ``bench/tracing.py`` wraps.
from .driver import stationarity_measure  # noqa: F401
from .subsolver import QuadraticBlockSubproblem
from .tensors import (
    SparseTensor,
    _checked_range,
    _coo_gather,
    _coo_matrix,
    _coo_partial,
    _coo_positions,
    _held_read_only,
    _khatri_rao_native,
    _khatri_rao_t,
    _last_mode_mttkrp,
    _mttkrp_from_partial,
    _read_only,
    _row_pass,
    _row_slabs,
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


# ``NtfProblem`` keeps a coordinate list of the data's nonzeros, and passes
# over them alone, when they are fewer than this share of the entries. The
# objective plus one MTTKRP per mode from a cleared memo (the objective
# leaves the partial, or on sparse data the pivot's term, behind for them),
# rank 5 on one BLAS thread, took (dense / nonzero-only, ms, fastest of 15
# calls, better of two runs, on a shared 2-core host where the dense times
# varied by up to 40% from run to run) at a nonzero share of 0.5%, 1%, 2%,
# 3%, 4%, 5%, 7.5% and 10%: on 90x500x100 17.5/1.4, 15.3/1.8, 13.0/3.3,
# 13.3/4.6, 15.1/6.1, 15.1/7.4, 16.0/13.1 and 15.2/15.7; on 100x200x300
# 21.3/2.4, 22.2/4.0, 19.7/5.2, 17.9/7.2, 15.3/10.1, 18.1/14.5, 16.2/16.8
# and 17.7/21.9. On 30x30x30x30, whose 27,000 cells outnumber the nonzeros
# below 3%, at 0.5%, 1%, 2%, 3% and 5%: 3.4/1.0, 3.4/1.2, 3.3/1.5, 3.4/1.8
# and 3.4/2.4. The paths cross between 5% and 10% on all three shapes. The
# short four-mode shape, which tied at 2% while contracting the partial took
# broadcast temporaries (4.8/4.8), no longer holds the share down, so it
# sits at 5%, where the nonzero-only passes took at most 0.8x the dense time.
SPARSE_SHARE = 0.05


def _sample_step(size: int) -> int:
    """The stride of the nonzero search's sample: about 16k entries of ``size``."""
    return max(1, size >> 14)


def _nonzero_list(
    data: np.ndarray, pivot: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The nonzeros of ``data`` as one read-only coordinate list, or ``None``.

    The list is ``(rows, cols, values)`` of the matricization at ``pivot``,
    ordered by ``rows`` (see :func:`drbcd.tensors._coo_matrix`). ``None``
    means the nonzeros are at least :data:`SPARSE_SHARE` of the entries. A
    fixed strided sample of about 16k entries is counted first, so that
    dense data pays no full pass; only data whose sample has fewer than
    twice that share of nonzeros is searched in full, and then the exact
    share decides.
    """
    flat = data.ravel()
    sample = flat[:: _sample_step(flat.size)]
    if np.count_nonzero(sample) >= 2.0 * SPARSE_SHARE * sample.size:
        return None
    # Over slabs of the data, so that no tensor-sized mask is formed:
    # ``flatnonzero`` takes about a quarter of the time on a boolean mask
    # that it takes on float64 data.
    nonzero = np.concatenate(
        [np.flatnonzero(flat[s:e] != 0.0) + s for s, e in _row_slabs(flat.size, flat.itemsize)]
    )
    return _listed(nonzero, flat, data.shape, pivot)


def _coordinate_list(
    data: SparseTensor, pivot: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """:func:`_nonzero_list` of ``data.dense()``, from the coordinates alone.

    The listed zeros, ``-0.0`` among them, are dropped; the sample and the
    exact share are counted on the positions of the rest, so the same data
    is listed, or not, and its list has the same bits.
    """
    positions, values = data.positions, data.values
    nonzero = values != 0.0
    if not nonzero.all():
        positions, values = positions[nonzero], values[nonzero]
    size = math.prod(data.shape)
    step = _sample_step(size)
    if np.count_nonzero(positions % step == 0) >= 2.0 * SPARSE_SHARE * -(-size // step):
        return None
    return _listed(positions, values, data.shape, pivot)


def _listed(positions, values, shape, pivot: int):
    """The read-only list of the nonzeros at ``positions``, or ``None`` when
    they are at least :data:`SPARSE_SHARE` of the entries; ``values`` as
    :func:`drbcd.tensors._coo_matrix` takes them."""
    if positions.size >= SPARSE_SHARE * math.prod(shape):
        return None
    coo = _coo_matrix(positions, values, shape, pivot)
    for a in coo:
        a.flags.writeable = False
    return coo


def default_box_bound(top: float, num_blocks: int) -> float:
    """Generous per-entry factor bound keeping the feasible set compact.

    ``top`` is the data's largest entry.
    """
    return 10.0 * max(1.0, top) ** (1.0 / (num_blocks + 1))


class _Memo(threading.local):
    """One thread's memo of the passes over the data on one problem.

    ``partial`` is the data contracted with the pivot's block along the
    pivot (see :class:`NtfProblem`), keyed by the bytes of that block and
    kept by :meth:`NtfProblem._memo_partial` alone, which frees it before
    its successor is allocated, so a thread holds one partial at a time,
    never two. ``term`` is the pivot's own linear term, keyed by the bytes
    of every other block. Every other block's term is a contraction of the
    partial, formed on each call and not kept. The passes' slab and chunk
    buffers are not kept here but in the scratch of whichever thread runs
    them (see :func:`drbcd.tensors._scratch`).
    """

    def __init__(self):
        self.partial: tuple[bytes | None, np.ndarray | None] = (None, None)
        self.term: tuple[tuple[bytes, ...] | None, np.ndarray | None] = (None, None)


class NtfProblem:
    """Least-squares factorization of a nonnegative tensor, one block per mode.

    Conforms to the driver's block-problem protocol.

    One problem may be shared by threads. The MTTKRPs follow a two-level
    dimension tree around one pivot mode, and each thread memoizes the two
    results that take a pass over the data: the partial ``P``, the data
    contracted with the pivot's block along the pivot, keyed by an exact
    copy of that block, and the pivot's own term, keyed by exact copies of
    every other block. A thread holds one ``P`` at a time: the stale one is
    freed before a new pivot block's is allocated. Every other mode's term
    contracts ``P`` with the remaining blocks on each call (see
    :mod:`drbcd.tensors`) and is not kept. A result is the same, bit for
    bit, on a hit and on a miss: a miss computes exactly what a hit
    returns. The objective's pass leaves behind what the stationarity
    measure at the same blocks needs next (see :meth:`objective`): ``P`` on
    dense data, the pivot's term on sparse data. A sweep, its objective and
    its stationarity measure so pass over dense data twice (the pivot's
    term and the objective's pass, which forms ``P``), and over the
    nonzeros of sparse data three times (the scatter that forms ``P``, the
    pivot's term and the objective's gather), or twice when the pivot is
    the first mode, whose solve finds the term that the previous objective
    left; without the memo they would take seven.

    ``data`` is a tensor, as an array or anything ``np.asarray`` takes, or
    a :class:`drbcd.tensors.SparseTensor`, the coordinates of its nonzeros,
    as :func:`drbcd.datagen.sparse_surrogate` returns; the
    problem built from either is the same, bit for bit, as from the tensor
    it describes. Which passes run, and how the data is held, depends on
    the data alone; it is held once. Dense data is shared, not copied, when
    the caller's array is read-only and so is the ndarray that owns its
    memory, as with the tensors of :mod:`drbcd.datagen` and
    :func:`drbcd.tensors.read_ntf1`; any other dense input is held as a
    private read-only copy. Every public
    evaluation raises ``ValueError`` once the memory it reads has been made
    writeable again, since the memo would then go stale. When the nonzeros
    are fewer than :data:`SPARSE_SHARE` of the entries, the problem holds
    one read-only coordinate list of them instead, 24 bytes a nonzero,
    formed from the caller's array or coordinates without a tensor-sized
    array (one stable sort of the coordinates' rows), so that the caller may
    free its data once the problem is built; the MTTKRPs and the objective
    then visit the nonzeros alone (the
    coordinate-format MTTKRP and factored-tensor norm of Bader & Kolda
    2007, "Efficient MATLAB computations with sparse and factored
    tensors", on the dimension tree of Kaya & Uçar 2018, "Parallel
    CANDECOMP/PARAFAC decomposition of sparse tensors using dimension
    trees"). The list holds the data as a sparse matrix whose rows are the
    indices of the pivot, the longest mode (the last of equal lengths), and
    whose columns are the cells of the other modes, ordered by row; ``P``
    then has one column per cell, never more than on the dense path. Dense
    data pivots on the last mode, and the objective is the pass over
    cache-sized row slabs of the data's native view ``X.reshape(-1,
    d_last)`` that also forms the partial (see
    :func:`drbcd.tensors._row_pass`); coordinates of at least
    :data:`SPARSE_SHARE` nonzeros are scattered into a private read-only tensor for it. The solves read the
    data's :attr:`shape`; :attr:`data` returns the tensor itself, or, from
    a coordinate list, a :class:`~drbcd.tensors.SparseTensor` of it, from
    which ``NtfProblem(problem.data, rank)`` builds the same problem. No
    pass on a coordinate list forms a tensor.
    """

    def __init__(self, data, rank: int, box_bound: float | None = None):
        coords = data if isinstance(data, SparseTensor) else None
        x = None if coords else np.asarray(data, dtype=np.float64, order="C")
        shape = coords.shape if coords else x.shape
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        if len(shape) < 2:
            raise ValueError("factorization needs at least two data modes")
        if 0 in shape:
            raise ValueError(f"every data mode needs positive length, got shape {shape}")
        self.shape: tuple[int, ...] = shape
        self.rank = int(rank)
        # The longest mode (the last of equal lengths) is the sparse pivot:
        # its partial then has the fewest cells.
        longest = len(shape) - 1 - int(np.argmax(shape[::-1]))
        self._coo = _coordinate_list(coords, longest) if coords else _nonzero_list(x, longest)
        self._pivot = len(shape) - 1 if self._coo is None else longest
        self._dense = self._owner = None
        if self._coo is None:
            self._dense, self._owner = _held_read_only(coords.dense() if coords else x, data)
        # Every nonzero entry (NaN and infinities among them): the checks,
        # the maximum and the square sum need no more, and take one pass. A
        # negative entry is refused after the pass, so that a non-finite one
        # is named first wherever the two lie.
        entries = self._coo[2] if self._dense is None else self._dense.ravel()
        lowest, top, self._norm_sq = _checked_range(entries) if entries.size else (0.0,) * 3
        if lowest < 0.0:
            raise ValueError("tensor entries must be nonnegative")
        self.box_bound = (
            default_box_bound(top, self.num_blocks) if box_bound is None else float(box_bound)
        )
        if not self.box_bound > 0.0:
            raise ValueError(f"box bound must be positive, got {self.box_bound}")
        self._memo = _Memo()

    @property
    def data(self) -> np.ndarray | SparseTensor:
        """The data, read-only: a tensor, or the coordinates of its nonzeros.

        Dense data returns the array the problem reads, the same every
        time: the caller's own when it was shared, or the tensor scattered
        from the caller's coordinates. A coordinate list returns a fresh
        :class:`~drbcd.tensors.SparseTensor` on every access: each entry's
        flat position recomputed from its row and column (the inverse of
        :func:`drbcd.tensors._coo_matrix`), put back in ascending order
        with the values moved along, about two thirds of the list's bytes
        and no tensor. Its :meth:`~drbcd.tensors.SparseTensor.dense`
        tensor, or ``np.asarray`` of it, is the data with ``+0.0`` for
        every entry the list left out as zero, also where the input held
        ``-0.0``. No solve reads it but the objective's rounding fallback
        (see :meth:`objective`), whose squared residuals do not see the
        sign of a zero.
        """
        if self._dense is not None:
            return self._dense
        rows, cols, values = self._coo
        positions = _coo_positions(rows, cols, self.shape, self._pivot)
        order = np.argsort(positions)
        positions = positions[order]
        values = values[order]
        return SparseTensor(self.shape, _read_only(positions), _read_only(values))

    @property
    def num_blocks(self) -> int:
        return len(self.shape)

    def block_shape(self, i: int) -> tuple[int, int]:
        return (self.shape[i], self.rank)

    def _check_blocks(self, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """The blocks as float64 arrays, checked against their shapes.

        Every public evaluation calls this first, so each also refuses dense
        data whose owner has been made writeable since the problem was built.
        """
        if self._owner is not None and self._owner.flags.writeable:
            raise ValueError(
                "the problem's dense data has been made writeable since the problem "
                "was built, so its memoized terms may be stale; build a new problem"
            )
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

        On dense data, the residual is formed explicitly by one pass over
        row slabs of the data's native view ``X.reshape(-1, d_last)`` (see
        :func:`drbcd.tensors._row_pass`), which leaves behind, in this
        thread's memo, the rank-major partial that the stationarity measure
        at the same blocks needs next, unless the memo holds it already (see
        :meth:`_memo_partial`).

        On sparse data (see :meth:`_coo_objective`) the residual is formed
        at the nonzeros alone, and its gather leaves the pivot's term behind,
        unless rounding could move the result by more than ``1e-12`` of
        itself; then the dense pass runs on slabs filled from the
        coordinates of :attr:`data`, with the bits of the pass over the
        tensor, no tensor formed and no partial left behind: the nonzero
        path's partial is its own scatter, over its pivot and with other
        bits.
        """
        blocks = self._check_blocks(blocks)
        if self._coo is not None:
            total = self._coo_objective(blocks)
            if total is not None:
                return total
            return _row_pass(self.data, blocks[-1], _khatri_rao_native(blocks[:-1]))
        return self._memo_partial(blocks[-1], _khatri_rao_native(blocks[:-1]))[1]

    def _coo_objective(self, blocks: list[np.ndarray]) -> float | None:
        """The objective from the nonzeros, or ``None`` if rounding forbids it.

        The residual at the nonzeros is explicit, from the pivot block's rows
        and the rows of the other blocks' Khatri-Rao product at the cells;
        the same gather gives the pivot's MTTKRP term, which
        :meth:`_remember` memoizes for :meth:`_linear`. The zeros' share is
        the model's energy ``||M||^2``, the sum of the Hadamard product of
        the block Grams, less the model's energy at the nonzeros.

        Each Gram entry ``G_k[a, b]`` is a dot product of length ``d_k``, so
        it errs by at most ``d_k u n_k[a] n_k[b]`` to first order, with
        ``u`` the unit roundoff and ``n_k[a] = ||U_k[:, a]||`` (Cauchy-
        Schwarz). The Hadamard product of the ``m`` Grams adds ``m - 1``
        roundings, and the sum of its ``r^2`` entries ``r^2 - 1`` more. So
        ``||M||^2`` errs by at most ``u (sum_k d_k + m + r^2) S``, where
        ``S = (sum_a prod_k n_k[a])^2``, and the result ``f`` is used only
        when that is at most ``1e-12 f``: ``S <= C f`` with ``C = 1e-12 /
        (u (sum_k d_k + m + r^2))``, about 12 for a 90x500x100 rank-5
        problem. For nonnegative blocks ``S >= ||M||^2``. The sums over the
        nonzeros add rounding of the order of the dense residual's own sum
        over every entry. A fit so close that the zeros' share cancels, such
        as an exact fit of sparse low-rank data, fails the test.
        """
        grams = [b.T @ b for b in blocks]
        energy = float(np.prod(grams, axis=0).sum())
        pivot, others = self._split(blocks)
        linear, residual, at_nonzeros = _coo_gather(
            *self._coo, _khatri_rao_t(others), pivot.shape[0], u=pivot
        )
        self._remember(tuple(b.tobytes() for b in others), linear)
        total = residual + (energy - at_nonzeros)
        scale = float(np.sqrt(np.prod([np.diag(g) for g in grams], axis=0)).sum()) ** 2
        unit_roundoff = np.finfo(np.float64).eps / 2
        terms = sum(self.shape) + self.num_blocks + self.rank**2
        return total if unit_roundoff * terms * scale <= 1e-12 * total else None

    def _split(self, blocks: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
        """The pivot's block, and the other blocks in mode order."""
        p = self._pivot
        return blocks[p], blocks[:p] + blocks[p + 1 :]

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
        """MTTKRP of the data with every block but ``i``; read-only.

        A two-level dimension tree: every mode but the pivot contracts the
        memoized partial of the pivot's block with the other blocks, and the
        pivot's own term, memoized, is one pass over the data.
        """
        pivot, others = self._split(blocks)
        if i != self._pivot:
            linear = _mttkrp_from_partial(self._memo_partial(pivot)[0], others, i - (i > self._pivot))
            linear.flags.writeable = False
            return linear
        key = tuple(b.tobytes() for b in others)
        if self._memo.term[0] == key:
            return self._memo.term[1]
        if self._coo is None:
            linear = _last_mode_mttkrp(self._dense, others)
        else:
            linear = _coo_gather(*self._coo, _khatri_rao_t(others), pivot.shape[0])[0]
        return self._remember(key, linear)

    def _remember(self, key: tuple[bytes, ...], linear: np.ndarray) -> np.ndarray:
        """Memoize ``linear``, read-only, as the pivot's term at ``key``, the
        bytes of every other block."""
        linear.flags.writeable = False
        self._memo.term = (key, linear)
        return linear

    def _memo_partial(
        self, pivot: np.ndarray, kr: np.ndarray | None = None
    ) -> tuple[np.ndarray, float]:
        """The data contracted with the pivot's block along the pivot,
        read-only and memoized in this thread, and dense data's residual
        square sum at ``kr`` (0 without).

        The partial is rank-major: a leading axis of length ``r``, then the
        other modes. On a miss the stale partial is dropped before the new
        one is formed: on dense data by the pass that also sums the residual
        (see :func:`drbcd.tensors._row_pass`), on a coordinate list by a
        scatter of the nonzeros. On a hit the dense pass forms the residual
        alone, and is skipped without ``kr``.
        """
        memo = self._memo
        key = pivot.tobytes()
        if memo.partial[0] == key:
            return memo.partial[1], (0.0 if kr is None else _row_pass(self._dense, pivot, kr))
        memo.partial = (None, None)
        shape = self.shape[: self._pivot] + self.shape[self._pivot + 1 :]
        if self._coo is None:
            partial = np.empty((self.rank, math.prod(shape)))
            total = _row_pass(self._dense, pivot, kr, partial)
        else:
            partial, total = _coo_partial(*self._coo, pivot, math.prod(shape)), 0.0
        partial = partial.reshape((self.rank,) + shape)
        partial.flags.writeable = False
        memo.partial = (key, partial)
        return partial, total

    def block_feasible_box(self, i: int) -> tuple[float, float]:
        if not 0 <= i < self.num_blocks:
            raise ValueError(f"block index {i} out of range")
        return (0.0, self.box_bound)

    def full_gradient(self, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Gradient of the squared error with respect to every block."""
        blocks = self._check_blocks(blocks)
        return [self.block_subproblem(blocks, i).gradient(blocks[i]) for i in range(self.num_blocks)]


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
    if not scale > 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    if box_bound is not None and scale > box_bound:
        raise ValueError(f"scale {scale} exceeds the box bound {box_bound}")
    shape = tuple(int(d) for d in shape)
    if any(d < 1 for d in shape):
        raise ValueError(f"dimensions must be positive, got {shape}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return FactorModel(factors=[scale * rng.random((d, rank)) for d in shape])


# Added to the multiplicative update's denominator, which vanishes where a
# block's row is zero.
MU_EPS = 1e-12


def mu_sweep(problem: NtfProblem, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
    """One multiplicative-update pass over all blocks.

    Each block is rescaled entrywise by ``B / (U G + MU_EPS)`` with the Gram
    and MTTKRP terms recomputed per block, then clamped at the box bound.
    Zero entries stay zero and nonnegativity is preserved exactly.
    """
    current = [np.asarray(b, dtype=np.float64) for b in blocks]
    _, upper = problem.block_feasible_box(0)
    for i in range(problem.num_blocks):
        sub = problem.block_subproblem(current, i)
        u = current[i]
        current[i] = np.minimum(u * sub.linear / (u @ sub.gram + MU_EPS), upper)
    return current


def run_mu(
    problem: NtfProblem, blocks0: Sequence[np.ndarray], cfg: SolverConfig
) -> tuple[list[np.ndarray], list[TraceRecord]]:
    """Multiplicative-update baseline through the block-descent runner's loop.

    Same start checks, trace schema, budgets and stops as
    :func:`drbcd.driver.run`; the radius column is ``inf`` (the baseline has
    no step restriction), so every point is long. ``cfg.schedule`` is unused.
    """

    def sweep(blocks: list[np.ndarray], n: int) -> tuple[list[np.ndarray], TraceRecord]:
        current = mu_sweep(problem, blocks)
        steps = [float(np.linalg.norm(c - b)) for c, b in zip(current, blocks)]
        return current, _trace_record(problem, current, n, steps, math.inf)

    return _sweep_loop(problem, blocks0, cfg, sweep)
