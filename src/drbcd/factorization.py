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
    _dense_slabs,
    _held_read_only,
    _khatri_rao_native,
    _khatri_rao_t,
    _last_mode_mttkrp,
    _last_mode_partial,
    _mttkrp_from_partial,
    _read_only,
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
    """One thread's memo of the MTTKRP work on one problem.

    ``partial`` is the data contracted with the pivot's block along the
    pivot (see :class:`NtfProblem`), keyed by the bytes of that block.
    ``linear[i]`` is block ``i``'s linear term, keyed by the bytes of every
    other block. :meth:`drop_partial` frees the partial, with every term
    formed from it, before its successor is allocated, so a thread holds
    one partial at a time, never two. ``slab`` is the dense objective's
    residual buffer, one row block of the data's native view
    ``X.reshape(-1, d_last)`` (see :data:`drbcd.tensors.SLAB_BYTES`), so the
    objective never makes a tensor-sized temporary. ``chunk`` is the scratch
    of the nonzero-only passes, an ``(r, n)`` product for a chunk of ``n``
    nonzeros.
    """

    def __init__(self, num_blocks: int):
        self.partial: tuple[bytes | None, np.ndarray | None] = (None, None)
        self.linear: list[tuple[tuple[bytes, ...] | None, np.ndarray | None]] = [
            (None, None)
        ] * num_blocks
        self.slab: np.ndarray | None = None
        self.chunk: np.ndarray | None = None

    def drop_partial(self, pivot: int) -> None:
        """Forget the partial and the terms of every block but ``pivot``.

        Those terms are formed from a partial, and their keys name its
        pivot block, not the successor's; on a two-mode tensor such a term
        is a view of its partial and would keep it alive.
        """
        self.partial = (None, None)
        self.linear = [(None, None) if i != pivot else entry for i, entry in enumerate(self.linear)]


class NtfProblem:
    """Least-squares factorization of a nonnegative tensor, one block per mode.

    Conforms to the driver's block-problem protocol.

    One problem may be shared by threads. Each thread memoizes every
    block's last linear term, keyed by exact copies of the blocks it was
    computed from, so a sweep reuses the terms the previous stationarity
    measure computed. A result is the same, bit for bit, on a hit and on a
    miss: a miss computes exactly what a hit returns.

    The MTTKRPs follow a two-level dimension tree around one pivot mode.
    Each thread memoizes the partial ``P``, the data contracted with the
    pivot's block along the pivot, and holds one at a time: the stale ``P``,
    with the terms formed from it, is freed before a new pivot block's is
    allocated. Every other mode's
    term contracts ``P`` with the remaining blocks (see
    :mod:`drbcd.tensors`), and the pivot's own term is one pass over the
    data. The objective's pass leaves behind the term the stationarity
    measure at the same blocks needs next (see :meth:`objective`). A sweep,
    its objective and its stationarity measure so pass over dense data
    twice, and over the nonzeros of sparse data three times, instead of
    seven times.

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
    data pivots on the last mode, and the objective is a pass over
    cache-sized row slabs of the data's native view ``X.reshape(-1,
    d_last)``; coordinates of at least :data:`SPARSE_SHARE` nonzeros are
    scattered into a private read-only tensor for it. The solves read the
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
        self._memo = _Memo(self.num_blocks)

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

        The residual is formed explicitly over row slabs of the data's
        native view ``Xr = X.reshape(-1, d_last)``: slab ``[s:e]`` is
        ``Xr[s:e] - K[s:e] @ U_last.T``, with ``K`` the Khatri-Rao product of
        the leading blocks, formed in one per-thread buffer of about
        :data:`drbcd.tensors.SLAB_BYTES` and summed with ``dot``. The
        expansion ``||X||^2 - 2<U, B> + <U^T U, G>`` would be cheaper but
        cancels to about ``eps ||X||^2`` near a good fit, which is as large
        as the slack the descent checks allow.

        On sparse data (see :meth:`_coo_objective`) the residual is formed
        at the nonzeros alone, unless rounding could move the result by more
        than ``1e-12`` of itself; then the pass above runs on slabs filled
        from the coordinates of :attr:`data` into a second slab-sized
        buffer, with the bits of the pass over the tensor and no tensor
        formed.

        The pass leaves behind, in this thread's memo, the MTTKRP term that
        the stationarity measure at the same blocks needs next and that the
        pass can form from what it reads anyway: on dense data the
        rank-major partial, slab ``[s:e]`` of it ``U_last.T @ Xr[s:e].T``,
        from the same slabs and GEMMs as
        :func:`drbcd.tensors._last_mode_partial`, and on sparse data the
        pivot's term. A memo hit skips that work; on a miss the stale partial
        is dropped before the new one is allocated.

        Both products take ``U_last.T`` as one contiguous copy, not a
        transposed view. On a 100x200x300 rank-5 tensor, one BLAS thread,
        the residual products alone took 2.5 ms against 4.1 ms a pass, and
        the whole pass with its partial 12.1-14.3 ms against 16.4-16.8 ms
        with the transposed view and an ``(rows, r)`` partial (medians of
        25 calls, three alternating runs). OpenBLAS rounds some entries
        differently by the layout, so the two forms differ in their last
        bits.
        """
        blocks = self._check_blocks(blocks)
        if self._coo is not None:
            total = self._coo_objective(blocks)
            if total is not None:
                return total
        kr = _khatri_rao_native(blocks[:-1])
        last = blocks[-1]
        num_rows, d_last = math.prod(self.shape[:-1]), self.shape[-1]
        ranges = _row_slabs(num_rows, 8 * d_last)
        memo = self._memo
        rows = ranges[0][1]  # the first slab is a longest one
        if memo.slab is None or memo.slab.shape[0] < rows:
            memo.slab = np.empty((rows, d_last))
        if self._coo is None:
            xr = self._dense.reshape(-1, d_last)
            slabs = ((start, stop, xr[start:stop]) for start, stop in ranges)
        else:
            slabs = _dense_slabs(self.data)  # the same ranges
        # The nonzero path's partial is its own scatter, over its pivot and
        # with other bits: a dense pass on sparse data leaves none behind.
        key = last.tobytes() if self._coo is None else None
        partial = None
        if key is not None and memo.partial[0] != key:
            memo.drop_partial(self._pivot)
            partial = np.empty((self.rank, num_rows))
        last_t = np.ascontiguousarray(last.T)
        total = 0.0
        for start, stop, x_slab in slabs:
            residual = memo.slab[: stop - start]
            np.matmul(kr[start:stop], last_t, out=residual)
            np.subtract(x_slab, residual, out=residual)
            flat = residual.ravel()
            total += float(np.dot(flat, flat))
            if partial is not None:
                np.matmul(last_t, x_slab.T, out=partial[:, start:stop])
        if partial is not None:
            partial = partial.reshape((self.rank,) + self.shape[:-1])
            partial.flags.writeable = False
            memo.partial = (key, partial)
        return total

    def _coo_objective(self, blocks: list[np.ndarray]) -> float | None:
        """The objective from the nonzeros, or ``None`` if rounding forbids it.

        The residual at the nonzeros is explicit, from the pivot block's rows
        and the rows of the other blocks' Khatri-Rao product at the cells;
        the same gather gives the pivot's MTTKRP term, memoized here unless
        it is a hit (see :meth:`_linear`). The zeros' share is the model's
        energy ``||M||^2``, the sum of the Hadamard product of the block
        Grams, less the model's energy at the nonzeros.

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
        key = self._linear_key(blocks, self._pivot)
        hit = self._memo.linear[self._pivot][0] == key
        linear, residual, at_nonzeros = _coo_gather(
            *self._coo, _khatri_rao_t(others), self._chunk_scratch(),
            num_rows=None if hit else pivot.shape[0], u=pivot,
        )
        if linear is not None:
            self._remember(self._pivot, key, linear)
        total = residual + (energy - at_nonzeros)
        scale = float(np.sqrt(np.prod([np.diag(g) for g in grams], axis=0)).sum()) ** 2
        unit_roundoff = np.finfo(np.float64).eps / 2
        terms = sum(self.shape) + self.num_blocks + self.rank**2
        return total if unit_roundoff * terms * scale <= 1e-12 * total else None

    def _chunk_scratch(self) -> np.ndarray:
        """This thread's scratch for the nonzero-only passes, grown as needed."""
        memo = self._memo
        chunks = _row_slabs(self._coo[2].shape[0], 8 * self.rank)
        size = self.rank * (chunks[0][1] if chunks else 0)  # the first is a longest
        if memo.chunk is None or memo.chunk.size < size:
            memo.chunk = np.empty(size)
        return memo.chunk

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
        """MTTKRP of the data with every block but ``i``; read-only, memoized.

        A two-level dimension tree: every mode but the pivot contracts the
        memoized partial of the pivot's block with the other blocks, and the
        pivot's own term is one pass over the data.
        """
        key = self._linear_key(blocks, i)
        if self._memo.linear[i][0] == key:
            return self._memo.linear[i][1]
        pivot, others = self._split(blocks)
        if i != self._pivot:
            linear = _mttkrp_from_partial(self._partial(pivot), others, i - (i > self._pivot))
        elif self._coo is None:
            linear = _last_mode_mttkrp(self._dense, others)
        else:
            linear = _coo_gather(
                *self._coo, _khatri_rao_t(others), self._chunk_scratch(), num_rows=pivot.shape[0]
            )[0]
        return self._remember(i, key, linear)

    @staticmethod
    def _linear_key(blocks: list[np.ndarray], i: int) -> tuple[bytes, ...]:
        """The memo key of block ``i``'s linear term: the bytes of every other block."""
        return tuple(b.tobytes() for j, b in enumerate(blocks) if j != i)

    def _remember(self, i: int, key: tuple[bytes, ...], linear: np.ndarray) -> np.ndarray:
        """Memoize ``linear`` as block ``i``'s term at ``key``, read-only."""
        linear.flags.writeable = False
        self._memo.linear[i] = (key, linear)
        return linear

    def _partial(self, pivot: np.ndarray) -> np.ndarray:
        """The data contracted with the pivot's block along the pivot; read-only, memoized.

        Rank-major: a leading axis of length ``r``, then the other modes.
        """
        memo = self._memo
        key = pivot.tobytes()
        if memo.partial[0] == key:
            return memo.partial[1]
        memo.drop_partial(self._pivot)
        if self._coo is None:
            partial = _last_mode_partial(self._dense, pivot)
        else:
            shape = self.shape[: self._pivot] + self.shape[self._pivot + 1 :]
            partial = _coo_partial(*self._coo, pivot, math.prod(shape)).reshape((self.rank,) + shape)
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
