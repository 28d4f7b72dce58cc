"""Multilinear-algebra kernels, dense and on nonzeros, and the NTF1 file format.

Tensors and matrices are plain ``numpy.ndarray`` values in double precision,
stored row-major (C order). Mode-``k`` unfolding follows the convention where
the column index runs over the remaining modes with the *lowest*-numbered mode
varying fastest.

:func:`mttkrp` never unfolds: it works on the native layout, where for a
C-contiguous tensor ``Xr = x.reshape(-1, d_last)`` and ``x.reshape(d_0,
-1)`` are free views. Every mode before the last contracts the small
partial product ``P = (Xr @ U_last).T``, held rank-major as ``(r,) + other
dims``, against the remaining factors, so one pass over the tensor serves
all of the modes before the last (a two-level dimension tree). ``P`` is
formed over row blocks of ``Xr`` of about :data:`SLAB_BYTES` each, written
into one preallocated result, so that each block stays in cache while it is
multiplied; a pass that reads the same blocks for another purpose (the
objective's residual in :mod:`drbcd.factorization`) can form ``P`` on the
way, with the same bits. Each rank slice of ``P`` is contiguous and is
contracted by matrix-vector products (see :func:`_mttkrp_from_partial`).
The last mode's MTTKRP contracts mode 0 first and then the middle modes
(see :func:`_last_mode_mttkrp`).

The dense GEMMs take their small operands as contiguous copies (``U.T``
rather than the transposed view) and the tensor as a row- or column-block
of its native layout, the layouts OpenBLAS multiplies fastest here. With
OpenBLAS 0.3.31 a product's bits depend on its operands' layouts, so these
choices fix the bits as much as the formulas do; the tests hold each
kernel to its formula bit for bit. The bits of ``P``, of its contractions
and of the last mode's MTTKRP were also found not to depend on the BLAS
thread count (1 or 2 OpenBLAS threads), which a test checks; the sums of
squares taken by ``np.dot`` still do (above 10,000 entries OpenBLAS splits
a dot product across threads).

A :class:`SparseTensor` holds a tensor as the coordinates of its nonzeros.
Every function here takes it where it takes a tensor; :func:`frobenius_norm`
and :func:`write_ntf1` read the coordinates alone, and the rest take the
tensor from :meth:`SparseTensor.dense`, the one place that forms it.

The private ``_coo_*`` kernels apply the same tree to a coordinate list of
a tensor's nonzeros and never touch its zeros. The list is the tensor as a
sparse matrix (see :func:`_coo_matrix`): its rows are the indices of one
pivot mode, its columns the cells of the other modes, ordered by row.
:func:`_coo_partial` scatters the partial ``P`` over the cells, and
:func:`_coo_gather` gathers the rows of the other factors' Khatri-Rao
product at the cells once for two sums: the pivot's MTTKRP, summed over
each row, and the residual and the model's energy at the nonzeros. They
take the nonzeros in chunks whose products fill about :data:`SLAB_BYTES`.
Every pass in the package that takes an array in pieces, here, in
:mod:`drbcd.factorization` and in :mod:`drbcd.datagen`, takes them from
:func:`_row_slabs`, so the slab size is decided here alone.

All functions are safe to call concurrently; they write to nothing but
their results and the scratch buffers the ``_coo_*`` kernels are given.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import reduce
from math import inf, isfinite, prod
from stat import S_ISREG

import numpy as np

__all__ = [
    "SparseTensor",
    "as_tensor",
    "frobenius_norm",
    "unfold",
    "khatri_rao",
    "mttkrp",
    "read_ntf1",
    "write_ntf1",
]

NTF1_MAGIC = b"NTF1"

# Every pass that takes an array in pieces takes them from :func:`_row_slabs`,
# of about this many bytes, so a piece and the products formed from it stay in
# a core's L2 cache: row blocks of ``x.reshape(-1, d_last)`` (the partial
# contraction here, the objective's residual in :mod:`drbcd.factorization`),
# chunks of nonzeros in the nonzero-only kernels, slabs of entries in the
# entry checks and the nonzero search, and chunks of draws in
# :mod:`drbcd.datagen`. Blocks of 128 KB to 1 MB measured equally fast on a
# host with 2 MB of L2 per core; 4 MB blocks, above that, took about 1.5x as
# long. The last mode's MTTKRP counts its slabs by the bytes of a product
# rather than of the tensor (see :func:`_last_mode_mttkrp`). Tests shrink
# the pieces by patching this constant alone.
SLAB_BYTES = 512 << 10


def as_tensor(data) -> np.ndarray:
    """Coerce ``data`` to a C-contiguous float64 array with finite entries."""
    x = np.ascontiguousarray(data, dtype=np.float64)
    if x.ndim == 0:
        raise ValueError("tensor must have at least one mode")
    _check_finite(x.reshape(-1))
    return x


def _check_finite(flat: np.ndarray) -> None:
    """Refuse a 1-D ``flat`` with a non-finite entry (see :func:`_checked_range`)."""
    if flat.size:
        with np.errstate(over="ignore"):  # in the square sum, which is not used here
            _checked_range(flat)


def _checked_range(flat: np.ndarray) -> tuple[float, float, float]:
    """The smallest and largest entry and the square sum of a nonempty 1-D
    ``flat``, once its entries are found finite.

    One pass over slabs of about :data:`SLAB_BYTES` (see :func:`_row_slabs`),
    each read for its minimum, its maximum and its square sum while it is in
    cache. ``min`` and ``max`` propagate NaN, so together they find every
    non-finite entry without a boolean temporary; the pass stops at the
    first slab holding one. The square sum adds the slabs' dot products, so
    its last bits may differ from those of one dot over the whole array.
    """
    lowest, highest, norm_sq = inf, -inf, 0.0
    for start, stop in _row_slabs(flat.shape[0], flat.itemsize):
        slab = flat[start:stop]
        low, high = float(slab.min()), float(slab.max())
        if not (isfinite(low) and isfinite(high)):
            raise ValueError("tensor entries must be finite (no NaN/Inf)")
        lowest, highest = min(lowest, low), max(highest, high)
        norm_sq += float(np.dot(slab, slab))
    return lowest, highest, norm_sq


def _read_only(x: np.ndarray) -> np.ndarray:
    """``x``, made read-only together with the array that owns its memory.

    What the package's producers return, so that
    :class:`drbcd.factorization.NtfProblem` shares the tensor instead of
    copying it.
    """
    if x.base is not None:
        x.base.flags.writeable = False
    x.flags.writeable = False
    return x


def _held_read_only(x: np.ndarray, data) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as a read-only array that nothing else can write, and the array owning its memory.

    ``x`` is ``data`` converted to the dtype and layout its reader needs. It
    is kept as it is when a conversion made it (the reader's own array), or
    when it is read-only and its memory belongs to a read-only ndarray:
    ``x`` itself, or its ``base`` when that owns its data. Anything else is
    copied: writeable input, a read-only view of a writeable array, or
    memory of a foreign buffer (``np.frombuffer``, ``np.memmap``), any of
    which could change under a reader that has checked or memoized it.
    """
    owner = x if x.flags.owndata else x.base
    converted = x is not data and owner is x
    shared = (
        not x.flags.writeable
        and isinstance(owner, np.ndarray)
        and owner.flags.owndata
        and not owner.flags.writeable
    )
    if not (converted or shared):
        x = owner = x.copy()
    x.flags.writeable = False
    return x, owner


@dataclass(frozen=True, eq=False)
class SparseTensor:
    """A tensor given by its nonzeros: its ``shape``, the ascending flat
    (row-major) ``positions`` of its nonzeros, and their ``values``.

    What :func:`drbcd.datagen.sparse_surrogate` returns and
    :attr:`drbcd.factorization.NtfProblem.data`
    returns for a problem that holds a coordinate list, and what
    :class:`~drbcd.factorization.NtfProblem` accepts as data beside a dense
    array, with the same result bit for bit as from :meth:`dense`. It is
    array-like: numpy converts it by :meth:`dense`, so every function that
    takes a tensor takes it, and :func:`frobenius_norm` and
    :func:`write_ntf1` read the coordinates without forming the tensor.
    ``positions`` and ``values`` are held read-only,
    as int64 and float64, under the rule of
    :class:`~drbcd.factorization.NtfProblem`'s dense data: an array that is
    read-only and owned by a read-only array is shared, any other is
    copied. Positions that are unsorted, repeated or outside the shape, and
    lists of unequal lengths, are refused here; the values are checked
    where they are read, as a dense tensor's entries are.
    """

    shape: tuple[int, ...]
    positions: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        shape = tuple(int(d) for d in self.shape)
        if not shape or min(shape) < 0:
            raise ValueError(f"sparse tensor shape must be nonnegative lengths, got {shape}")
        positions = np.asarray(self.positions)
        if positions.dtype.kind not in "iu":
            raise ValueError(f"sparse tensor positions must be integers, got dtype {positions.dtype}")
        positions = _held_read_only(np.ascontiguousarray(positions, dtype=np.int64), self.positions)[0]
        values = _held_read_only(np.ascontiguousarray(self.values, dtype=np.float64), self.values)[0]
        if positions.ndim != 1 or values.shape != positions.shape:
            raise ValueError(
                f"sparse tensor needs one value per position, got positions of shape "
                f"{positions.shape} and values of shape {values.shape}"
            )
        if positions.size and np.any(positions[1:] <= positions[:-1]):
            raise ValueError("sparse tensor positions must be strictly ascending (sorted, no repeats)")
        if positions.size and not (positions[0] >= 0 and positions[-1] < prod(shape)):
            raise ValueError(f"sparse tensor positions must lie in [0, {prod(shape)}) for shape {shape}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "values", values)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nbytes(self) -> int:
        """Bytes of the two lists."""
        return self.positions.nbytes + self.values.nbytes

    def dense(self) -> np.ndarray:
        """The tensor itself, read-only: ``+0.0`` wherever no value is listed."""
        out = np.zeros(self.shape)
        out.reshape(-1)[self.positions] = self.values
        return _read_only(out)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """:meth:`dense`, converted to ``dtype``; refuses ``copy=False``,
        since there is no tensor to share without forming one."""
        if copy is False:
            raise ValueError("a SparseTensor holds no tensor to share; it converts to one only by forming it")
        out = self.dense()
        return out if dtype is None else out.astype(dtype, copy=False)


def _dense_slabs(x: SparseTensor):
    """``(start, stop, slab)`` for the row slabs of the native view
    ``x.dense().reshape(-1, d_last)``, taken as :func:`_row_slabs` takes
    them, each filled from the coordinates into one reused buffer: zeros
    first, then the slab's nonzeros. A slab is valid until the next is
    asked for; no tensor is formed.
    """
    d_last = x.shape[-1]
    slabs = _row_slabs(prod(x.shape[:-1]), 8 * d_last)
    if not slabs:
        return
    bounds = np.searchsorted(x.positions, [start * d_last for start, _ in slabs] + [slabs[-1][1] * d_last])
    buffer = np.empty((slabs[0][1], d_last))  # the first slab is a longest one
    for (start, stop), low, high in zip(slabs, bounds[:-1], bounds[1:]):
        slab = buffer[: stop - start]
        slab.fill(0.0)
        slab.reshape(-1)[x.positions[low:high] - start * d_last] = x.values[low:high]
        yield start, stop, slab


def frobenius_norm(x) -> float:
    """Square root of the sum of squared entries.

    Of a :class:`SparseTensor`, from its values alone: no tensor is formed,
    and the result may differ from the dense tensor's in its last bit,
    since the zeros change how the sum is split.
    """
    if isinstance(x, SparseTensor):
        x = x.values
    return float(np.linalg.norm(np.asarray(x, dtype=np.float64).ravel()))


def unfold(x, mode: int) -> np.ndarray:
    """Mode-``mode`` matricization of ``x`` (0-based mode index).

    Row ``i`` collects all entries with the ``mode``-th index equal to ``i``;
    columns enumerate the remaining indices with the lowest-numbered mode
    varying fastest.
    """
    x = np.asarray(x, dtype=np.float64)
    if not 0 <= mode < x.ndim:
        raise ValueError(f"mode {mode} out of range for a {x.ndim}-mode tensor")
    return np.reshape(np.moveaxis(x, mode, 0), (x.shape[mode], -1), order="F")


def khatri_rao(a, b) -> np.ndarray:
    """Columnwise Kronecker product of ``a`` (d1 x r) and ``b`` (d2 x r).

    Column ``j`` of the result is ``kron(a[:, j], b[:, j])``, so the row
    multi-index is ``(i_a, i_b)`` with ``i_b`` varying fastest.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects 2-D matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"column counts differ: {a.shape[1]} vs {b.shape[1]}"
        )
    return (a[:, None, :] * b[None, :, :]).reshape(-1, a.shape[1])


def _khatri_rao_native(mats) -> np.ndarray:
    # Chain ordered so the factor for the highest mode varies fastest,
    # matching the row-major index of the modes it spans.
    return reduce(khatri_rao, mats)


def _khatri_rao_t(mats) -> np.ndarray:
    """``_khatri_rao_native(mats).T``, C-contiguous and formed in that layout.

    Its inner loops run over the factors' rows rather than over the rank,
    which makes it several times faster to form than the transpose of the
    native product, with the same entries bit for bit.
    """
    out = np.ascontiguousarray(mats[0].T)
    for m in mats[1:]:
        out = (out[:, :, None] * np.ascontiguousarray(m.T)[:, None, :]).reshape(out.shape[0], -1)
    return out


def _row_slabs(rows: int, row_bytes: int) -> list[tuple[int, int]]:
    """``(start, stop)`` ranges covering ``rows`` rows, about :data:`SLAB_BYTES` each.

    Every range holds at least one row, so a row larger than a slab is a
    slab of its own; the last range may be shorter than the others.
    """
    step = max(1, SLAB_BYTES // max(1, row_bytes))
    return [(start, min(start + step, rows)) for start in range(0, rows, step)]


def _last_mode_partial(x, u_last) -> np.ndarray:
    """Contract the last mode of ``x`` with ``u_last`` (d_last x r).

    Returns ``P`` of shape ``(r,) + x.shape[:-1]``, rank-major, with
    ``P[j, i_1, ..., i_{m-1}] = sum_t X[i_1, ..., i_{m-1}, t] U_last[t, j]``.
    Each row block ``Xr[s:e]`` of the native view ``Xr = x.reshape(-1,
    d_last)`` (see :func:`_row_slabs`) gives the columns ``s:e`` of the
    ``(r, rows)`` result, ``U_last.T @ Xr[s:e].T`` with ``U_last.T`` a
    contiguous copy. The objective's pass in :mod:`drbcd.factorization`
    forms ``P`` by the same products, so that the two give it the same bits.
    """
    x = np.asarray(x, dtype=np.float64)
    xr = x.reshape(-1, x.shape[-1])
    last_t = np.ascontiguousarray(np.asarray(u_last, dtype=np.float64).T)
    p = np.empty((last_t.shape[0], xr.shape[0]))
    for start, stop in _row_slabs(xr.shape[0], xr[:1].nbytes):
        np.matmul(last_t, xr[start:stop].T, out=p[:, start:stop])
    return p.reshape((last_t.shape[0],) + x.shape[:-1])


def _mttkrp_from_partial(partial, factors, mode: int) -> np.ndarray:
    """MTTKRP along ``mode`` (any mode but the last) from ``P``.

    ``partial`` is :func:`_last_mode_partial` of the tensor, rank-major;
    ``factors`` lists the leading factors, one per axis of ``partial`` after
    its first, and the entry at position ``mode`` is ignored. Each rank
    slice ``P[j]`` is contiguous: the axes after ``mode`` are contracted
    first, as one matrix-vector product of the slice with row ``j`` of the
    transposed Khatri-Rao product of their factors (see
    :func:`_khatri_rao_t`), then the axes before it the same way. Returned
    C-contiguous, except on a partial of one mode besides the rank, where
    nothing is contracted and the term is the transposed view ``P.T``.
    """
    rank, dims = partial.shape[0], partial.shape[1:]
    if len(dims) == 1:
        return partial.T
    t = partial.reshape(rank, prod(dims[: mode + 1]), -1)
    if mode + 1 < len(dims):
        t = _contract_rank_slices(t, _khatri_rao_t(factors[mode + 1 :]))
    if mode > 0:
        t = t.reshape(rank, -1, dims[mode]).transpose(0, 2, 1)
        t = _contract_rank_slices(t, _khatri_rao_t(factors[:mode]))
    return np.ascontiguousarray(t.reshape(rank, dims[mode]).T)


def _contract_rank_slices(t, kr_t) -> np.ndarray:
    """``out[j] = t[j] @ kr_t[j]`` for each rank ``j``, ``(r, rows)``: one
    matrix-vector product per rank slice, each slice contiguous in memory
    (a transposed view of a contiguous block counts)."""
    out = np.empty(t.shape[:2])
    for j in range(t.shape[0]):
        np.matmul(t[j], kr_t[j], out=out[j])
    return out


def _last_mode_mttkrp(x, factors) -> np.ndarray:
    """MTTKRP along the last mode of ``x``; ``factors`` lists the other modes'.

    Through mode 0: ``Y = U_0.T @ x.reshape(d_0, -1)``, with ``U_0.T`` a
    contiguous copy, is the tensor contracted with the first factor, rank
    by rank; each rank slice ``Y[j]``, viewed as ``(middle cells,
    d_last)``, is then contracted with row ``j`` of the transposed
    Khatri-Rao product of the middle factors (see :func:`_khatri_rao_t`).
    ``Y`` is formed and contracted over slabs of the middle cells from
    :func:`_row_slabs`, each slab's part of ``Y`` about :data:`SLAB_BYTES`
    in one reused buffer, and the slabs' terms are added in order. The
    first product has the short mode 0 as its inner dimension, where the
    one GEMM ``K.T @ x.reshape(-1, d_last)`` it replaces summed over every
    cell of the leading modes. At 100x200x300 rank 5, one BLAS thread, it
    took 5.9-6.6 ms against 7.8-7.9 ms (medians of 25 calls, three
    alternating runs). Unlike that GEMM's, its bits were the same on one
    and on two OpenBLAS threads at 90x500x100.

    The slabs are counted by ``Y``'s bytes, not the tensor's: slabs of
    about :data:`SLAB_BYTES` of the tensor are narrow (655 columns at
    100x200x300) and took about twice as long, 13 ms against 6 ms; the time
    halved between 1,500 and 2,600 columns, where OpenBLAS seems to leave
    its small-matrix path. Returned C-contiguous.
    """
    x = np.asarray(x, dtype=np.float64)
    d_last = x.shape[-1]
    xm = x.reshape(x.shape[0], -1)
    first_t = np.ascontiguousarray(np.asarray(factors[0], dtype=np.float64).T)
    rank = first_t.shape[0]
    # On two modes there are no middle factors: one middle cell, weight 1.
    kr_t = _khatri_rao_t(factors[1:]) if len(factors) > 1 else np.ones((rank, 1))
    slabs = _row_slabs(kr_t.shape[1], 8 * rank * d_last)
    y = np.empty((rank, slabs[0][1] * d_last))  # the first slab is a longest one
    out = np.zeros((rank, d_last))
    for start, stop in slabs:
        y_slab = y[:, : (stop - start) * d_last]
        np.matmul(first_t, xm[:, start * d_last : stop * d_last], out=y_slab)
        y_slab = y_slab.reshape(rank, stop - start, d_last).transpose(0, 2, 1)
        out += _contract_rank_slices(y_slab, kr_t[:, start:stop])
    return np.ascontiguousarray(out.T)


def _coo_matrix(positions, values, shape, pivot: int):
    """Entries of a tensor as a coordinate list of its matricization at ``pivot``.

    ``positions`` holds the row-major flat positions of the entries to list,
    ascending, in a tensor of ``shape``; ``values`` holds the entry at each
    position, or is the flattened tensor itself (the two agree when every
    entry is listed). The matrix's rows are the indices of mode ``pivot``;
    its columns are the cells of the other modes, a cell being one
    combination of their indices, numbered row-major (as the rows of
    :func:`_khatri_rao_native` of their factors are). Returns ``(rows,
    cols, values)`` ordered by ``rows``, stably, which is the order
    :func:`_coo_gather` needs. The rows are sorted as the smallest unsigned
    type that holds them, for which numpy's stable sort is a radix sort,
    about 10x faster than on ``intp``. The positions are put in that order
    first, the columns and values are formed from them in place, and the
    rows last, so that little more than the list itself is held at once.
    """
    length = shape[pivot]
    inner = prod(shape[pivot + 1 :])
    key = positions // inner
    key %= length
    key = key.astype(np.min_scalar_type(length - 1))
    order = np.argsort(key, kind="stable")
    index = positions[order]
    if values.shape[0] != positions.shape[0]:  # the flattened tensor
        order = index
    values = values[order]
    del order
    cols = index // (length * inner)
    cols *= inner
    index %= inner
    cols += index
    del index
    rows = np.repeat(np.arange(length), np.bincount(key, minlength=length))
    return rows, cols, values


def _coo_positions(rows, cols, shape, pivot: int) -> np.ndarray:
    """The row-major flat positions of the entries :func:`_coo_matrix` listed,
    in the list's order: its inverse. One more index array of the list's
    length is formed beside the result.
    """
    inner = prod(shape[pivot + 1 :])
    positions = cols // inner
    positions *= shape[pivot]
    positions += rows
    positions *= inner
    positions += cols % inner
    return positions


def _runs(idx) -> tuple[int, np.ndarray]:
    """``(first, bounds)`` for a sorted, nonempty index array ``idx``.

    Value ``first + k`` fills ``idx[bounds[k]:bounds[k + 1]]``, for every
    ``k`` from 0 to ``idx[-1] - first``; a binary search per value, not a
    pass over ``idx``.
    """
    first = int(idx[0])
    return first, np.searchsorted(idx, np.arange(first, int(idx[-1]) + 2))


def _rows_at(u_t, idx):
    """The rows of ``u_t[:, idx]`` for a sorted ``idx``, one at a time.

    Each is a repeat of its entries over the runs of ``idx``, formed when it
    is asked for. A chunk's product row takes ``1/r`` of
    :data:`SLAB_BYTES`, a fifth of it at rank 5: below the C allocator's
    default 128 KB threshold for mapping fresh pages, which the whole
    ``(r, n)`` product of a chunk is not, so that a sweep does not fault in
    new memory for it on every chunk.
    """
    first, bounds = _runs(idx)
    counts = np.diff(bounds)
    for row in u_t[:, first : first + counts.shape[0]]:
        yield np.repeat(row, counts)


def _coo_partial(rows, cols, values, u, cells: int) -> np.ndarray:
    """``(A.T @ u).T`` for the matrix ``A`` of a coordinate list, ``(r, cells)``.

    ``rows``, ``cols`` and ``values`` list the nonzeros of ``A`` (see
    :func:`_coo_matrix`) and ``u`` has one row per row of ``A``. The result
    is rank-major, the layout of the dense :func:`_last_mode_partial`. The
    nonzeros are taken in chunks whose products fill about
    :data:`SLAB_BYTES` (see :func:`_row_slabs`): each chunk's rows of ``u``
    (runs of the sorted rows, so a repeat rather than a gather), one rank
    column at a time, are scaled by the values and scattered into that
    row of the result at their columns. Returned C-contiguous.
    """
    rank = u.shape[1]
    u_t = np.ascontiguousarray(u.T)
    out = np.zeros((rank, cells))
    for start, stop in _row_slabs(values.shape[0], 8 * rank):
        for out_row, prod_row in zip(out, _rows_at(u_t, rows[start:stop])):
            prod_row *= values[start:stop]
            np.add.at(out_row, cols[start:stop], prod_row)
    return out


def _coo_gather(
    rows, cols, values, kr_t, scratch, num_rows: int | None = None, u=None
) -> tuple[np.ndarray | None, float, float]:
    """The pivot's MTTKRP and the residual at the nonzeros, from one gather.

    ``rows``, ``cols`` and ``values`` list the nonzeros of the matricization
    ``A`` of a tensor at its pivot (see :func:`_coo_matrix`), and ``kr_t``
    is the transposed Khatri-Rao product of the other modes' factors (see
    :func:`_khatri_rao_t`). Over the chunks of :func:`_coo_partial`, the
    columns of ``kr_t`` at the columns of ``A`` are gathered once, with
    ``np.take`` and ``mode="clip"`` (a no-op on indices in range), which
    lets the gather write straight into ``scratch``, a flat buffer of at
    least ``r`` doubles per nonzero of the longest chunk. The gather serves
    two sums, each optional:

    - with ``num_rows``, the pivot's MTTKRP ``A @ kr_t.T``, ``(num_rows,
      r)`` and C-contiguous: the gathered columns scaled by the values and
      summed over each run of equal ``rows`` with one ``np.add.reduceat``;
    - with the pivot's factor ``u``, the model ``u @ kr_t`` at the
      nonzeros, whose entry in row ``i`` and column ``c`` is the dot product
      of ``u[i]`` and ``kr_t[:, c]``, giving ``sum (x - m)^2`` and ``sum
      m^2`` over the nonzeros ``x`` and their model entries ``m``.

    Returns ``(mttkrp, residual, model)``, with ``None`` for a MTTKRP not
    asked for and zeros for sums not asked for.
    """
    rank = kr_t.shape[0]
    out_t = None if num_rows is None else np.zeros((rank, num_rows))
    u_t = None if u is None else np.ascontiguousarray(u.T)
    residual = model = 0.0
    for start, stop in _row_slabs(values.shape[0], 8 * rank):
        gathered = scratch[: rank * (stop - start)].reshape(rank, stop - start)
        np.take(kr_t, cols[start:stop], axis=1, out=gathered, mode="clip")
        if u_t is not None:
            # Summed one rank row at a time, in the order of a sum over the
            # rank axis of the whole product.
            prods = _rows_at(u_t, rows[start:stop])
            m = next(prods)
            m *= gathered[0]
            for prod_row, g in zip(prods, gathered[1:]):
                prod_row *= g
                m += prod_row
            model += float(np.dot(m, m))
            np.subtract(values[start:stop], m, out=m)
            residual += float(np.dot(m, m))
        if out_t is not None:
            gathered *= values[start:stop]
            first, bounds = _runs(rows[start:stop])
            runs = np.flatnonzero(np.diff(bounds))
            out_t[:, first + runs] += np.add.reduceat(gathered, bounds[runs], axis=1)
    return (None if out_t is None else np.ascontiguousarray(out_t.T)), residual, model


def mttkrp(x, factors, mode: int) -> np.ndarray:
    """Matricized-tensor times Khatri-Rao product along ``mode``.

    ``factors`` lists one matrix per mode of ``x``; the entry at position
    ``mode`` is ignored. Returns ``unfold(x, mode) @ K`` where ``K`` is the
    Khatri-Rao chain of the other factors in the unfold-compatible order,
    computed on the native layout without unfolding.
    """
    x = np.asarray(x, dtype=np.float64)
    if len(factors) != x.ndim:
        raise ValueError(f"expected {x.ndim} factors, got {len(factors)}")
    if not 0 <= mode < x.ndim:
        raise ValueError(f"mode {mode} out of range for a {x.ndim}-mode tensor")
    if x.ndim < 2:
        raise ValueError("mttkrp needs at least two modes")
    factors = list(factors)
    rank = None
    for j, f in enumerate(factors):
        if j == mode:
            continue
        factors[j] = f = np.asarray(f, dtype=np.float64)
        if f.ndim != 2 or f.shape[0] != x.shape[j]:
            raise ValueError(
                f"factor {j} has shape {f.shape}, expected ({x.shape[j]}, r)"
            )
        if rank is None:
            rank = f.shape[1]
        elif f.shape[1] != rank:
            raise ValueError("factors must share a common column count")
    if mode == x.ndim - 1:
        return _last_mode_mttkrp(x, factors[:-1])
    return _mttkrp_from_partial(_last_mode_partial(x, factors[-1]), factors[:-1], mode)


def write_ntf1(path, x) -> None:
    """Write ``x`` in the NTF1 binary format.

    Layout: magic ``NTF1``, uint32-LE mode count, one uint64-LE dimension per
    mode, then the float64-LE entries in row-major order. The entries of an
    array are written from its own buffer, without a copy (on a
    little-endian host); those of a :class:`SparseTensor` slab by slab from
    its coordinates (see :func:`_dense_slabs`), with the bytes of its
    :meth:`~SparseTensor.dense` tensor and no tensor formed.
    """
    if isinstance(x, SparseTensor):
        _check_finite(x.values)
        pieces = (slab for _, _, slab in _dense_slabs(x))
    else:
        x = as_tensor(x)
        pieces = (x,)
    with open(path, "wb") as fh:
        fh.write(NTF1_MAGIC)
        fh.write(struct.pack("<I", x.ndim))
        fh.write(struct.pack(f"<{x.ndim}Q", *x.shape))
        for piece in pieces:
            fh.write(piece.astype("<f8", copy=False))


def read_ntf1(path) -> np.ndarray:
    """Read a tensor written by :func:`write_ntf1`; the array is read-only.

    The entries are read straight into the array returned, without a second
    copy (on a little-endian host). The array is read-only, so that
    :class:`drbcd.factorization.NtfProblem` shares it instead of copying it;
    a caller who wants to modify it takes a ``.copy()``. A regular file too
    short for the entries its header claims is refused before the array is
    allocated; any other file, such as a pipe, is refused once its bytes run
    out.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != NTF1_MAGIC:
            raise ValueError(f"{path!s}: not an NTF1 file (bad magic {magic!r})")
        header = fh.read(4)
        if len(header) != 4:
            raise ValueError(f"{path!s}: truncated NTF1 header")
        (m,) = struct.unpack("<I", header)
        if m == 0:
            raise ValueError(f"{path!s}: NTF1 mode count must be positive")
        raw_dims = fh.read(8 * m)
        if len(raw_dims) != 8 * m:
            raise ValueError(f"{path!s}: truncated NTF1 dimension block")
        dims = struct.unpack(f"<{m}Q", raw_dims)
        if any(d == 0 for d in dims):
            raise ValueError(f"{path!s}: NTF1 dimensions must be positive")
        info = os.fstat(fh.fileno())
        if S_ISREG(info.st_mode) and info.st_size - fh.tell() < 8 * prod(dims):
            raise ValueError(f"{path!s}: truncated NTF1 payload")
        data = np.empty(dims, dtype="<f8")
        if fh.readinto(data) != data.nbytes:
            raise ValueError(f"{path!s}: truncated NTF1 payload")
        if fh.read(1):
            raise ValueError(f"{path!s}: trailing bytes after NTF1 payload")
    return _read_only(data.astype(np.float64, copy=False))
