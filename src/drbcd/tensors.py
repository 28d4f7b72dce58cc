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
formed by :func:`_row_pass` over row blocks of ``Xr`` of about
:data:`SLAB_BYTES` each, written into one preallocated result, so that each
block stays in cache while it is multiplied. The same pass sums the
objective's residual for :mod:`drbcd.factorization` from the same blocks,
so one function holds the formula of ``P``, whoever asks for it. Each rank
slice of ``P`` is contiguous and is
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
reads its values alone, :func:`write_ntf1` and :func:`_row_pass` take their
row slabs from :func:`_dense_slabs`, and the rest take the tensor from
:meth:`SparseTensor.dense`, the one place that forms it.

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
:func:`_row_slabs`, or, for the generators' blocks, from
:func:`_product_blocks`, so the piece sizes are decided here alone.

All functions are safe to call concurrently; they write to nothing but
their results and their own thread's scratch (see :func:`_scratch`). The
dense passes over row slabs (:func:`_row_pass` and
:func:`_last_mode_mttkrp`) and the three set-up passes (the entry check
:func:`_checked_range`, the product of
:func:`drbcd.datagen.synthetic_lowrank` and the pattern draws of
:func:`drbcd.datagen.sparse_surrogate`, both over their
:func:`_product_blocks`) share their pieces out among threads through
:func:`_slab_map`: the calling thread and, where the machine has a core to
spare beside BLAS's own threads, helper threads of one process-wide pool,
started by the first pass that splits. Each piece's products are the serial loop's, under the
caller's floating-point error settings, and the caller combines them in
order, so the bits do not depend on how the pieces were shared.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass
from functools import reduce
from math import inf, isfinite, prod
from pathlib import Path
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
# contraction and the objective's residual, see :func:`_row_pass`),
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
    non-finite entry without a boolean temporary. The slabs are shared
    among threads by :func:`_slab_map` and their triples combined in slab
    order, so the result has the serial loop's bits; no slab is taken after
    one holding a non-finite entry has raised, and the caller raises that
    error. Each slab runs under the caller's floating-point error settings
    (see :func:`_slab_map`). The square sum adds the slabs' dot products,
    so its last bits may differ from those of one dot over the whole array.
    """

    def slab_range(start: int, stop: int) -> tuple[float, float, float]:
        slab = flat[start:stop]
        low, high = float(slab.min()), float(slab.max())
        if not (isfinite(low) and isfinite(high)):
            raise ValueError("tensor entries must be finite (no NaN/Inf)")
        return low, high, float(np.dot(slab, slab))

    lowest, highest, norm_sq = inf, -inf, 0.0
    for low, high, sq in _slab_map(slab_range, _row_slabs(flat.shape[0], flat.itemsize)):
        lowest, highest = min(lowest, low), max(highest, high)
        norm_sq += sq
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
        since there is no tensor to share without forming one.

        Read-only, as :meth:`dense` is, unless ``copy`` is true: numpy 2
        passes ``copy=True`` for ``np.array(x)`` and trusts the result to be
        the caller's own, so the fresh tensor is handed over writeable.
        """
        if copy is False:
            raise ValueError("a SparseTensor holds no tensor to share; it converts to one only by forming it")
        out = self.dense()
        if dtype is not None:
            out = out.astype(dtype, copy=False)
        if copy:
            out.flags.writeable = True
        return out


def _dense_slabs(x):
    """``slab(start, stop)``: rows ``start:stop`` of ``x.reshape(-1, d_last)``,
    ``x`` an array or a :class:`SparseTensor`; the one place where a pass
    branches on the form. Of an array a slab is a view; of coordinates it is
    filled into the calling thread's scratch (see :func:`_scratch`), zeros
    first, then its nonzeros, valid until that thread's next; no tensor is formed.
    """
    d_last = x.shape[-1]
    if not isinstance(x, SparseTensor):
        xr = x.reshape(prod(x.shape[:-1]), d_last)
        return lambda start, stop: xr[start:stop]

    def slab(start: int, stop: int) -> np.ndarray:
        low, high = np.searchsorted(x.positions, [start * d_last, stop * d_last])
        out = _scratch("data", (stop - start, d_last))
        out.fill(0.0)
        out.reshape(-1)[x.positions[low:high] - start * d_last] = x.values[low:high]
        return out

    return slab


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


class _ThreadScratch(threading.local):
    """One thread's buffers for the slab and chunk bodies of the passes, by use."""

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}


_SCRATCH = _ThreadScratch()


def _scratch(use: str, shape: tuple[int, ...]) -> np.ndarray:
    """The calling thread's buffer for ``use``, as an uninitialized
    C-contiguous array of ``shape``, grown as needed; valid until the same
    thread asks for ``use`` again. A thread so holds one buffer per use,
    about :data:`SLAB_BYTES` each, however many problems and passes it runs:
    ``"residual"`` for :func:`_row_pass`, ``"data"`` for
    :func:`_dense_slabs`, ``"mode0"`` for :func:`_last_mode_mttkrp` and
    ``"chunk"`` for :func:`_coo_gather` and for the surrogate's pattern
    draws (:func:`drbcd.datagen._draws_below`).
    """
    size = prod(shape)
    buffers = _SCRATCH.buffers
    buffer = buffers.get(use)
    if buffer is None or buffer.size < size:
        buffer = buffers[use] = np.empty(size)
    return buffer[:size].reshape(shape)


# numpy 2 wheels bundle scipy-openblas; numpy 1 wheels bundled openblas64_.
_BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_")
_blas_query = ...  # the bundled OpenBLAS's thread-count getter, or None; looked up once


def _blas_threads() -> int | None:
    """The thread count of the OpenBLAS bundled with numpy, read now; ``None``
    when there is none or it has no getter."""
    global _blas_query
    if _blas_query is ...:
        import ctypes

        query = None
        for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            symbol = next((name for name in _BLAS_THREAD_QUERIES if hasattr(handle, name)), None)
            if symbol is not None:
                query = getattr(handle, symbol)
                query.restype, query.argtypes = ctypes.c_int, []
                break
        _blas_query = query
    return None if _blas_query is None else int(_blas_query())


def _pass_threads() -> tuple[int, int, int | None]:
    """``(threads, cores, blas)``: the threads a dense pass shares its slabs
    among, the cores this process may run on and BLAS's thread count.

    ``threads`` is ``cores // blas``, so that the pass's threads and BLAS's
    together use each core once, and 1, the serial loop, when BLAS's count
    is unknown. At numpy's default of one OpenBLAS thread per core it is 1.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    blas = _blas_threads()
    return (max(1, cores // blas) if blas else 1), cores, blas


# The fewest entries a block of the low-rank generator's product, or of the
# surrogate's pattern, holds when it splits (see :func:`_product_blocks`).
PRODUCT_BLOCK_ENTRIES = 1 << 20


def _product_blocks(rows: int, cols: int) -> list[tuple[int, int]]:
    """The row blocks of the low-rank generator's ``(rows, cols)`` product:
    one per thread of :func:`_pass_threads`, of ``rows * k //
    threads`` to ``rows * (k + 1) // threads``, when every block then holds
    at least 2 rows and :data:`PRODUCT_BLOCK_ENTRIES` entries; else the one
    block ``(0, rows)``, the whole product.

    Each block is multiplied on its own, so a block takes the GEMM kernel
    that its size selects. Blocks of one row take OpenBLAS's matrix-vector
    path, and blocks near its small-matrix bound its small kernel; both
    rounded some entries differently from the whole product (at 20x25x30
    split 10/10 and 3x4x5x6 split 2/1). Blocks that keep this rule matched
    the whole product bit for bit in 154 of 154 cases, with OpenBLAS
    0.3.31's Haswell kernels on one and on two threads: 9 shapes (100x200x300, 90x500x100, 500x90x100,
    300x200x100, 40x300x300, 50x400x600, 7x1000x1000, 4x512x1024 and
    4000x1000), ranks 1-8, in 2, 3 or 5 blocks wherever the rule let them
    split.

    The surrogate's pattern takes the same blocks of ``size // 4`` rows of
    4 draws (see :func:`drbcd.datagen._draws_below`), where any split keeps
    the bits.
    """
    threads = _pass_threads()[0]
    least = rows // threads
    if threads < 2 or least < 2 or least * cols < PRODUCT_BLOCK_ENTRIES:
        return [(0, rows)]
    return [(rows * k // threads, rows * (k + 1) // threads) for k in range(threads)]


_pool = None  # the helper threads' executor, made by the first pass that splits
_pool_lock = threading.Lock()  # guards the making of ``_pool``


def _slab_map(fn, ranges: list[tuple[int, int]]) -> list:
    """``[fn(start, stop) for start, stop in ranges]``, the slabs shared
    between the calling thread and idle helper threads.

    With at least two slabs and room for at least one helper (the threads
    :func:`_pass_threads` allows, less the calling thread), the helpers are
    tasks on one process-wide pool of ``cores - 1`` workers, the most any
    pass asks for; it is made by the first pass that splits and starts a
    thread only when a task finds none idle. Each thread claims the next
    unclaimed slab from a shared counter until none is left. The caller
    claims too, so it never waits on a pool that other passes keep busy:
    once the slabs run out it cancels every helper task that has not
    started and waits only for those running. No slab is claimed after one
    has raised, and the error is raised here. Otherwise, and wherever
    nothing would split, this is the serial loop, in the calling thread
    alone. Every slab runs under the caller's floating-point error settings,
    which each helper enters around its claims. ``fn`` writes its outputs
    only where no other slab's ``fn`` reads or writes.
    """
    threads, cores, _ = _pass_threads() if len(ranges) > 1 else (1, 1, None)
    helpers = min(threads - 1, len(ranges) - 1)
    if helpers < 1:
        return [fn(start, stop) for start, stop in ranges]
    results = [None] * len(ranges)
    claims = iter(range(len(ranges)))
    lock = threading.Lock()
    errors = np.geterr()

    def work() -> None:
        try:
            with np.errstate(**errors):
                while True:
                    with lock:
                        k = next(claims, None)
                    if k is None:
                        return
                    results[k] = fn(*ranges[k])
        except BaseException:
            with lock:
                for _ in claims:  # no slab is claimed after this one
                    pass
            raise

    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=cores - 1, thread_name_prefix="drbcd-slabs")
    futures = [_pool.submit(work) for _ in range(helpers)]
    try:
        work()
    finally:
        for future in futures:
            future.cancel()
        for future in futures:
            if not future.cancelled():
                future.result()
    return results


def _row_pass(x, u_last, kr=None, partial=None) -> float:
    """One pass over the row slabs of ``Xr = x.reshape(-1, d_last)``, ``x``
    an array or a :class:`SparseTensor`, with ``u_last`` (d_last x r).

    With ``kr``, the Khatri-Rao product of the leading factors, it returns
    the residual's square sum ``||Xr - kr @ U_last.T||^2``, else 0. With
    ``partial``, an ``(r, rows)`` array, it fills it with ``U_last.T @
    Xr.T``, the rank-major ``P`` of :func:`_last_mode_partial`. Slab
    ``[s:e]`` (see :func:`_row_slabs`) comes from :func:`_dense_slabs`,
    with the same bits from either form. Its residual ``Xr[s:e] - kr[s:e]
    @ U_last.T`` is formed in the ``"residual"`` scratch of the thread that
    takes the slab (see :func:`_scratch`) and summed with ``dot``; its
    columns of ``P`` are ``U_last.T @ Xr[s:e].T``. The slabs are shared
    among threads by :func:`_slab_map` and their sums added in slab order,
    so the total has the serial loop's bits. The objective of
    :class:`drbcd.factorization.NtfProblem` is this sum, not the cheaper
    expansion ``||X||^2 - 2<U, B> + <U^T U, G>``, which cancels to about
    ``eps ||X||^2`` near a good fit, as large as the descent checks' slack.

    Every product takes ``U_last.T`` as one contiguous copy. On a
    100x200x300 rank-5 tensor, one BLAS thread, the residual products alone
    took 2.5 ms against 4.1 ms a pass, and the whole pass with its partial
    12.1-14.3 ms against 16.4-16.8 ms with the transposed view and an
    ``(rows, r)`` partial (medians of 25 calls, three alternating runs).
    OpenBLAS rounds some entries differently by the layout, so the two
    forms differ in their last bits.
    """
    d_last = x.shape[-1]
    slab = _dense_slabs(x)
    last_t = np.ascontiguousarray(np.asarray(u_last, dtype=np.float64).T)

    def slab_sum(start: int, stop: int) -> float:
        x_slab = slab(start, stop)
        if kr is not None:
            residual = _scratch("residual", (stop - start, d_last))
            np.matmul(kr[start:stop], last_t, out=residual)
            np.subtract(x_slab, residual, out=residual)
        if partial is not None:
            np.matmul(last_t, x_slab.T, out=partial[:, start:stop])
        if kr is None:
            return 0.0
        flat = residual.ravel()
        return float(np.dot(flat, flat))

    total = 0.0
    for term in _slab_map(slab_sum, _row_slabs(prod(x.shape[:-1]), 8 * d_last)):
        total += term
    return total


def _last_mode_partial(x, u_last) -> np.ndarray:
    """Contract the last mode of ``x`` with ``u_last`` (d_last x r).

    Returns ``P`` of shape ``(r,) + x.shape[:-1]``, rank-major, with
    ``P[j, i_1, ..., i_{m-1}] = sum_t X[i_1, ..., i_{m-1}, t] U_last[t, j]``,
    formed by :func:`_row_pass`.
    """
    x = np.asarray(x, dtype=np.float64)
    u_last = np.asarray(u_last, dtype=np.float64)
    p = np.empty((u_last.shape[1], prod(x.shape[:-1])))
    _row_pass(x, u_last, partial=p)
    return p.reshape((u_last.shape[1],) + x.shape[:-1])


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
    Khatri-Rao product of the middle factors (see :func:`_khatri_rao_t`)
    after a row of ones, which keeps their bits and makes two modes one
    middle cell of weight 1. ``Y`` is formed and contracted over slabs of
    the middle cells from :func:`_row_slabs`, each slab's part of ``Y``
    about :data:`SLAB_BYTES` in its thread's scratch (see
    :func:`_scratch`); the slabs are shared among threads by
    :func:`_slab_map`, and their terms added in order. The first product
    has the short mode 0 as its inner dimension, where the one GEMM ``K.T
    @ x.reshape(-1, d_last)`` it replaces summed over every cell of the
    leading modes. At 100x200x300 rank 5, one BLAS thread, it
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
    kr_t = _khatri_rao_t([np.ones((1, rank)), *factors[1:]])

    def term(start: int, stop: int) -> np.ndarray:
        y = _scratch("mode0", (rank, (stop - start) * d_last))
        np.matmul(first_t, xm[:, start * d_last : stop * d_last], out=y)
        y = y.reshape(rank, stop - start, d_last).transpose(0, 2, 1)
        return _contract_rank_slices(y, kr_t[:, start:stop])

    out = np.zeros((rank, d_last))
    for t in _slab_map(term, _row_slabs(kr_t.shape[1], 8 * rank * d_last)):
        out += t
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


def _coo_gather(rows, cols, values, kr_t, num_rows: int, u=None) -> tuple[np.ndarray, float, float]:
    """The pivot's MTTKRP and the residual at the nonzeros, from one gather.

    ``rows``, ``cols`` and ``values`` list the nonzeros of the matricization
    ``A`` of a tensor at its pivot (see :func:`_coo_matrix`), and ``kr_t``
    is the transposed Khatri-Rao product of the other modes' factors (see
    :func:`_khatri_rao_t`). Over the chunks of :func:`_coo_partial`, the
    columns of ``kr_t`` at the columns of ``A`` are gathered once, with
    ``np.take`` and ``mode="clip"`` (a no-op on indices in range), which
    lets the gather write straight into the calling thread's ``(r, n)``
    scratch for a chunk of ``n`` nonzeros (see :func:`_scratch`). The
    gather serves, in this order:

    - with the pivot's factor ``u``, the model ``u @ kr_t`` at the
      nonzeros, whose entry in row ``i`` and column ``c`` is the dot product
      of ``u[i]`` and ``kr_t[:, c]``, giving ``sum (x - m)^2`` and ``sum
      m^2`` over the nonzeros ``x`` and their model entries ``m``;
    - the pivot's MTTKRP ``A @ kr_t.T``, ``(num_rows, r)`` and
      C-contiguous: the gathered columns scaled by the values and summed
      over each run of equal ``rows`` with one ``np.add.reduceat``.

    Returns ``(mttkrp, residual, model)``, with zero sums without ``u``.
    """
    rank = kr_t.shape[0]
    out_t = np.zeros((rank, num_rows))
    u_t = None if u is None else np.ascontiguousarray(u.T)
    residual = model = 0.0
    for start, stop in _row_slabs(values.shape[0], 8 * rank):
        gathered = _scratch("chunk", (rank, stop - start))
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
        gathered *= values[start:stop]
        first, bounds = _runs(rows[start:stop])
        runs = np.flatnonzero(np.diff(bounds))
        out_t[:, first + runs] += np.add.reduceat(gathered, bounds[runs], axis=1)
    return np.ascontiguousarray(out_t.T), residual, model


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
    mode, then the float64-LE entries in row-major order, written row slab
    by row slab (see :func:`_dense_slabs`): an array's from its own buffer,
    without a copy (on a little-endian host), a :class:`SparseTensor`'s
    from its coordinates, with the bytes of its
    :meth:`~SparseTensor.dense` tensor and no tensor formed. A zero-length
    mode is refused before ``path`` is opened.
    """
    if isinstance(x, SparseTensor):
        _check_finite(x.values)
    else:
        x = as_tensor(x)
    _check_ntf1_dims(path, x.shape)
    slab = _dense_slabs(x)
    with open(path, "wb") as fh:
        fh.write(NTF1_MAGIC)
        fh.write(struct.pack("<I", x.ndim))
        fh.write(struct.pack(f"<{x.ndim}Q", *x.shape))
        for start, stop in _row_slabs(prod(x.shape[:-1]), 8 * x.shape[-1]):
            fh.write(slab(start, stop).astype("<f8", copy=False))


def _check_ntf1_dims(path, dims) -> None:
    """Refuse a zero-length mode, which an NTF1 file cannot hold."""
    if 0 in dims:
        raise ValueError(f"{path!s}: NTF1 dimensions must be positive")


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
        _check_ntf1_dims(path, dims)
        info = os.fstat(fh.fileno())
        if S_ISREG(info.st_mode) and info.st_size - fh.tell() < 8 * prod(dims):
            raise ValueError(f"{path!s}: truncated NTF1 payload")
        data = np.empty(dims, dtype="<f8")
        if fh.readinto(data) != data.nbytes:
            raise ValueError(f"{path!s}: truncated NTF1 payload")
        if fh.read(1):
            raise ValueError(f"{path!s}: trailing bytes after NTF1 payload")
    return _read_only(data.astype(np.float64, copy=False))
