"""Multilinear-algebra kernels, dense and on nonzeros, and the NTF1 file format.

Tensors and matrices are plain ``numpy.ndarray`` values in double precision,
stored row-major (C order). Mode-``k`` unfolding follows the convention where
the column index runs over the remaining modes with the *lowest*-numbered mode
varying fastest; ``fold`` is its exact inverse.

:func:`mttkrp` never unfolds: it works on the native layout, where for a
C-contiguous tensor ``Xr = x.reshape(-1, d_last)`` is a free view. The last
mode's MTTKRP is one GEMM, ``(K.T @ Xr).T`` with ``K`` the Khatri-Rao
product of the leading factors. Every earlier mode's MTTKRP contracts the
small partial product ``P = Xr @ U_last`` against the remaining factors, so
one pass over the tensor serves all of the modes before the last (a
two-level dimension tree). ``P`` is formed over row blocks of ``Xr`` of
about :data:`SLAB_BYTES` each, written into one preallocated result, so that
each block stays in cache while it is multiplied; a pass that reads the same
blocks for another purpose (the objective's residual in
:mod:`drbcd.factorization`) can form ``P`` on the way, with the same bits.
The contraction of ``P`` takes one batched matrix-vector product per rank
column (see :func:`_mttkrp_from_partial`).

The private ``_coo_*`` kernels apply the same tree to a coordinate list of
a tensor's nonzeros and never touch its zeros. The list is the tensor as a
sparse matrix (see :func:`_coo_matrix`): its rows are the indices of one
pivot mode, its columns the cells of the other modes, ordered by row.
:func:`_coo_partial` scatters the partial ``P`` over the cells, and
:func:`_coo_gather` gathers the rows of the other factors' Khatri-Rao
product at the cells once for two sums: the pivot's MTTKRP, summed over
each row, and the residual and the model's energy at the nonzeros. They
take the nonzeros in chunks whose products fill about :data:`SLAB_BYTES`.

All functions are safe to call concurrently; they write to nothing but
their results and the scratch buffers the ``_coo_*`` kernels are given.
"""

from __future__ import annotations

import struct
from functools import reduce
from math import isfinite, prod

import numpy as np

__all__ = [
    "as_tensor",
    "frobenius_norm",
    "unfold",
    "fold",
    "khatri_rao",
    "mttkrp",
    "cp_reconstruct",
    "read_ntf1",
    "write_ntf1",
]

NTF1_MAGIC = b"NTF1"

# Passes over a tensor that read ``x.reshape(-1, d_last)`` block by block (the
# partial contraction here, the objective's residual in
# :mod:`drbcd.factorization`) take row blocks of about this many bytes, so a
# block and the products formed from it stay in a core's L2 cache; the
# nonzero-only kernels take chunks of nonzeros of this size likewise. Blocks of
# 128 KB to 1 MB measured equally fast on a host with 2 MB of L2 per core;
# 4 MB blocks, above that, took about 1.5x as long.
SLAB_BYTES = 512 << 10


def as_tensor(data, nonneg: bool = False) -> np.ndarray:
    """Coerce ``data`` to a C-contiguous float64 array with finite entries.

    With ``nonneg=True`` additionally rejects negative entries, which is the
    requirement on factorization input data.
    """
    x = np.ascontiguousarray(data, dtype=np.float64)
    if x.ndim == 0:
        raise ValueError("tensor must have at least one mode")
    if x.size:
        # ``min`` and ``max`` propagate NaN, so together they find every
        # non-finite entry without a tensor-sized boolean temporary.
        lowest, highest = float(x.min()), float(x.max())
        if not (isfinite(lowest) and isfinite(highest)):
            raise ValueError("tensor entries must be finite (no NaN/Inf)")
        if nonneg and lowest < 0.0:
            raise ValueError("tensor entries must be nonnegative")
    return x


def frobenius_norm(x) -> float:
    """Square root of the sum of squared entries."""
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


def fold(mat, mode: int, shape) -> np.ndarray:
    """Inverse of :func:`unfold`: ``fold(unfold(x, k), k, x.shape) == x``."""
    shape = tuple(int(d) for d in shape)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    mat = np.asarray(mat, dtype=np.float64)
    rest = shape[:mode] + shape[mode + 1 :]
    if mat.shape != (shape[mode], prod(rest)):
        raise ValueError(
            f"matrix of shape {mat.shape} does not fold into {shape} along mode {mode}"
        )
    t = np.reshape(mat, (shape[mode],) + rest, order="F")
    return np.ascontiguousarray(np.moveaxis(t, 0, mode))


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

    Returns ``P`` of shape ``x.shape[:-1] + (r,)`` with
    ``P[i_1, ..., i_{m-1}, j] = sum_t X[i_1, ..., i_{m-1}, t] U_last[t, j]``.
    Row blocks of the native view ``x.reshape(-1, d_last)`` (see
    :func:`_row_slabs`) are multiplied into one preallocated ``P``.
    """
    x = np.asarray(x, dtype=np.float64)
    u_last = np.asarray(u_last, dtype=np.float64)
    xr = x.reshape(-1, x.shape[-1])
    p = np.empty((xr.shape[0], u_last.shape[1]))
    for start, stop in _row_slabs(xr.shape[0], xr[:1].nbytes):
        np.matmul(xr[start:stop], u_last, out=p[start:stop])
    return p.reshape(x.shape[:-1] + (u_last.shape[1],))


def _mttkrp_from_partial(partial, factors, mode: int) -> np.ndarray:
    """MTTKRP along ``mode`` (any mode but the last) from ``P``.

    ``partial`` is :func:`_last_mode_partial` of the tensor; ``factors`` lists
    the leading factors, one per axis of ``partial`` but its last, and the
    entry at position ``mode`` is ignored. The axes after ``mode`` are
    contracted first, then the axes before it, each rank column by one
    batched matrix-vector product on a rank-major view of ``partial``, with
    no broadcast temporaries. The views are strided by the rank, so (for a
    rank above 1 and no mode of length 1) numpy's own ``matmul`` loop runs
    rather than BLAS, and sums the products in index order, as a sum over
    the contracted axis does.
    """
    dims = partial.shape[:-1]
    rank = partial.shape[-1]
    left, right = prod(dims[:mode]), prod(dims[mode + 1 :])
    t = np.asarray(partial, dtype=np.float64).reshape(left, dims[mode], right, rank)
    if mode + 1 < len(dims):
        kr = _khatri_rao_native(factors[mode + 1 :])
        inner = np.empty((left, dims[mode], rank))
        for j in range(rank):
            np.matmul(t[..., j], kr[:, j], out=inner[..., j])
    else:
        inner = t[:, :, 0, :]
    if mode == 0:
        return inner[0]
    kr = _khatri_rao_native(factors[:mode])
    out = np.empty((dims[mode], rank))
    for j in range(rank):
        np.matmul(kr[:, j], inner[..., j], out=out[:, j])
    return out


def _last_mode_mttkrp(x, factors) -> np.ndarray:
    """MTTKRP along the last mode of ``x``; ``factors`` lists the other modes'.

    One GEMM, ``(K.T @ Xr).T``, of the Khatri-Rao product ``K`` of the
    leading factors (its row index has the last of them varying fastest, as
    the native layout does) with the native view ``Xr = x.reshape(-1,
    d_last)``; OpenBLAS runs this form about twice as fast as the equal
    ``Xr.T @ K``. Returned C-contiguous, as that form was, so that later
    reductions over the term add in the same order.
    """
    x = np.asarray(x, dtype=np.float64)
    kr_t = _khatri_rao_native(factors).T
    return np.ascontiguousarray((kr_t @ x.reshape(-1, x.shape[-1])).T)


def _coo_matrix(flat_index, values, shape, pivot: int):
    """Entries of a tensor as a coordinate list of its matricization at ``pivot``.

    ``flat_index`` holds the row-major positions of the entries in a tensor
    of ``shape`` and ``values`` the entries. The matrix's rows are the
    indices of mode ``pivot``; its columns are the cells of the other modes,
    a cell being one combination of their indices, numbered row-major (as
    the rows of :func:`_khatri_rao_native` of their factors are). Returns
    ``(rows, cols, values)`` ordered by ``rows``, stably, which is the order
    :func:`_coo_gather` needs. The rows are sorted as the smallest unsigned
    type that holds them, for which numpy's stable sort is a radix sort,
    about 10x faster than on ``intp``.
    """
    inner = prod(shape[pivot + 1 :])
    outer, within = np.divmod(flat_index, inner)
    before, rows = np.divmod(outer, shape[pivot])
    cols = before * inner + within
    order = np.argsort(rows.astype(np.min_scalar_type(shape[pivot] - 1)), kind="stable")
    return rows[order], cols[order], values[order]


def _runs(idx) -> tuple[int, np.ndarray]:
    """``(first, bounds)`` for a sorted, nonempty index array ``idx``.

    Value ``first + k`` fills ``idx[bounds[k]:bounds[k + 1]]``, for every
    ``k`` from 0 to ``idx[-1] - first``; a binary search per value, not a
    pass over ``idx``.
    """
    first = int(idx[0])
    return first, np.searchsorted(idx, np.arange(first, int(idx[-1]) + 2))


def _rows_at(u_t, idx) -> np.ndarray:
    """``u_t[:, idx]`` for a sorted ``idx``: each column repeated over its run."""
    first, bounds = _runs(idx)
    return np.repeat(u_t[:, first : first + bounds.shape[0] - 1], np.diff(bounds), axis=1)


def _coo_partial(rows, cols, values, u, cells: int) -> np.ndarray:
    """``A.T @ u`` for the matrix ``A`` of a coordinate list, ``(cells, r)``.

    ``rows``, ``cols`` and ``values`` list the nonzeros of ``A`` (see
    :func:`_coo_matrix`) and ``u`` has one row per row of ``A``. The
    nonzeros are taken in chunks whose products fill about
    :data:`SLAB_BYTES` (see :func:`_row_slabs`): each chunk's rows of ``u``
    (runs of the sorted rows, so a repeat rather than a gather) are scaled
    by the values and scattered into their columns' rows of the result.
    Returned C-contiguous.
    """
    rank = u.shape[1]
    u_t = np.ascontiguousarray(u.T)
    out_t = np.zeros((rank, cells))
    for start, stop in _row_slabs(values.shape[0], 8 * rank):
        prods = _rows_at(u_t, rows[start:stop])
        prods *= values[start:stop]
        for out_row, prod_row in zip(out_t, prods):
            np.add.at(out_row, cols[start:stop], prod_row)
    return np.ascontiguousarray(out_t.T)


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
            prods = _rows_at(u_t, rows[start:stop])
            prods *= gathered
            m = prods.sum(axis=0)
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


def cp_reconstruct(factors, code) -> np.ndarray:
    """Assemble the rank-``r`` model tensor from loading matrices and a code.

    Entry ``(i_1, ..., i_m, t)`` is ``sum_j U1[i_1,j] * ... * Um[i_m,j] * H[j,t]``
    for loading matrices ``U1..Um`` and code ``H`` (r x T). The result has the
    trailing observation axis of length ``T``; with ``T = 1`` and an all-ones
    code this is the plain CP sum of rank-1 outer products.
    """
    factors = [np.asarray(f, dtype=np.float64) for f in factors]
    code = np.asarray(code, dtype=np.float64)
    if not factors:
        raise ValueError("need at least one loading matrix")
    if code.ndim != 2:
        raise ValueError("code must be a 2-D (r x T) matrix")
    rank = factors[0].shape[1]
    for j, f in enumerate(factors):
        if f.ndim != 2 or f.shape[1] != rank:
            raise ValueError(f"loading matrix {j} does not have {rank} columns")
    if code.shape[0] != rank:
        raise ValueError(
            f"code has {code.shape[0]} rows, expected rank {rank}"
        )
    shape = tuple(f.shape[0] for f in factors) + (code.shape[1],)
    chain = _khatri_rao_native(factors[1:] + [code.T])
    return (factors[0] @ chain.T).reshape(shape)


def write_ntf1(path, x) -> None:
    """Write ``x`` in the NTF1 binary format.

    Layout: magic ``NTF1``, uint32-LE mode count, one uint64-LE dimension per
    mode, then the float64-LE entries in row-major order.
    """
    x = as_tensor(x)
    with open(path, "wb") as fh:
        fh.write(NTF1_MAGIC)
        fh.write(struct.pack("<I", x.ndim))
        fh.write(struct.pack(f"<{x.ndim}Q", *x.shape))
        fh.write(x.astype("<f8", copy=False).tobytes(order="C"))


def read_ntf1(path) -> np.ndarray:
    """Read a tensor written by :func:`write_ntf1`."""
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
        count = prod(dims)
        raw = fh.read(8 * count)
        if len(raw) != 8 * count:
            raise ValueError(f"{path!s}: truncated NTF1 payload")
        if fh.read(1):
            raise ValueError(f"{path!s}: trailing bytes after NTF1 payload")
    data = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return data.reshape(dims)
