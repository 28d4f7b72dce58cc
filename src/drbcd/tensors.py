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
each block stays in cache while it is multiplied.

The private ``_coo_*`` kernels work on a coordinate list of a tensor's
nonzeros (one index array per mode, plus the values) and never touch its
zeros: the MTTKRP gathers the other factors' rows at the nonzeros, scales
their products by the values and sums them into the rows of the result,
and :func:`_coo_residual` gives the residual and the model's energy at the
nonzeros. They take the nonzeros in chunks whose products fill about
:data:`SLAB_BYTES`.

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
    contracted first, then the axes before it.
    """
    dims = partial.shape[:-1]
    rank = partial.shape[-1]
    left, right = prod(dims[:mode]), prod(dims[mode + 1 :])
    t = np.asarray(partial, dtype=np.float64).reshape(left, dims[mode], right, rank)
    if mode + 1 < len(dims):
        t = (t * _khatri_rao_native(factors[mode + 1 :])).sum(axis=2)
    else:
        t = t[:, :, 0, :]
    if mode > 0:
        return (t * _khatri_rao_native(factors[:mode])[:, None, :]).sum(axis=0)
    return t[0]


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


def _coo_products(coords, factors_t, skip, start: int, stop: int, scratch) -> np.ndarray:
    """Row products of the factors at nonzeros ``start:stop``, transposed.

    ``coords`` holds one index array per mode of a coordinate list and
    ``factors_t`` the C-contiguous transpose, ``(r, d_k)``, of every mode's
    factor; the mode ``skip`` (``None`` for none) is left out. Returns the
    ``(r, stop - start)`` array whose column ``n`` is the entrywise product
    of row ``coords[k][start + n]`` of every other factor ``k``, written
    into the front of ``scratch``, a flat buffer of at least
    ``2 r (stop - start)`` doubles. Gathering with ``np.take`` along the
    rows of the transposed factors is 2-3x faster than indexing the
    factors' rows; ``mode="clip"``, a no-op on indices in range, lets it
    write straight into the scratch, which the default mode would buffer.
    """
    rank, count = factors_t[0].shape[0], stop - start
    out = scratch[: rank * count].reshape(rank, count)
    tmp = scratch[rank * count : 2 * rank * count].reshape(rank, count)
    first = True
    for k, (idx, f_t) in enumerate(zip(coords, factors_t)):
        if k == skip:
            continue
        np.take(f_t, idx[start:stop], axis=1, out=out if first else tmp, mode="clip")
        if not first:
            out *= tmp
        first = False
    return out


def _coo_by_mode(coords, values, mode: int):
    """A coordinate list reordered so that ``coords[mode]`` is sorted, stably.

    This is the order :func:`_coo_mttkrp` needs for ``mode``. The indices are
    sorted as the smallest unsigned type that holds them, for which numpy's
    stable sort is a radix sort, about 10x faster than on ``intp``.
    """
    key = coords[mode]
    order = np.argsort(key.astype(np.min_scalar_type(int(key.max(initial=0)))), kind="stable")
    return tuple(c[order] for c in coords), values[order]


def _coo_mttkrp(coords, values, factors, mode: int, scratch) -> np.ndarray:
    """MTTKRP along ``mode`` of the tensor given by a coordinate list.

    ``coords`` and ``values`` list the nonzeros (one index array per mode,
    then the entries), ordered so that ``coords[mode]`` is sorted (see
    :func:`_coo_by_mode`); ``factors`` lists one matrix per mode, and the
    entry at position ``mode`` gives only the result's shape. The nonzeros
    are taken in chunks whose row products fill about :data:`SLAB_BYTES`
    (see :func:`_row_slabs` and :func:`_coo_products`); each chunk's
    products, scaled by the values, are summed over each run of equal
    ``coords[mode]`` with one ``np.add.reduceat`` and added to those rows
    of the result. ``scratch`` is a flat buffer of at least ``2 r`` doubles
    per nonzero of the longest chunk. Returned C-contiguous, ``(d_mode, r)``.
    """
    rows, rank = factors[mode].shape
    factors_t = [np.ascontiguousarray(f.T) for f in factors]
    out_t = np.zeros((rank, rows))
    for start, stop in _row_slabs(values.shape[0], 8 * rank):
        prods = _coo_products(coords, factors_t, mode, start, stop, scratch)
        prods *= values[start:stop]
        idx = coords[mode][start:stop]
        firsts = np.flatnonzero(np.diff(idx, prepend=-1))
        # Each row occurs once in idx[firsts], so the indexed add adds every run.
        out_t[:, idx[firsts]] += np.add.reduceat(prods, firsts, axis=1)
    return np.ascontiguousarray(out_t.T)


def _coo_residual(coords, values, factors, scratch) -> tuple[float, float]:
    """Squared residual and squared model at the nonzeros of a coordinate list.

    With ``m`` the CP model of ``factors`` (one matrix per mode) at each
    nonzero, returns ``(sum (x - m)^2, sum m^2)`` over the nonzeros ``x``,
    formed over the chunks of :func:`_coo_mttkrp` in the same ``scratch``.
    """
    rank = factors[0].shape[1]
    factors_t = [np.ascontiguousarray(f.T) for f in factors]
    residual = model = 0.0
    for start, stop in _row_slabs(values.shape[0], 8 * rank):
        prods = _coo_products(coords, factors_t, None, start, stop, scratch)
        m = prods.sum(axis=0)
        model += float(np.dot(m, m))
        np.subtract(values[start:stop], m, out=m)
        residual += float(np.dot(m, m))
    return residual, model


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
