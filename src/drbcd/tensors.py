"""Dense multilinear-algebra kernels and the NTF1 tensor file format.

Tensors and matrices are plain ``numpy.ndarray`` values in double precision,
stored row-major (C order). Mode-``k`` unfolding follows the convention where
the column index runs over the remaining modes with the *lowest*-numbered mode
varying fastest; ``fold`` is its exact inverse.

:func:`mttkrp` never unfolds: it works on the native layout, where for a
C-contiguous tensor ``x.reshape(-1, d_last)`` is a free view. The last mode's
MTTKRP is one GEMM on that view's transpose. Every earlier mode's MTTKRP
contracts the small partial product ``X.reshape(-1, d_last) @ U_last``
against the remaining factors, so one pass over the tensor serves all of the
modes before the last (a two-level dimension tree).

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import struct
from functools import reduce
from math import prod

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


def as_tensor(data, nonneg: bool = False) -> np.ndarray:
    """Coerce ``data`` to a C-contiguous float64 array with finite entries.

    With ``nonneg=True`` additionally rejects negative entries, which is the
    requirement on factorization input data.
    """
    x = np.ascontiguousarray(data, dtype=np.float64)
    if x.ndim == 0:
        raise ValueError("tensor must have at least one mode")
    if not np.isfinite(x).all():
        raise ValueError("tensor entries must be finite (no NaN/Inf)")
    if nonneg and x.size and float(x.min()) < 0.0:
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


def _last_mode_partial(x, u_last) -> np.ndarray:
    """Contract the last mode of ``x`` with ``u_last`` (d_last x r).

    Returns ``P`` of shape ``x.shape[:-1] + (r,)`` with
    ``P[i_1, ..., i_{m-1}, j] = sum_t X[i_1, ..., i_{m-1}, t] U_last[t, j]``,
    computed as one GEMM on the native layout.
    """
    x = np.asarray(x, dtype=np.float64)
    u_last = np.asarray(u_last, dtype=np.float64)
    p = x.reshape(-1, x.shape[-1]) @ u_last
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

    One GEMM of ``x.reshape(-1, d_last).T`` with the Khatri-Rao product of
    the leading factors, whose row index has the last of them varying
    fastest, as the native layout does.
    """
    x = np.asarray(x, dtype=np.float64)
    return x.reshape(-1, x.shape[-1]).T @ _khatri_rao_native(factors)


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
