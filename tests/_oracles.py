"""Functions that only the tests use, as oracles for the package's kernels."""

import math
from math import prod

import numpy as np

from drbcd.tensors import _khatri_rao_native


def fold(mat, mode: int, shape) -> np.ndarray:
    """Inverse of :func:`drbcd.tensors.unfold`: ``fold(unfold(x, k), k, x.shape) == x``."""
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


def project_box(p, lower: float, upper: float) -> np.ndarray:
    """Entrywise clamp of ``p`` into ``[lower, upper]``."""
    if lower > upper:
        raise ValueError(f"empty box: lower {lower} > upper {upper}")
    return np.clip(np.asarray(p, dtype=np.float64), lower, upper)


def _locf_error_at(trace, t: float):
    """Last-observation-carried-forward reconstruction error at time ``t``."""
    value = None
    for rec in trace:
        if rec.elapsed_seconds <= t:
            value = math.sqrt(max(rec.objective, 0.0))
        else:
            break
    return value


def locf_aggregate(traces_by_algo, centers):
    """``(mean, std, n_runs)`` per algorithm at ``centers``, one scan of every
    trace per bin: the reference for :func:`drbcd.experiment.aggregate_runs`."""
    mean, std, n_runs = {}, {}, {}
    for label, traces in traces_by_algo.items():
        m = np.empty(len(centers))
        s = np.empty(len(centers))
        c = np.empty(len(centers), dtype=np.int64)
        for j, t in enumerate(centers):
            vals = [v for tr in traces if (v := _locf_error_at(tr, float(t))) is not None]
            if vals:
                arr = np.asarray(vals)
                m[j], s[j], c[j] = float(arr.mean()), float(arr.std()), len(vals)
            else:
                m[j], s[j], c[j] = math.nan, 0.0, 0
        mean[label], std[label], n_runs[label] = m, s, c
    return mean, std, n_runs
