import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from drbcd import tensors
from drbcd.datagen import SynthSpec, sparse_surrogate
from drbcd.factorization import NtfProblem
from drbcd.tensors import (
    SparseTensor,
    _coo_gather,
    _coo_matrix,
    _coo_partial,
    _coo_positions,
    _last_mode_mttkrp,
    _last_mode_partial,
    _mttkrp_from_partial,
    _row_slabs,
    as_tensor,
    frobenius_norm,
    khatri_rao,
    mttkrp,
    read_ntf1,
    unfold,
    write_ntf1,
)

from _oracles import cp_reconstruct, fold


# ---------------------------------------------------------------------------
# Brute-force oracles, written straight from the definitions.


def unfold_oracle(x, mode):
    """Entry-by-entry matricization: lowest-numbered mode varies fastest."""
    dims = x.shape
    others = [j for j in range(x.ndim) if j != mode]
    ncols = int(np.prod([dims[j] for j in others])) if others else 1
    out = np.zeros((dims[mode], ncols))
    for idx in np.ndindex(*dims):
        col, mult = 0, 1
        for j in others:
            col += idx[j] * mult
            mult *= dims[j]
        out[idx[mode], col] = x[idx]
    return out


def khatri_rao_oracle(a, b):
    d1, r = a.shape
    d2 = b.shape[0]
    out = np.zeros((d1 * d2, r))
    for j in range(r):
        for i1 in range(d1):
            for i2 in range(d2):
                out[i1 * d2 + i2, j] = a[i1, j] * b[i2, j]
    return out


def mttkrp_oracle(x, factors, mode):
    r = factors[(mode + 1) % x.ndim].shape[1]
    out = np.zeros((x.shape[mode], r))
    for idx in np.ndindex(*x.shape):
        for j in range(r):
            prod = 1.0
            for k in range(x.ndim):
                if k != mode:
                    prod *= factors[k][idx[k], j]
            out[idx[mode], j] += x[idx] * prod
    return out


def cp_oracle(factors, code):
    shape = tuple(f.shape[0] for f in factors) + (code.shape[1],)
    out = np.zeros(shape)
    r = code.shape[0]
    for idx in np.ndindex(*shape):
        total = 0.0
        for j in range(r):
            prod = code[j, idx[-1]]
            for k, f in enumerate(factors):
                prod *= f[idx[k], j]
            total += prod
        out[idx] = total
    return out


# ---------------------------------------------------------------------------
# frobenius_norm


def test_frobenius_zero():
    assert frobenius_norm(np.zeros((2, 2))) == 0.0


def test_frobenius_single_negative_entry():
    assert frobenius_norm(np.array([[-3.0]])) == 3.0


def test_frobenius_direct_sum():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert_allclose(frobenius_norm(x), math.sqrt(30.0), rtol=1e-15)


def test_frobenius_absolute_homogeneity():
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal((3, 4, 2))
        a = rng.standard_normal()
        assert_allclose(
            frobenius_norm(a * x), abs(a) * frobenius_norm(x), rtol=1e-12
        )


def surrogate(dims, seed=1):
    """The sparse surrogate's coordinates, at the benchmark's density and scale."""
    coords = sparse_surrogate(SynthSpec(dims=dims, rank=5, seed=seed, density=0.01, target_mean_abs=0.00067))
    assert isinstance(coords, SparseTensor)
    return coords


@pytest.mark.parametrize("seed", range(1, 11))
def test_frobenius_of_coordinates_reads_their_values(seed):
    # The zeros change how the sum splits, so the two may differ in the
    # last bit.
    coords = surrogate((30, 40, 50), seed)
    norm = frobenius_norm(coords)
    assert norm == float(np.linalg.norm(coords.values))
    assert_allclose(norm, frobenius_norm(coords.dense()), rtol=1e-14)


def test_frobenius_of_a_problems_coordinates_forms_no_tensor():
    # On the benchmark's 90x500x100 surrogate: at most the list's bytes,
    # for ``data``'s coordinates, where the tensor took 36 MB.
    problem = NtfProblem(surrogate((90, 500, 100)), 5)
    listed = sum(a.nbytes for a in problem._coo)
    tracemalloc.start()
    try:
        norm = frobenius_norm(problem.data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * listed and listed < 0.04 * 8 * math.prod(problem.shape)
    assert_allclose(norm, math.sqrt(problem._norm_sq), rtol=1e-14)


# ---------------------------------------------------------------------------
# coordinates where a tensor is taken


def test_coordinates_convert_to_their_read_only_tensor():
    coords = surrogate((30, 40, 50))
    assert coords.ndim == 3
    x = np.asarray(coords)
    assert x.tobytes() == coords.dense().tobytes() and x.shape == coords.shape
    assert not x.flags.writeable
    assert np.asarray(coords, dtype=np.float32).dtype == np.float32
    with pytest.raises(ValueError, match="no tensor to share"):
        np.asarray(coords, copy=False)


@pytest.mark.parametrize("convert", [np.array, lambda x: np.array(x, copy=True), np.copy])
def test_a_copy_of_coordinates_is_a_writeable_tensor(convert):
    coords = surrogate((30, 40, 50))
    x = convert(coords)
    assert x.tobytes() == coords.dense().tobytes() and x.flags.writeable
    x[0, 0, 0] = -1.0
    # The coordinates, and the read-only tensor that ``np.asarray`` gives,
    # do not see the write.
    shared = np.asarray(coords)
    assert not shared.flags.writeable and shared[0, 0, 0] >= 0.0


def test_every_public_function_takes_coordinates_as_their_tensor(tmp_path):
    coords = surrogate((30, 40, 50))
    x = coords.dense()
    assert as_tensor(coords).tobytes() == as_tensor(x).tobytes()
    assert_allclose(frobenius_norm(coords), frobenius_norm(x), rtol=1e-14)
    rng = np.random.default_rng(33)
    factors = [rng.random((d, 3)) for d in x.shape]
    for mode in range(x.ndim):
        assert unfold(coords, mode).tobytes() == unfold(x, mode).tobytes()
        assert mttkrp(coords, factors, mode).tobytes() == mttkrp(x, factors, mode).tobytes()
    write_ntf1(tmp_path / "coords.ntf1", coords)
    write_ntf1(tmp_path / "x.ntf1", x)
    assert (tmp_path / "coords.ntf1").read_bytes() == (tmp_path / "x.ntf1").read_bytes()


@pytest.mark.parametrize("slab_bytes", [8, 24, 200, 4000, None])
def test_ntf1_writes_coordinates_slab_by_slab_with_the_tensors_bytes(tmp_path, monkeypatch, slab_bytes):
    # A row of 5 entries is 40 bytes: slabs smaller than a row, of a few
    # rows with a ragged last slab, and the default. Listed zeros, -0.0
    # among them, keep their bits, as in the tensor.
    if slab_bytes is not None:
        monkeypatch.setattr(tensors, "SLAB_BYTES", slab_bytes)
    positions = np.array([0, 3, 7, 8, 21, 40, 58, 59])
    values = np.array([1.5, -0.0, 0.0, 2.5, 5e-324, 3.0, 4.0, 1e300])
    coords = SparseTensor((3, 4, 5), positions, values)
    write_ntf1(tmp_path / "coords.ntf1", coords)
    write_ntf1(tmp_path / "x.ntf1", coords.dense())
    raw = (tmp_path / "coords.ntf1").read_bytes()
    assert raw == (tmp_path / "x.ntf1").read_bytes()
    assert read_ntf1(tmp_path / "coords.ntf1").tobytes() == coords.dense().tobytes()
    write_ntf1(tmp_path / "empty.ntf1", SparseTensor((2, 3), np.array([], dtype=int), np.array([])))
    assert_array_equal(read_ntf1(tmp_path / "empty.ntf1"), np.zeros((2, 3)), strict=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ntf1_refuses_coordinates_with_a_non_finite_value(tmp_path, bad):
    path = tmp_path / "x.ntf1"
    with pytest.raises(ValueError, match="finite"):
        write_ntf1(path, SparseTensor((2, 3), np.array([1, 4]), np.array([1.0, bad])))
    assert not path.exists()


def test_ntf1_write_of_coordinates_holds_no_tensor(tmp_path):
    # One slab-sized buffer beside the coordinates, where the tensor is 36 MB.
    coords = surrogate((90, 500, 100))
    path = tmp_path / "x.ntf1"
    tracemalloc.start()
    try:
        write_ntf1(path, coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= tensors.SLAB_BYTES + 0.1 * coords.nbytes
    assert read_ntf1(path).tobytes() == coords.dense().tobytes()


# ---------------------------------------------------------------------------
# unfold / fold


def test_unfold_mode0_of_matrix_is_identity():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert_array_equal(unfold(x, 0), x)


def test_unfold_mode1_of_matrix_is_transpose():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert_array_equal(unfold(x, 1), x.T)


def test_unfold_matches_oracle_2x2x2():
    x = np.arange(1.0, 9.0).reshape(2, 2, 2)
    assert_array_equal(unfold(x, 1), unfold_oracle(x, 1))


@pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 3, 4), (2, 3, 2, 4)])
def test_unfold_matches_oracle_all_modes(shape):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(shape)
    for mode in range(len(shape)):
        assert_array_equal(unfold(x, mode), unfold_oracle(x, mode))


@pytest.mark.parametrize("shape", [(5,), (4, 3), (2, 3, 4), (2, 3, 2, 4)])
def test_fold_unfold_round_trip(shape):
    rng = np.random.default_rng(11)
    x = rng.standard_normal(shape)
    for mode in range(len(shape)):
        assert_array_equal(fold(unfold(x, mode), mode, shape), x)


def test_unfold_mode_out_of_range():
    with pytest.raises(ValueError, match="mode"):
        unfold(np.zeros((2, 2)), 2)
    with pytest.raises(ValueError, match="mode"):
        unfold(np.zeros((2, 2)), -1)


def test_fold_shape_mismatch():
    with pytest.raises(ValueError):
        fold(np.zeros((2, 5)), 0, (2, 2))


# ---------------------------------------------------------------------------
# khatri_rao


def test_khatri_rao_single_column():
    a = np.array([[1.0], [0.0]])
    b = np.array([[2.0], [3.0]])
    assert_array_equal(khatri_rao(a, b), np.array([[2.0], [3.0], [0.0], [0.0]]))


def test_khatri_rao_ones_row_is_identity():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((4, 3))
    a = np.ones((1, 3))
    assert_array_equal(khatri_rao(a, b), b)


def test_khatri_rao_matches_oracle():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 2))
    assert_allclose(khatri_rao(a, b), khatri_rao_oracle(a, b), rtol=1e-15)


def test_khatri_rao_column_mismatch():
    with pytest.raises(ValueError, match="column"):
        khatri_rao(np.zeros((2, 2)), np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# mttkrp


def test_mttkrp_zero_tensor():
    factors = [np.ones((2, 2)), np.ones((3, 2)), np.ones((4, 2))]
    out = mttkrp(np.zeros((2, 3, 4)), factors, 1)
    assert_array_equal(out, np.zeros((3, 2)))


def test_mttkrp_matrix_identity():
    # For x = A @ B.T exactly, the mode-0 MTTKRP is A @ (B.T @ B).
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 2))
    b = rng.standard_normal((5, 2))
    x = a @ b.T
    assert_allclose(mttkrp(x, [a, b], 0), a @ (b.T @ b), rtol=1e-12)


def test_mttkrp_matches_oracle():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((3, 4, 2))
    factors = [rng.standard_normal((d, 2)) for d in x.shape]
    for mode in range(3):
        assert_allclose(
            mttkrp(x, factors, mode), mttkrp_oracle(x, factors, mode), rtol=1e-12
        )


def unfold_chain_reference(x, factors, mode):
    """``unfold(x, mode)`` times the Khatri-Rao chain of the other factors."""
    others = [factors[j] for j in range(x.ndim) if j != mode]
    chain = others[-1]
    for f in reversed(others[:-1]):
        chain = khatri_rao(chain, f)
    return unfold(x, mode) @ chain


def test_mttkrp_equals_unfold_times_chain():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((2, 3, 4, 2))
    factors = [rng.standard_normal((d, 3)) for d in x.shape]
    for mode in range(4):
        expected = unfold_chain_reference(x, factors, mode)
        got = mttkrp(x, factors, mode)
        assert_allclose(got, expected, rtol=1e-12, atol=1e-14)


def test_mttkrp_dimension_mismatch():
    x = np.zeros((2, 3))
    with pytest.raises(ValueError):
        mttkrp(x, [np.zeros((2, 2)), np.zeros((4, 2))], 0)
    with pytest.raises(ValueError):
        mttkrp(x, [np.zeros((2, 2))], 0)


# ---------------------------------------------------------------------------
# row slabs of the native view X.reshape(-1, d_last)


def test_row_slabs_cover_every_row_once():
    assert _row_slabs(0, 48) == []
    for rows, row_bytes, slab in [(35, 48, 192), (7, 48, 48), (5, 48, 1), (3, 48, 1 << 20)]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensors, "SLAB_BYTES", slab)
            slabs = _row_slabs(rows, row_bytes)
        step = max(1, slab // row_bytes)
        assert [start for start, _ in slabs] == list(range(0, rows, step))
        assert slabs[-1][1] == rows
        assert all(0 < stop - start <= step for start, stop in slabs)


def slab_cases(x):
    """Slab sizes that give many slabs with a ragged last one, rows larger
    than a slab, and the default."""
    rows, row_bytes = x.size // x.shape[-1], x.shape[-1] * 8
    step = next(k for k in range(2, rows + 2) if rows % k)
    assert rows > step  # several slabs, the last one shorter
    return {"ragged": step * row_bytes, "row_exceeds_slab": row_bytes // 2, "default": tensors.SLAB_BYTES}


def check_last_mode_kernels(x, factors):
    m = x.ndim
    p = _last_mode_partial(x, factors[-1])
    assert p.shape == (factors[-1].shape[1],) + x.shape[:-1]
    assert_allclose(unfold(p, 0), factors[-1].T @ unfold(x, m - 1), rtol=1e-12, atol=1e-12)
    for mode in range(m - 1):
        got = _mttkrp_from_partial(p, factors[:-1], mode)
        # On two modes nothing is contracted: the term is a view of ``P``.
        assert np.shares_memory(got, p) if m == 2 else got.flags.c_contiguous
        assert_allclose(got, unfold_chain_reference(x, factors, mode), rtol=1e-12, atol=1e-12)
    expected_last = unfold_chain_reference(x, factors, m - 1)
    got_last = _last_mode_mttkrp(x, factors[:-1])
    assert got_last.flags.c_contiguous
    assert_allclose(got_last, expected_last, rtol=1e-12, atol=1e-12)
    for mode in range(m):
        assert_allclose(
            mttkrp(x, factors, mode), unfold_chain_reference(x, factors, mode), rtol=1e-12, atol=1e-12
        )


def mode_0_formula(x, factors):
    """The last mode's MTTKRP through mode 0: over slabs of the middle
    modes' cells from :func:`_row_slabs`, ``U_0.T`` times the slab's columns
    of ``x.reshape(d_0, -1)``, each rank slice of which is contracted with
    that row of the middle factors' transposed Khatri-Rao product (a weight
    of 1 on two modes) and added to the sum of the slabs before it."""
    d_last = x.shape[-1]
    xm = x.reshape(x.shape[0], -1)
    first_t = np.ascontiguousarray(factors[0].T)
    rank = first_t.shape[0]
    kr_t = tensors._khatri_rao_t(factors[1:]) if len(factors) > 1 else np.ones((rank, 1))
    out = np.zeros((rank, d_last))
    for s, e in _row_slabs(kr_t.shape[1], 8 * rank * d_last):
        y = first_t @ xm[:, s * d_last : e * d_last]
        out += np.stack([kr_t[j, s:e] @ y[j].reshape(e - s, d_last) for j in range(rank)])
    return out.T


# Shapes on which OpenBLAS rounds products differently by the operands'
# layouts (at ranks 2-5 on some of them), a mode of length 1, four modes,
# two modes, and the desk and paper shapes.
@pytest.mark.parametrize("shape, rank", [
    (shape, rank) for shape in [(7, 3, 9), (17, 1, 33), (30, 40, 50), (6, 8, 10, 12), (20, 25, 30), (40, 50)]
    for rank in range(1, 6)
] + [((100, 200, 300), 5)])
def test_last_mode_mttkrp_keeps_the_bits_of_the_mode_0_formula(shape, rank):
    rng = np.random.default_rng(rank)
    x = rng.random(shape)
    factors = [rng.random((d, rank)) for d in shape[:-1]]
    got = _last_mode_mttkrp(x, factors)
    assert got.flags.c_contiguous and got.tobytes() == np.ascontiguousarray(mode_0_formula(x, factors)).tobytes()


# The paper and surrogate shapes, one with a short leading mode, and four
# modes; 90x500x100 is where the one GEMM ``K.T @ x.reshape(-1, d_last)``
# rounded differently on two threads.
BLAS_THREAD_SHAPES = [(100, 200, 300), (90, 500, 100), (30, 40, 50), (6, 8, 10, 12)]

DENSE_KERNEL_DIGESTS = r"""
import hashlib
import numpy as np
from drbcd import tensors
for shape in SHAPES:
    rng = np.random.default_rng(len(shape))
    x = rng.random(shape)
    factors = [rng.random((d, 5)) for d in shape]
    p = tensors._last_mode_partial(x, factors[-1])
    terms = [p] + [tensors._mttkrp_from_partial(p, factors[:-1], mode) for mode in range(len(shape) - 1)]
    terms.append(tensors._last_mode_mttkrp(x, factors[:-1]))
    print(shape, [hashlib.sha256(np.ascontiguousarray(t)).hexdigest()[:16] for t in terms])
"""


def test_dense_kernels_bits_do_not_depend_on_the_blas_thread_count():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: OpenBLAS would run one thread at either setting, so the comparison shows nothing")
    src = str(Path(tensors.__file__).resolve().parents[1])
    script = DENSE_KERNEL_DIGESTS.replace("SHAPES", repr(BLAS_THREAD_SHAPES))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        outputs.append(proc.stdout.splitlines())
    assert len(outputs[0]) == len(BLAS_THREAD_SHAPES)
    assert outputs[0] == outputs[1]


# Their partials have 1, 2, 3 and 4 modes.
@pytest.mark.parametrize("shape", [(7, 6), (7, 5, 6), (3, 4, 7, 5), (3, 2, 4, 5, 3)])
@pytest.mark.parametrize("case", ["ragged", "row_exceeds_slab", "default"])
def test_slabbed_kernels_match_unfold_reference(monkeypatch, shape, case):
    rng = np.random.default_rng(31)
    x = rng.standard_normal(shape)
    factors = [rng.standard_normal((d, 3)) for d in shape]
    monkeypatch.setattr(tensors, "SLAB_BYTES", slab_cases(x)[case])
    check_last_mode_kernels(x, factors)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    shape=st.lists(st.integers(1, 6), min_size=2, max_size=4).map(tuple),
    rank=st.integers(1, 4),
    slab_bytes=st.integers(1, 2048),
    seed=st.integers(0, 2**32 - 1),
)
def test_slabbed_kernels_match_unfold_reference_property(shape, rank, slab_bytes, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    factors = [rng.standard_normal((d, rank)) for d in shape]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensors, "SLAB_BYTES", slab_bytes)
        check_last_mode_kernels(x, factors)


# ---------------------------------------------------------------------------
# nonzero-only kernels on a coordinate list


def coo_tensor(rows, cols, values, shape, pivot):
    """The dense tensor of a coordinate list of its matricization at ``pivot``."""
    others = shape[:pivot] + shape[pivot + 1 :]
    index = np.unravel_index(cols, others)
    out = np.zeros(shape)
    out[index[:pivot] + (rows,) + index[pivot:]] = values
    return out


@pytest.mark.parametrize("shape", [(7, 6), (7, 5, 6), (3, 4, 7, 5)])
@pytest.mark.parametrize("nonzeros_per_chunk", [1, 5, None])
def test_coo_kernels_match_oracles(monkeypatch, shape, nonzeros_per_chunk):
    # One nonzero a chunk, ragged chunks of five, and the default chunks;
    # every mode as the pivot.
    rng = np.random.default_rng(37)
    x = rng.standard_normal(shape) * (rng.random(shape) < 0.3)
    x[0] = 0.0  # an empty slice
    rank = 3
    factors = [rng.standard_normal((d, rank)) for d in shape]
    nonzero = np.flatnonzero(x)
    assert nonzero.size % 5
    if nonzeros_per_chunk is not None:
        monkeypatch.setattr(tensors, "SLAB_BYTES", 8 * rank * nonzeros_per_chunk)
    for pivot in range(len(shape)):
        rows, cols, values = _coo_matrix(nonzero, x.ravel()[nonzero], shape, pivot)
        assert np.all(np.diff(rows) >= 0)
        assert_array_equal(coo_tensor(rows, cols, values, shape, pivot), x)
        # The list's own inverse: each entry's flat position, in the list's
        # order; the -0.0 that the mask left come back as +0.0.
        positions = _coo_positions(rows, cols, shape, pivot)
        assert positions.dtype == np.int64
        assert_array_equal(np.sort(positions), nonzero)
        assert x.ravel()[positions].tobytes() == values.tobytes()
        order = np.argsort(positions)
        rebuilt = SparseTensor(shape, positions[order], values[order]).dense()
        assert_array_equal(rebuilt, x)
        assert np.signbit(x).any() and not np.signbit(rebuilt[x == 0.0]).any()
        others = factors[:pivot] + factors[pivot + 1 :]
        kr_t = tensors._khatri_rao_t(others)
        assert_array_equal(kr_t, tensors._khatri_rao_native(others).T)
        got, residual, at_nonzeros = _coo_gather(rows, cols, values, kr_t, num_rows=shape[pivot])
        assert got.flags.c_contiguous and residual == at_nonzeros == 0.0
        assert_allclose(got, mttkrp_oracle(x, factors, pivot), rtol=1e-12, atol=1e-12)
        # The partial: the tensor contracted with the pivot's factor, rank
        # by rank, over the other modes' cells in row-major order.
        partial = _coo_partial(rows, cols, values, factors[pivot], kr_t.shape[1])
        assert partial.flags.c_contiguous
        expected = np.tensordot(x, factors[pivot], axes=([pivot], [0])).reshape(-1, rank)
        assert_allclose(partial, expected.T, rtol=1e-12, atol=1e-12)
        model = cp_oracle(factors[:-1], factors[-1].T).ravel()[nonzero]
        # One gather for the residual, the model's energy at the nonzeros and
        # the pivot's MTTKRP, which has the bits of the MTTKRP alone.
        both, residual, at_nonzeros = _coo_gather(
            rows, cols, values, kr_t, num_rows=shape[pivot], u=factors[pivot]
        )
        assert_allclose(residual, np.sum((x.ravel()[nonzero] - model) ** 2), rtol=1e-12)
        assert_allclose(at_nonzeros, np.sum(model**2), rtol=1e-12)
        assert both.tobytes() == got.tobytes()


@pytest.mark.parametrize("shape", [(7, 6), (7, 5, 6), (3, 4, 7, 5)])
def test_coo_matrix_lists_every_position_it_is_given(shape):
    # Zeros too, when every position is listed.
    rng = np.random.default_rng(39)
    x = rng.random(shape) * (rng.random(shape) < 0.3)
    every = np.arange(x.size)
    for pivot in range(len(shape)):
        rows, cols, values = _coo_matrix(every, x.ravel()[every], shape, pivot)
        assert rows.size == x.size and np.all(np.diff(rows) >= 0)
        assert_array_equal(coo_tensor(rows, cols, values, shape, pivot), x)
        positions = _coo_positions(rows, cols, shape, pivot)
        assert_array_equal(np.sort(positions), every)
        assert x.ravel()[positions].tobytes() == values.tobytes()


def whole_chunk_kernels(rows, cols, values, u, kr_t, cells):
    """The rank-major partial and the sums at the nonzeros, from each
    chunk's whole ``(r, n)`` product of rows of ``u``, as one fancy index."""
    rank = u.shape[1]
    out_t = np.zeros((rank, cells))
    residual = model = 0.0
    for start, stop in tensors._row_slabs(values.shape[0], 8 * rank):
        prods = u.T[:, rows[start:stop]] * values[start:stop]
        for out_row, prod_row in zip(out_t, prods):
            np.add.at(out_row, cols[start:stop], prod_row)
        m = (u.T[:, rows[start:stop]] * kr_t[:, cols[start:stop]]).sum(axis=0)
        model += float(np.dot(m, m))
        m = values[start:stop] - m
        residual += float(np.dot(m, m))
    return out_t, residual, model


@pytest.mark.parametrize("nonzeros_per_chunk", [1, 5, None])
def test_coo_kernels_keep_the_bits_of_whole_chunk_products(monkeypatch, nonzeros_per_chunk):
    # The product rows are formed and summed one rank row at a time.
    rng = np.random.default_rng(38)
    shape, rank, pivot = (9, 40, 8), 4, 1
    x = rng.random(shape) * (rng.random(shape) < 0.2)
    factors = [rng.standard_normal((d, rank)) for d in shape]
    if nonzeros_per_chunk is not None:
        monkeypatch.setattr(tensors, "SLAB_BYTES", 8 * rank * nonzeros_per_chunk)
    nonzero = np.flatnonzero(x)
    rows, cols, values = _coo_matrix(nonzero, x.ravel()[nonzero], shape, pivot)
    kr_t = tensors._khatri_rao_t(factors[:pivot] + factors[pivot + 1 :])
    partial = _coo_partial(rows, cols, values, factors[pivot], kr_t.shape[1])
    _, residual, model = _coo_gather(rows, cols, values, kr_t, shape[pivot], u=factors[pivot])
    want = whole_chunk_kernels(rows, cols, values, factors[pivot], kr_t, kr_t.shape[1])
    assert partial.flags.c_contiguous and partial.tobytes() == want[0].tobytes()
    assert (residual, model) == want[1:]


# ---------------------------------------------------------------------------
# cp_reconstruct


def test_cp_rank1_outer_product():
    u1 = np.array([[1.0], [2.0]])
    u2 = np.array([[3.0], [4.0]])
    h = np.array([[1.0]])
    out = cp_reconstruct([u1, u2], h)
    assert out.shape == (2, 2, 1)
    assert_array_equal(out[..., 0], np.array([[3.0, 4.0], [6.0, 8.0]]))


def test_cp_zero_code_gives_zero_tensor():
    rng = np.random.default_rng(19)
    factors = [rng.random((3, 2)), rng.random((4, 2))]
    out = cp_reconstruct(factors, np.zeros((2, 5)))
    assert_array_equal(out, np.zeros((3, 4, 5)))
    assert frobenius_norm(out) == 0.0


def test_cp_matches_oracle():
    rng = np.random.default_rng(23)
    factors = [rng.random((3, 2)), rng.random((2, 2)), rng.random((4, 2))]
    code = rng.random((2, 3))
    assert_allclose(cp_reconstruct(factors, code), cp_oracle(factors, code), rtol=1e-12)


def test_cp_rank_mismatch():
    with pytest.raises(ValueError):
        cp_reconstruct([np.zeros((2, 2)), np.zeros((3, 3))], np.zeros((2, 1)))
    with pytest.raises(ValueError):
        cp_reconstruct([np.zeros((2, 2))], np.zeros((3, 1)))


# ---------------------------------------------------------------------------
# validation and NTF1 round trip


def test_as_tensor_rejects_non_finite_entries_only():
    with pytest.raises(ValueError, match="finite"):
        as_tensor(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="finite"):
        as_tensor(np.array([np.inf, 0.0]))
    assert_array_equal(as_tensor(np.array([-1.0, 0.0])), np.array([-1.0, 0.0]))
    assert_array_equal(as_tensor([[1, 2]]), np.array([[1.0, 2.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_as_tensor_rejects_non_finite_entries(bad):
    x = np.ones((3, 4))
    x[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        as_tensor(x)


def test_ntf1_round_trip(tmp_path):
    rng = np.random.default_rng(29)
    x = rng.random((3, 4, 2))
    path = tmp_path / "x.ntf1"
    write_ntf1(path, x)
    assert_array_equal(read_ntf1(path), x)


def test_ntf1_read_is_read_only_and_shared_by_a_problem(tmp_path):
    x = np.random.default_rng(30).random((3, 4, 2))
    write_ntf1(tmp_path / "x.ntf1", x)
    y = read_ntf1(tmp_path / "x.ntf1")
    owner = y if y.base is None else y.base
    assert not y.flags.writeable and not owner.flags.writeable
    assert NtfProblem(y, 2).data is y


def test_ntf1_header_layout(tmp_path):
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "x.ntf1"
    write_ntf1(path, x)
    raw = path.read_bytes()
    assert raw[:4] == b"NTF1"
    assert int.from_bytes(raw[4:8], "little") == 2
    assert int.from_bytes(raw[8:16], "little") == 2
    assert int.from_bytes(raw[16:24], "little") == 2
    assert np.frombuffer(raw[24:], dtype="<f8").tolist() == [1.0, 2.0, 3.0, 4.0]


def test_ntf1_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ntf1"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        read_ntf1(path)


def test_ntf1_rejects_truncation(tmp_path):
    x = np.ones((2, 2))
    path = tmp_path / "x.ntf1"
    write_ntf1(path, x)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_ntf1(path)


@pytest.mark.parametrize("cut", [8, 1, 7 * 8])
def test_ntf1_rejects_a_short_payload_at_any_cut(tmp_path, cut):
    x = np.arange(24.0).reshape(2, 3, 4)
    path = tmp_path / "x.ntf1"
    write_ntf1(path, x)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(ValueError, match="truncated NTF1 payload"):
        read_ntf1(path)


@pytest.mark.parametrize("extra", [b"\x00", b"\x00" * 8])
def test_ntf1_rejects_trailing_bytes(tmp_path, extra):
    path = tmp_path / "x.ntf1"
    write_ntf1(path, np.ones((2, 3)))
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(ValueError, match="trailing bytes"):
        read_ntf1(path)


def test_ntf1_refuses_a_header_larger_than_its_file(tmp_path):
    # A 40-byte file whose header claims 10^15 entries (7.1 PiB) is refused
    # from the file's size, before the array is allocated.
    path = tmp_path / "huge.ntf1"
    path.write_bytes(b"NTF1" + struct.pack("<I3Q", 3, 10**5, 10**5, 10**5) + bytes(8))
    assert path.stat().st_size == 40
    with pytest.raises(ValueError, match="truncated NTF1 payload"):
        read_ntf1(path)


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"NTF1\x03\x00", "truncated NTF1 header"),
        (b"NTF1" + struct.pack("<I", 0), "NTF1 mode count must be positive"),
        (b"NTF1" + struct.pack("<I2Q", 3, 2, 2), "truncated NTF1 dimension block"),
        (b"NTF1" + struct.pack("<I3Q", 3, 2, 0, 2), "NTF1 dimensions must be positive"),
    ],
)
def test_ntf1_refuses_a_malformed_header(tmp_path, raw, message):
    path = tmp_path / "x.ntf1"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=message):
        read_ntf1(path)


@pytest.mark.parametrize(
    "x", [np.zeros((0, 3)), SparseTensor((2, 0, 3), np.array([], dtype=int), np.array([]))]
)
def test_ntf1_write_refuses_a_zero_length_mode_before_opening_the_file(tmp_path, x):
    # What the reader would refuse is not written: no file is created, and
    # an existing one keeps its bytes.
    with pytest.raises(ValueError, match="NTF1 dimensions must be positive"):
        write_ntf1(tmp_path / "new.ntf1", x)
    assert not (tmp_path / "new.ntf1").exists()
    path = tmp_path / "old.ntf1"
    write_ntf1(path, np.ones((2, 3)))
    raw = path.read_bytes()
    with pytest.raises(ValueError, match="NTF1 dimensions must be positive"):
        write_ntf1(path, x)
    assert path.read_bytes() == raw


@pytest.mark.parametrize("cut, message", [(8, "truncated NTF1 payload"), (-1, "trailing bytes")])
def test_ntf1_checks_a_pipe_once_its_bytes_run_out(tmp_path, cut, message):
    # A pipe has no size to compare the header with: its payload is read and
    # then found short, or followed by more bytes.
    path = tmp_path / "x.ntf1"
    write_ntf1(path, np.ones((2, 3)))
    raw = path.read_bytes()
    raw = raw[:-cut] if cut > 0 else raw + bytes(-cut)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(raw,), daemon=True)
    writer.start()
    try:
        with pytest.raises(ValueError, match=message):
            read_ntf1(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_ntf1_round_trip_is_bit_identical(tmp_path):
    # Signed zeros, subnormals and the extremes of the range keep their bits,
    # in the file and back.
    rng = np.random.default_rng(31)
    x = rng.standard_normal((3, 4, 2, 5))
    x.flat[:6] = [-0.0, 0.0, 5e-324, -2.2e-308, 1.7976931348623157e308, -1.0]
    path = tmp_path / "x.ntf1"
    write_ntf1(path, x)
    assert path.read_bytes()[8 + 8 * x.ndim :] == x.astype("<f8").tobytes()
    y = read_ntf1(path)
    assert y.dtype == np.float64 and y.shape == x.shape and y.flags.c_contiguous
    assert y.tobytes() == x.tobytes()


def test_ntf1_io_holds_no_second_copy(tmp_path):
    # Reading fills the array returned; writing sends the array's own
    # buffer. Before, each held one more copy of the payload.
    x = np.random.default_rng(32).random((100, 100, 100))
    path = tmp_path / "x.ntf1"
    tracemalloc.start()
    try:
        write_ntf1(path, x)
        written = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        y = read_ntf1(path)
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written <= 0.1 * x.nbytes
    assert read <= 1.1 * x.nbytes
    assert_array_equal(y, x)
