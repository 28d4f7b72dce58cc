import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from drbcd import tensors
from drbcd.tensors import (
    _coo_gather,
    _coo_matrix,
    _coo_partial,
    _last_mode_mttkrp,
    _last_mode_partial,
    _mttkrp_from_partial,
    _row_slabs,
    as_tensor,
    cp_reconstruct,
    fold,
    frobenius_norm,
    khatri_rao,
    mttkrp,
    read_ntf1,
    unfold,
    write_ntf1,
)


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
    assert p.shape == x.shape[:-1] + (factors[-1].shape[1],)
    assert_allclose(unfold(p, m - 1), factors[-1].T @ unfold(x, m - 1), rtol=1e-12, atol=1e-12)
    for mode in range(m - 1):
        got = _mttkrp_from_partial(p, factors[:-1], mode)
        assert got.flags.c_contiguous
        assert_allclose(got, unfold_chain_reference(x, factors, mode), rtol=1e-12, atol=1e-12)
    expected_last = unfold_chain_reference(x, factors, m - 1)
    got_last = _last_mode_mttkrp(x, factors[:-1])
    assert got_last.flags.c_contiguous
    assert_allclose(got_last, expected_last, rtol=1e-12, atol=1e-12)
    for mode in range(m):
        assert_allclose(
            mttkrp(x, factors, mode), unfold_chain_reference(x, factors, mode), rtol=1e-12, atol=1e-12
        )


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
    scratch = np.empty(rank * nonzero.size)
    for pivot in range(len(shape)):
        rows, cols, values = _coo_matrix(nonzero, x.ravel()[nonzero], shape, pivot)
        assert np.all(np.diff(rows) >= 0)
        assert_array_equal(coo_tensor(rows, cols, values, shape, pivot), x)
        others = factors[:pivot] + factors[pivot + 1 :]
        kr_t = tensors._khatri_rao_t(others)
        assert_array_equal(kr_t, tensors._khatri_rao_native(others).T)
        got, residual, at_nonzeros = _coo_gather(rows, cols, values, kr_t, scratch, num_rows=shape[pivot])
        assert got.flags.c_contiguous and residual == at_nonzeros == 0.0
        assert_allclose(got, mttkrp_oracle(x, factors, pivot), rtol=1e-12, atol=1e-12)
        # The partial: the tensor contracted with the pivot's factor, over the
        # other modes' cells in row-major order.
        partial = _coo_partial(rows, cols, values, factors[pivot], kr_t.shape[1])
        assert partial.flags.c_contiguous
        expected = np.tensordot(x, factors[pivot], axes=([pivot], [0])).reshape(-1, rank)
        assert_allclose(partial, expected, rtol=1e-12, atol=1e-12)
        model = cp_oracle(factors[:-1], factors[-1].T).ravel()[nonzero]
        # One gather for the residual, the model's energy at the nonzeros and
        # the pivot's MTTKRP, which has the bits of the MTTKRP alone.
        both, residual, at_nonzeros = _coo_gather(
            rows, cols, values, kr_t, scratch, num_rows=shape[pivot], u=factors[pivot]
        )
        assert_allclose(residual, np.sum((x.ravel()[nonzero] - model) ** 2), rtol=1e-12)
        assert_allclose(at_nonzeros, np.sum(model**2), rtol=1e-12)
        assert both.tobytes() == got.tobytes()
        alone, *sums = _coo_gather(rows, cols, values, kr_t, scratch, u=factors[pivot])
        assert alone is None and sums == [residual, at_nonzeros]


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


def test_as_tensor_rejects_nan_and_negative():
    with pytest.raises(ValueError, match="finite"):
        as_tensor(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="finite"):
        as_tensor(np.array([np.inf, 0.0]))
    with pytest.raises(ValueError, match="nonnegative"):
        as_tensor(np.array([-1.0, 0.0]), nonneg=True)
    assert_array_equal(as_tensor([[1, 2]]), np.array([[1.0, 2.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("nonneg", [False, True])
def test_as_tensor_rejects_non_finite_entries(bad, nonneg):
    x = np.ones((3, 4))
    x[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        as_tensor(x, nonneg=nonneg)


def test_ntf1_round_trip(tmp_path):
    rng = np.random.default_rng(29)
    x = rng.random((3, 4, 2))
    path = tmp_path / "x.ntf1"
    write_ntf1(path, x)
    assert_array_equal(read_ntf1(path), x)


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
