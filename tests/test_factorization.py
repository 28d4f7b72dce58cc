import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from drbcd import factorization, tensors
from drbcd.datagen import SynthSpec, sparse_surrogate, synthetic_lowrank
from drbcd.driver import (
    SolverConfig,
    _trace_record,
    bcd_dr_sweep,
    run,
    stationarity_measure,
    verify_trace,
)
from drbcd.factorization import FactorModel, NtfProblem, init_factors, mu_sweep, run_mu
from drbcd.schedule import RadiusSchedule

from _oracles import cp_reconstruct


def sparse_data(rng, shape, nonzeros):
    """A tensor with exactly ``nonzeros`` nonzero entries, uniform on (0, 1]."""
    data = np.zeros(shape)
    data.flat[rng.choice(data.size, nonzeros, replace=False)] = 1.0 - rng.random(nonzeros)
    return data


def sparse_lowrank(rng, shape, rank):
    """An exactly rank-``rank`` tensor whose factor columns have three
    nonzero rows each, and its factors."""
    factors = []
    for d in shape:
        f = np.zeros((d, rank))
        for a in range(rank):
            f[rng.choice(d, 3, replace=False), a] = 0.5 + rng.random(3)
        factors.append(f)
    return cp_reconstruct(factors, np.ones((rank, 1)))[..., 0], factors


def random_problem(rng, dims, rank, box_bound=None):
    data = rng.random(dims)
    problem = NtfProblem(data, rank, box_bound=box_bound)
    blocks = [rng.random((d, rank)) for d in data.shape]
    return problem, blocks


# ---------------------------------------------------------------------------
# FactorModel


def test_model_block_round_trip_cp_absorbed():
    rng = np.random.default_rng(0)
    model = FactorModel(factors=[rng.random((4, 2)), rng.random((3, 2))])
    blocks = model.to_blocks()
    back = FactorModel(factors=blocks)
    for a, b in zip(model.factors, back.factors):
        assert_array_equal(a, b)
    blocks[0][0, 0] = -1.0  # the blocks are copies
    assert model.factors[0][0, 0] >= 0.0


# ---------------------------------------------------------------------------
# objective


def test_objective_zero_at_exact_factorization():
    spec = SynthSpec(dims=(6, 5, 4), rank=2, seed=3)
    data, model = synthetic_lowrank(spec)
    problem = NtfProblem(data, rank=2)
    assert problem.objective(model.to_blocks()) <= 1e-20


def test_objective_of_zero_model_is_data_norm():
    rng = np.random.default_rng(4)
    data = rng.random((3, 4, 2))
    problem = NtfProblem(data, rank=2)
    blocks = [np.zeros((d, 2)) for d in data.shape]
    assert_allclose(problem.objective(blocks), float(np.sum(data**2)), rtol=1e-14)


def test_objective_matches_direct_reconstruction():
    rng = np.random.default_rng(5)
    problem, blocks = random_problem(rng, (3, 4, 2), 2)
    recon = cp_reconstruct(blocks, np.ones((2, 1)))[..., 0]
    direct = float(np.sum((problem.data - recon) ** 2))
    assert_allclose(problem.objective(blocks), direct, rtol=1e-12)


def test_objective_general_mode_matches_code_mixing():
    rng = np.random.default_rng(6)
    data = rng.random((3, 4, 5))  # trailing axis = observations
    problem = NtfProblem(data, rank=2)
    factors = [rng.random((3, 2)), rng.random((4, 2))]
    code = rng.random((2, 5))
    recon = cp_reconstruct(factors, code)
    direct = float(np.sum((data - recon) ** 2))
    # The code enters as one more block: the trailing axis's loadings.
    assert_allclose(problem.objective(factors + [code.T]), direct, rtol=1e-12)


def dense_objective(data, blocks):
    recon = cp_reconstruct(blocks, np.ones((blocks[0].shape[1], 1)))[..., 0]
    return float(np.sum((data - recon) ** 2))


@pytest.mark.parametrize("shape", [(9, 6), (7, 5, 6), (3, 5, 7, 4)])
@pytest.mark.parametrize("rows_per_slab", [2, 0.5, None])
def test_objective_over_row_slabs_matches_dense(monkeypatch, shape, rows_per_slab):
    # Two rows of X.reshape(-1, d_last) a slab (a ragged last slab, since
    # the row counts are odd), rows larger than a slab, and the default.
    if rows_per_slab is not None:
        monkeypatch.setattr(tensors, "SLAB_BYTES", int(rows_per_slab * shape[-1] * 8))
    rng = np.random.default_rng(7)
    problem, blocks = random_problem(rng, shape, 3)
    dense = dense_objective(problem.data, blocks)
    assert_allclose(problem.objective(blocks), dense, rtol=1e-12)
    # The thread's residual buffer grows when the slabs do.
    monkeypatch.undo()
    assert_allclose(problem.objective(blocks), dense, rtol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    shape=st.lists(st.integers(1, 6), min_size=2, max_size=4).map(tuple),
    rank=st.integers(1, 4),
    slab_bytes=st.integers(1, 2048),
    seed=st.integers(0, 2**32 - 1),
)
def test_objective_over_row_slabs_matches_dense_property(shape, rank, slab_bytes, seed):
    rng = np.random.default_rng(seed)
    problem, blocks = random_problem(rng, shape, rank)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensors, "SLAB_BYTES", slab_bytes)
        got = problem.objective(blocks)
    assert_allclose(got, dense_objective(problem.data, blocks), rtol=1e-12)


@pytest.mark.parametrize("nonzeros", [None, 5])
@pytest.mark.parametrize("bad, message", [(np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"),
                                          (-1.0, "nonnegative")])
def test_problem_rejects_bad_entries(nonzeros, bad, message):
    # Dense data, and sparse data whose checks see only its nonzeros.
    rng = np.random.default_rng(3)
    shape = (10, 12, 15)
    data = rng.random(shape) if nonzeros is None else sparse_data(rng, shape, nonzeros)
    data[4, 5, 6] = bad
    with pytest.raises(ValueError, match=message):
        NtfProblem(data, 2)
    if nonzeros is not None:
        data[4, 5, 6] = 1.0
        assert NtfProblem(data, 2)._coo is not None


# Three full slabs of the check pass and a partial fourth (1,072 entries).
CHECK_SHAPE = (4, 7, 7060)
SLAB_ENTRIES = tensors.SLAB_BYTES // 8
NOT_FINITE = "tensor entries must be finite (no NaN/Inf)"
NEGATIVE = "tensor entries must be nonnegative"


def test_check_shape_ends_in_a_partial_slab():
    assert 3 * SLAB_ENTRIES < math.prod(CHECK_SHAPE) < 4 * SLAB_ENTRIES


@pytest.mark.parametrize("where", [5, SLAB_ENTRIES + 17, math.prod(CHECK_SHAPE) - 3],
                         ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad, message", [(np.nan, NOT_FINITE), (np.inf, NOT_FINITE),
                                          (-np.inf, NOT_FINITE), (-1.0, NEGATIVE)])
def test_dense_checks_find_a_bad_entry_in_any_slab(where, bad, message):
    # One pass over the slabs takes the checks, with as_tensor's message
    # for a non-finite entry; as_tensor takes negative entries.
    data = np.random.default_rng(7).random(CHECK_SHAPE)
    data.flat[where] = bad
    with pytest.raises(ValueError, match=re.escape(message)):
        NtfProblem(data, 2)
    if message == NOT_FINITE:
        with pytest.raises(ValueError, match=re.escape(message)):
            tensors.as_tensor(data)
    else:
        assert tensors.as_tensor(data).flat[where] == bad


def test_a_non_finite_entry_is_named_before_a_negative_one_in_an_earlier_slab():
    data = np.random.default_rng(8).random(CHECK_SHAPE)
    data.flat[3] = -1.0
    data.flat[-1] = np.nan
    with pytest.raises(ValueError, match=re.escape(NOT_FINITE)):
        NtfProblem(data, 2)


def test_one_check_pass_gives_the_box_bound_and_the_square_sum():
    # The largest entry sits in the last, partial slab.
    data = np.random.default_rng(9).random(CHECK_SHAPE)
    data.flat[-2] = 3.0
    problem = NtfProblem(data, 2)
    assert problem._coo is None
    assert problem.box_bound == factorization.default_box_bound(float(data.max()), 3)
    want = float(np.dot(data.ravel(), data.ravel()))
    assert abs(problem._norm_sq - want) <= 1e-14 * want


def test_objective_shape_mismatch_error():
    problem = NtfProblem(np.ones((2, 3)), rank=2)
    with pytest.raises(ValueError):
        problem.objective([np.ones((2, 2)), np.ones((4, 2))])


@pytest.mark.parametrize("shape", [(0, 3, 2), (3, 0), (2, 3, 0)])
def test_problem_rejects_zero_length_mode(shape):
    with pytest.raises(ValueError, match="positive length"):
        NtfProblem(np.zeros(shape), 2)


# ---------------------------------------------------------------------------
# block_subproblem (normal equations)


def test_block_subproblem_nmf_normal_equations():
    # Two-mode data with the trailing observation axis: the dictionary
    # block's sub-problem has gram H H^T and linear term X H^T.
    rng = np.random.default_rng(7)
    x = rng.random((6, 9))
    problem = NtfProblem(x, rank=3)
    w = rng.random((6, 3))
    h = rng.random((3, 9))
    sub = problem.block_subproblem([w, h.T], 0)
    assert_allclose(sub.gram, h @ h.T, rtol=1e-12)
    assert_allclose(sub.linear, x @ h.T, rtol=1e-12)


def test_block_subproblem_all_ones_gram_counts():
    # With the other factor all ones, the gram is the all-d matrix.
    x = np.ones((2, 2))
    problem = NtfProblem(x, rank=2)
    blocks = [np.ones((2, 2)), np.ones((2, 2))]
    sub = problem.block_subproblem(blocks, 0)
    assert_allclose(sub.gram, np.full((2, 2), 2.0))


def test_block_subproblem_equals_restricted_objective():
    rng = np.random.default_rng(8)
    problem, blocks = random_problem(rng, (4, 3, 2), 2)
    for i in range(3):
        sub = problem.block_subproblem(blocks, i)
        diffs = []
        for _ in range(5):
            u = rng.random(blocks[i].shape)
            trial = list(blocks)
            trial[i] = u
            diffs.append(problem.objective(trial) - sub.objective(u))
        # Constant offset (zero here: the constant carries ||X||^2).
        scale = 1.0 + abs(problem.objective(blocks))
        assert max(diffs) - min(diffs) <= 1e-8 * scale
        assert abs(diffs[0]) <= 1e-8 * scale


@pytest.mark.parametrize("shape", [(4, 5, 6), (3, 4, 2, 5), (6, 7)])
def test_block_subproblem_gram_is_symmetric_bit_for_bit(shape):
    # A Hadamard product of Grams ``b.T @ b``: the subproblem keeps it as it
    # is, with no averaging copy.
    rng = np.random.default_rng(19)
    problem = NtfProblem(rng.random(shape), 4)
    blocks = [rng.random((d, 4)) for d in shape]
    for i in range(len(shape)):
        gram = problem.block_subproblem(blocks, i).gram
        assert np.array_equal(gram, gram.T)


def test_block_subproblem_index_error():
    problem = NtfProblem(np.ones((2, 3)), rank=1)
    with pytest.raises(ValueError, match="index"):
        problem.block_subproblem([np.ones((2, 1)), np.ones((3, 1))], 2)


# ---------------------------------------------------------------------------
# per-thread memo of the MTTKRP terms


# "sparse" is a 10x12x15 tensor, 1% nonzero, on the nonzero-only path with
# the last mode as its pivot; "sparse_pivot_middle" is 10x15x12, whose pivot
# is the middle mode. The others are dense.
SPARSE_MEMO_SHAPES = {"sparse": (10, 12, 15), "sparse_pivot_middle": (10, 15, 12)}


def memo_case(shape, seed):
    rng = np.random.default_rng(seed)
    if shape in SPARSE_MEMO_SHAPES:
        shape = SPARSE_MEMO_SHAPES[shape]
        data = sparse_data(rng, shape, math.prod(shape) // 100)
        assert NtfProblem(data, 3)._coo is not None
    else:
        data = rng.random(shape)
    rank = 3
    blocks = [rng.random((d, rank)) for d in shape]
    others = [rng.random((d, rank)) for d in shape]
    return data, rank, blocks, others


def evaluations(problem, blocks, objective_first=True):
    """Everything the problem computes at ``blocks``. The objective goes
    first by default, as in a sweep, so that the terms it leaves in the memo
    serve the rest."""
    objective = problem.objective(blocks) if objective_first else None
    subs = [problem.block_subproblem(blocks, i) for i in range(len(blocks))]
    return (
        [(s.gram, s.linear) for s in subs],
        problem.full_gradient(blocks),
        stationarity_measure(problem, blocks),
        problem.objective(blocks) if objective is None else objective,
    )


def assert_same_bits(a, b):
    (subs_a, grads_a, stat_a, obj_a), (subs_b, grads_b, stat_b, obj_b) = a, b
    for (gram_a, lin_a), (gram_b, lin_b) in zip(subs_a, subs_b):
        assert gram_a.tobytes() == gram_b.tobytes()
        assert lin_a.tobytes() == lin_b.tobytes()
    for ga, gb in zip(grads_a, grads_b):
        assert ga.tobytes() == gb.tobytes()
    assert stat_a == stat_b
    assert obj_a == obj_b


MEMO_SHAPES = [(4, 5, 6), (3, 4, 2, 5), (6, 7), "sparse", "sparse_pivot_middle"]


@pytest.mark.parametrize("shape", MEMO_SHAPES)
def test_memo_hit_and_miss_give_same_bits(shape):
    data, rank, blocks, others = memo_case(shape, seed=21)
    fresh = evaluations(NtfProblem(data, rank), blocks)
    # The terms the objective leaves behind are those the MTTKRP kernels
    # compute without it.
    assert_same_bits(evaluations(NtfProblem(data, rank), blocks, objective_first=False), fresh)
    warmed = NtfProblem(data, rank)
    pivot = warmed._pivot
    assert pivot == (1 if shape == "sparse_pivot_middle" else len(blocks) - 1)
    # Warm every memo entry with other blocks, including mixes that share
    # the pivot's block (a partial-contraction hit with a different
    # contraction).
    evaluations(warmed, others)
    for i in range(len(blocks)):
        mixed = list(others)
        mixed[i] = blocks[i]
        mixed[pivot] = blocks[pivot]
        evaluations(warmed, mixed)
    assert_same_bits(evaluations(warmed, blocks), fresh)
    # And again, now that every term is a hit.
    assert_same_bits(evaluations(warmed, blocks), fresh)


def test_memo_sees_in_place_block_writes():
    for shape in MEMO_SHAPES:
        data, rank, blocks, _ = memo_case(shape, seed=22)
        problem = NtfProblem(data, rank)
        for j in range(len(blocks)):
            evaluations(problem, blocks)
            blocks[j][1, 2] += 0.5
            assert_same_bits(evaluations(problem, blocks), evaluations(NtfProblem(data, rank), blocks))


def test_memoized_terms_are_read_only():
    for shape in [(4, 5, 6), "sparse"]:
        data, rank, blocks, _ = memo_case(shape, seed=23)
        problem = NtfProblem(data, rank)
        for i in range(len(blocks)):
            linear = problem.block_subproblem(blocks, i).linear
            assert not linear.flags.writeable
            with pytest.raises(ValueError):
                linear[0, 0] = 1.0


# ---------------------------------------------------------------------------
# the dense passes' bits, and the one partial a thread holds


def contiguous_operand_objective(x, blocks):
    """The dense objective's total and rank-major partial from their
    formulas, over the objective's row slabs of ``Xr = x.reshape(-1,
    d_last)``, with ``U_last.T`` a contiguous copy: ``Xr[s:e] - K[s:e] @
    U_last.T`` and ``U_last.T @ Xr[s:e].T``."""
    xr = x.reshape(-1, x.shape[-1])
    kr = tensors._khatri_rao_native(blocks[:-1])
    last_t = np.ascontiguousarray(blocks[-1].T)
    total, partial = 0.0, []
    for start, stop in tensors._row_slabs(xr.shape[0], xr[0].nbytes):
        residual = (xr[start:stop] - kr[start:stop] @ last_t).ravel()
        total += float(np.dot(residual, residual))
        partial.append(last_t @ xr[start:stop].T)
    return total, np.concatenate(partial, axis=1)


# With a last mode of 300 or 389, OpenBLAS rounds the residual's product
# differently by whether U_last.T is a contiguous copy or a transposed view,
# at ranks 2-5; the others have several slabs, or four modes.
@pytest.mark.parametrize("shape", [(10, 20, 300), (6, 7, 389), (60, 70, 80), (6, 8, 10, 12), (5, 6, 7, 300)])
@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_dense_objective_keeps_the_bits_of_the_contiguous_operand_formulas(shape, rank):
    # At the generating factors the total is rounding error alone, so a
    # product that rounded one model entry differently shows in it.
    x, model = synthetic_lowrank(SynthSpec(dims=shape, rank=rank, seed=rank))
    rng = np.random.default_rng(rank)
    for blocks in (model.to_blocks(), [rng.random((d, rank)) for d in shape]):
        problem = NtfProblem(x, rank)
        total, partial = contiguous_operand_objective(x, blocks)
        assert problem.objective(blocks) == total
        assert problem._memo.partial[1].tobytes() == partial.tobytes()


@pytest.mark.parametrize("case, shape", [
    ("dense objective", (120, 100, 130)),
    ("dense partial", (120, 100, 130)),
    ("sparse partial", (120, 100, 130)),
    # On two modes the other block's term is a view of the partial; the
    # memo does not keep it, so it cannot hold the stale partial. A short
    # last mode keeps the memo key, a copy of the pivot's block, small
    # beside a partial; a sparse pivot is the longest mode, so its key is
    # not (see the next test).
    ("dense objective", (12000, 13)),
    ("dense partial", (12000, 13)),
])
def test_a_new_pivot_block_frees_the_stale_partial_before_its_successor(case, shape):
    # Both partials alive at once would add a whole partial to the peak. A
    # partial of 480 KB dwarfs the ufunc buffers (at most 128 KB) that
    # numpy takes while it forms the objective's Khatri-Rao product.
    rng = np.random.default_rng(31)
    rank = 5
    # The sparse case keeps few nonzeros, so that its scatter's temporaries
    # stay small beside a partial.
    data = sparse_data(rng, shape, math.prod(shape) // 400) if case == "sparse partial" else rng.random(shape)
    problem = NtfProblem(data, rank)
    assert (problem._coo is None) == (case != "sparse partial") and problem._pivot == len(shape) - 1
    blocks = [rng.random((d, rank)) for d in shape]
    moved = blocks[:-1] + [blocks[-1] + 1.0]
    if case == "dense objective":
        evaluate = problem.objective
    else:
        def evaluate(b):
            return problem.block_subproblem(b, 0)
    size = math.prod(shape[:-1]) * rank * 8  # one partial's bytes
    # The objective's Khatri-Rao product of the leading blocks is as large,
    # unless it is the one leading block itself.
    transient = size if case == "dense objective" and len(shape) > 2 else 0
    tracemalloc.start()
    try:
        evaluate(blocks)
        linear = problem.block_subproblem(blocks, 0).linear
        assert problem._memo.partial[1].nbytes == size
        assert np.shares_memory(linear, problem._memo.partial[1]) == (len(shape) == 2)
        del linear
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        evaluate(moved)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert problem._memo.partial[0] == moved[-1].tobytes()
    assert peak - before < transient + 0.5 * size


@pytest.mark.parametrize("sparse", [False, True])
def test_on_two_modes_the_other_blocks_term_goes_with_its_partial(monkeypatch, sparse):
    rng = np.random.default_rng(32)
    shape, rank = (50, 60), 3
    data = sparse_data(rng, shape, 100) if sparse else rng.random(shape)
    problem = NtfProblem(data, rank)
    assert (problem._coo is not None) == sparse and problem._pivot == 1
    blocks = [rng.random((d, rank)) for d in shape]
    # The other block's term is a view of the partial; the memo keeps only
    # the partial, so once the caller drops the term, nothing else holds it.
    linear = problem.block_subproblem(blocks, 0).linear
    partial = problem._memo.partial[1]
    stale = weakref.ref(partial if partial.base is None else partial.base)
    assert np.shares_memory(linear, partial)
    del linear, partial
    name = "_coo_partial" if sparse else "_row_pass"
    form = getattr(factorization, name)

    def checked(*args):
        assert stale() is None, "the stale partial is alive while its successor is formed"
        return form(*args)

    monkeypatch.setattr(factorization, name, checked)
    problem.block_subproblem(blocks[:-1] + [blocks[-1] + 1.0], 0)


# The passes over the data that a warm sweep makes, with its objective and
# stationarity measure, by the kernel that makes them: dense data forms the
# pivot's term and, in the objective's pass, the partial; a coordinate list
# scatters the partial and gathers the pivot's term and the objective,
# unless the pivot is the first mode, whose solve finds the term that the
# previous objective left.
PASS_CASES = {
    "dense": ((10, 12, 14), 2, {"_row_pass": 1, "_last_mode_mttkrp": 1}),
    "sparse, middle pivot": ((9, 40, 8), 1, {"_coo_gather": 2, "_coo_partial": 1}),
    "sparse, first pivot": ((40, 9, 8), 0, {"_coo_gather": 1, "_coo_partial": 1}),
}
PASS_KERNELS = ("_row_pass", "_last_mode_mttkrp", "_coo_gather", "_coo_partial")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", PASS_CASES)
def test_a_warm_sweep_makes_the_memos_passes_over_the_data(monkeypatch, case, threads):
    shape, pivot, expected = PASS_CASES[case]
    rng = np.random.default_rng(34)
    rank = 3
    data = rng.random(shape) if case == "dense" else sparse_data(rng, shape, math.prod(shape) // 50)
    problem = NtfProblem(data, rank)
    assert (problem._coo is None) == (case == "dense") and problem._pivot == pivot
    calls = dict.fromkeys(PASS_KERNELS, 0)

    def counted(name):
        kernel = getattr(factorization, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        return count

    for name in PASS_KERNELS:
        monkeypatch.setattr(factorization, name, counted(name))
    monkeypatch.setattr(tensors, "_pool", None)
    if threads > 1:
        # Slabs of two data rows, so that the dense passes split.
        monkeypatch.setattr(tensors, "SLAB_BYTES", 256)
        monkeypatch.setattr(tensors, "_pass_threads", lambda: (threads, threads, 1))
    want = {name: expected.get(name, 0) for name in PASS_KERNELS}
    cfg = SolverConfig()
    try:
        blocks, _ = bcd_dr_sweep(problem, [rng.random((d, rank)) for d in shape], 1, cfg)
        for n in range(2, 5):
            calls.update(dict.fromkeys(PASS_KERNELS, 0))
            blocks, _ = bcd_dr_sweep(problem, blocks, n, cfg)
            assert calls == want, f"BCD-DR sweep {n}"
        for n in range(5, 8):
            calls.update(dict.fromkeys(PASS_KERNELS, 0))
            moved = mu_sweep(problem, blocks)
            assert all(m.tobytes() != b.tobytes() for m, b in zip(moved, blocks))
            blocks = moved
            _trace_record(problem, blocks, n, [0.0] * len(shape), math.inf)
            assert calls == want, f"MU sweep {n}"
    finally:
        if tensors._pool is not None:
            tensors._pool.shutdown(wait=True)
    assert (tensors._pool is not None) == (threads > 1 and case == "dense")


def test_problem_keeps_its_own_copy_of_the_data():
    for shape in [(4, 5, 6), "sparse"]:
        data, rank, blocks, _ = memo_case(shape, seed=24)
        problem = NtfProblem(data, rank)
        before = problem.objective(blocks)
        linear_before = problem.block_subproblem(blocks, 0).linear.copy()
        data += 1.0
        assert problem.objective(blocks) == before
        assert_array_equal(problem.block_subproblem(blocks, 0).linear, linear_before)
        # ``data`` is a tensor, or on sparse data the coordinates of one.
        assert not np.asarray(problem.data).flags.writeable
        if problem._coo is not None:
            assert not (problem.data.positions.flags.writeable or problem.data.values.flags.writeable)
            rows, cols, _ = problem._coo
            assert rows.dtype == cols.dtype == np.intp
            assert not any(a.flags.writeable for a in problem._coo)


def test_a_read_only_owner_is_shared():
    data = np.random.default_rng(25).random((4, 5, 6))
    data.flags.writeable = False
    assert NtfProblem(data, 3).data is data
    # A read-only view of a read-only owner, as the generators return.
    view = data.reshape(4, 30).reshape(4, 5, 6)
    assert view.base is data and NtfProblem(view, 3).data is view
    generated, _ = synthetic_lowrank(SynthSpec(dims=(4, 5, 6), rank=2, seed=25))
    assert NtfProblem(generated, 2).data is generated


@pytest.mark.parametrize("source", ["view of a writeable array", "frombuffer", "memmap"])
def test_read_only_data_that_can_change_is_copied(tmp_path, source):
    base = np.random.default_rng(26).random((4, 5, 6))
    if source == "view of a writeable array":
        data = base.view()
        data.flags.writeable = False
    elif source == "frombuffer":
        data = np.frombuffer(bytearray(base.tobytes())).reshape(base.shape)
        data.flags.writeable = False
    else:
        base.tofile(tmp_path / "x.bin")
        data = np.memmap(tmp_path / "x.bin", dtype=np.float64, mode="r", shape=base.shape)
    assert not data.flags.writeable
    problem = NtfProblem(data, 3)
    assert not np.shares_memory(problem.data, data)
    assert problem.data.tobytes() == base.tobytes() and not problem.data.flags.writeable


def test_a_generated_tensor_is_shared_without_a_tensor_sized_allocation():
    # The copy this replaces allocated the whole tensor again.
    data, _ = synthetic_lowrank(SynthSpec(dims=(100, 100, 100), rank=5, seed=27))
    tracemalloc.start()
    try:
        problem = NtfProblem(data, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert problem.data is data
    assert peak <= 0.1 * data.nbytes


@pytest.mark.parametrize("shared", [False, True])
def test_evaluations_refuse_dense_data_made_writeable(shared):
    # Writing to the data behind a problem would leave its memoized terms
    # stale: block_subproblem below would return the old linear term while
    # the objective read the new data.
    rng = np.random.default_rng(28)
    data = rng.random((4, 5, 6))
    data.flags.writeable = not shared
    problem = NtfProblem(data, 3)
    blocks = [rng.random((d, 3)) for d in data.shape]
    problem.block_subproblem(blocks, 0)
    problem.objective(blocks)
    owner = data if shared else problem.data
    owner.flags.writeable = True
    owner += 1.0
    evaluations = [problem.objective, lambda b: problem.block_subproblem(b, 0), problem.full_gradient]
    for evaluate in evaluations:
        with pytest.raises(ValueError, match="made writeable"):
            evaluate(blocks)


@pytest.mark.parametrize("solve", [run, run_mu])
def test_a_start_with_a_nan_entry_names_its_block(monkeypatch, solve):
    data, _ = synthetic_lowrank(SynthSpec(dims=(4, 5, 3), rank=2, seed=29))
    problem = NtfProblem(data, 2)
    blocks = init_factors(data.shape, 2, seed=30).to_blocks()
    blocks[1][2, 0] = np.nan
    # Refused before anything is evaluated at the start.
    monkeypatch.setattr(NtfProblem, "objective", lambda self, blocks: pytest.fail("objective evaluated"))
    cfg = SolverConfig(schedule=RadiusSchedule(kind="infinite"), max_sweeps=3)
    with pytest.raises(ValueError, match="initial block 1 has a non-finite entry"):
        solve(problem, blocks, cfg)


# ---------------------------------------------------------------------------
# the nonzero-only path for sparse data


def rebuilt_from_list(problem):
    """The dense tensor of a problem's list of nonzeros."""
    rows, cols, values = problem._coo
    shape, pivot = problem.data.shape, problem._pivot
    index = np.unravel_index(cols, shape[:pivot] + shape[pivot + 1 :])
    out = np.zeros(shape)
    out[index[:pivot] + (rows,) + index[pivot:]] = values
    return out


@pytest.mark.parametrize("below", [True, False])
def test_nonzero_path_is_chosen_below_the_nonzero_share(below):
    # The longest mode, the pivot of the nonzero path, is the middle one.
    rng = np.random.default_rng(41)
    shape = (20, 30, 25)
    threshold = math.ceil(factorization.SPARSE_SHARE * math.prod(shape))
    data = sparse_data(rng, shape, threshold - 1 if below else threshold)
    problem = NtfProblem(data, 3)
    assert (problem._coo is not None) == below
    assert problem._pivot == (1 if below else 2)
    assert_array_equal(problem.data, data)
    if below:
        rows, _, values = problem._coo
        assert not any(a.flags.writeable for a in problem._coo)
        assert np.all(np.diff(rows) >= 0) and values.size == threshold - 1
        assert_array_equal(rebuilt_from_list(problem), data)


def reference_nonzero_list(data, pivot):
    """The list from one whole-tensor mask, ordered by one argsort of the rows."""
    flat = data.ravel()
    nonzero = np.flatnonzero(flat != 0.0)
    inner = math.prod(data.shape[pivot + 1 :])
    outer, within = np.divmod(nonzero, inner)
    before, rows = np.divmod(outer, data.shape[pivot])
    order = np.argsort(rows, kind="stable")
    return rows[order], (before * inner + within)[order], flat[nonzero][order]


@pytest.mark.parametrize("slab_bytes", [8, 56, 512, None])
@pytest.mark.parametrize("shape", [(20, 30, 25), (30, 20, 25), (5, 6, 7, 8)])
def test_nonzero_list_matches_the_whole_tensor_search(monkeypatch, slab_bytes, shape):
    # The mask is formed slab by slab, the coordinates handed over without
    # a copy, and the list ordered from the sorted positions; NaN counts as
    # nonzero and -0.0 as zero, as with one mask.
    rng = np.random.default_rng(43)
    data = sparse_data(rng, shape, math.prod(shape) // 100)
    data.flat[[3, 11]] = [np.nan, -0.0]
    if slab_bytes is not None:
        monkeypatch.setattr(tensors, "SLAB_BYTES", slab_bytes)
    handed = []
    monkeypatch.setattr(factorization, "SparseTensor", lambda *args: handed.append(args) or tensors.SparseTensor(*args))
    coords = factorization._nonzeros(data)
    assert coords.positions is handed[0][1] and coords.values is handed[0][2]
    assert coords.values.tobytes() == data.ravel()[np.flatnonzero(data)].tobytes()
    for pivot in range(len(shape)):
        got = factorization._coordinate_list(coords, pivot)
        for a, b in zip(got, reference_nonzero_list(data, pivot)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes() and not a.flags.writeable


def assert_same_problem(a, b, seed):
    """``a`` and ``b`` hold the same data, bit for bit, and give the same
    objective and block terms at one start."""
    assert a.shape == b.shape and a._pivot == b._pivot
    assert (a._coo is None) == (b._coo is None)
    for u, v in zip(a._coo or (), b._coo or ()):
        assert u.dtype == v.dtype and u.tobytes() == v.tobytes()
    assert a.box_bound == b.box_bound and a._norm_sq == b._norm_sq
    # ``data`` may be a tensor on one side and coordinates on the other.
    da, db = np.asarray(a.data), np.asarray(b.data)
    assert da.shape == db.shape and da.tobytes() == db.tobytes()
    blocks = init_factors(a.shape, a.rank, seed=seed).to_blocks()
    assert a.objective(blocks) == b.objective(blocks)
    for i in range(a.num_blocks):
        sa, sb = a.block_subproblem(blocks, i), b.block_subproblem(blocks, i)
        assert sa.gram.tobytes() == sb.gram.tobytes()
        assert sa.linear.tobytes() == sb.linear.tobytes()
        assert sa.constant == sb.constant


@pytest.mark.parametrize("dims", [(20, 30, 25), (30, 20, 25), (5, 6, 7, 8)])
@pytest.mark.parametrize("density", [0.01, 0.04, 0.3])
@pytest.mark.parametrize("share", [None, 1e-4, 0.9])
def test_surrogate_coordinates_make_the_dense_surrogates_problem(monkeypatch, dims, density, share):
    # Each side of SPARSE_SHARE: the default, a share that lists no data
    # and one that lists all of it.
    if share is not None:
        monkeypatch.setattr(factorization, "SPARSE_SHARE", share)
    spec = SynthSpec(dims=dims, rank=3, seed=47, density=density, target_mean_abs=0.25)
    coords = sparse_surrogate(spec)
    assert isinstance(coords, tensors.SparseTensor)
    problem = NtfProblem(coords, 3)
    assert_same_problem(problem, NtfProblem(coords.dense(), 3), seed=48)
    if problem._coo is None:
        assert problem._owner is problem._dense and not problem._dense.flags.writeable


def test_coordinates_keep_the_dense_search_and_its_sample(monkeypatch):
    # Nonzeros at every sampled entry alone: 4.8% of the entries, under
    # SPARSE_SHARE, but all of the sample, so dense data takes the dense
    # path without a full search, and so do its coordinates. Listed zeros,
    # -0.0 among them, are dropped as the dense search drops them.
    shape = (64, 80, 70)
    size = math.prod(shape)
    step = factorization._sample_step(size)
    assert step > 1 / factorization.SPARSE_SHARE
    positions = np.arange(0, size, step)
    values = 1.0 - np.random.default_rng(49).random(positions.size)
    dense = np.zeros(shape)
    dense.flat[positions] = values
    problem = NtfProblem(tensors.SparseTensor(shape, positions, values), 2)
    assert problem._coo is None
    assert_same_problem(problem, NtfProblem(dense, 2), seed=50)
    # Off the sample, the same nonzeros are listed.
    values[::2] = [0.0, -0.0] * (values[::2].size // 2) + [0.0] * (values[::2].size % 2)
    shifted = tensors.SparseTensor(shape, positions + 1, values)
    dense = shifted.dense().copy()
    dense.flat[positions[::4] + 1] = -0.0
    problem = NtfProblem(shifted, 2)
    assert problem._coo is not None and problem._coo[2].size == values[1::2].size
    assert_same_problem(problem, NtfProblem(dense, 2), seed=51)


@pytest.mark.parametrize(
    "positions, values, message",
    [
        ([3, 1], [1.0, 2.0], "strictly ascending"),
        ([1, 1], [1.0, 2.0], "strictly ascending"),
        ([-1, 2], [1.0, 2.0], r"lie in \[0, 24\)"),
        ([2, 24], [1.0, 2.0], r"lie in \[0, 24\)"),
        ([1, 2], [1.0], "one value per position"),
        ([[1, 2]], [[1.0, 2.0]], "one value per position"),
        ([1.0, 2.0], [1.0, 2.0], "integers"),
        ([1, 2], [1.0, -2.0], "nonnegative"),
        ([1, 2], [np.nan, 2.0], "finite"),
        ([1, 2], [1.0, np.inf], "finite"),
    ],
    ids=["unsorted", "repeated", "negative position", "past the end", "lengths", "not flat",
         "float positions", "negative value", "nan", "inf"],
)
def test_malformed_coordinates_are_refused_in_one_line(positions, values, message):
    with pytest.raises(ValueError, match=message) as refused:
        NtfProblem(tensors.SparseTensor((2, 3, 4), np.array(positions), np.array(values)), 2)
    assert "\n" not in str(refused.value)


def test_coordinates_are_held_read_only_and_shared_only_when_nothing_can_write_them():
    positions, values = np.array([1, 5, 7]), np.array([0.5, 1.0, 2.0])
    coords = tensors.SparseTensor([2, 4], positions, values)
    assert coords.shape == (2, 4) and coords.nbytes == 48
    assert not np.shares_memory(coords.positions, positions)
    assert not (coords.positions.flags.writeable or coords.values.flags.writeable)
    for a in (positions, values):
        a.flags.writeable = False
    shared = tensors.SparseTensor((2, 4), positions, values)
    assert shared.positions is positions and shared.values is values
    expected = np.zeros((2, 4))
    expected.flat[positions] = values
    assert_array_equal(coords.dense(), expected, strict=True)
    assert not coords.dense().flags.writeable


def test_sparse_problem_holds_its_copy_and_list_alone():
    # Sparse data is held as its coordinate list alone: no copy of the
    # tensor (34 lists on this data), and set-up peaks below two lists, with
    # no tensor-sized mask (a whole-tensor mask and argsort held 4.5 lists).
    data = sparse_data(np.random.default_rng(44), (100, 100, 100), 10**4)
    tracemalloc.start()
    try:
        problem = NtfProblem(data, 5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    listed = sum(a.nbytes for a in problem._coo)
    assert listed == 24 * 10**4
    assert held <= 1.1 * listed
    assert peak <= 2 * listed


def test_data_of_a_sparse_list_is_its_coordinates_and_held_once_when_dense():
    rng = np.random.default_rng(46)
    data = sparse_data(rng, (10, 12, 15), 18)
    data.flat[np.flatnonzero(data == 0.0)[0]] = -0.0
    problem = NtfProblem(data, 3)
    assert problem._coo is not None and problem.shape == data.shape
    first, second = problem.data, problem.data
    assert isinstance(first, tensors.SparseTensor) and first.shape == data.shape
    assert np.all(np.diff(first.positions) > 0)
    assert not (first.positions.flags.writeable or first.values.flags.writeable)
    # Rebuilt on every access, from the list alone.
    assert first is not second and not np.shares_memory(first.values, second.values)
    assert not np.shares_memory(first.values, problem._coo[2])
    # The old rebuild's tensor, bit for bit: the -0.0 comes back as +0.0.
    tensor = np.asarray(first)
    assert tensor.tobytes() == rebuilt_from_list(problem).tobytes()
    assert_array_equal(tensor, data)
    assert not tensor.flags.writeable and not np.signbit(tensor).any() and np.signbit(data).any()

    data = rng.random((4, 5, 6))
    problem = NtfProblem(data, 3)
    assert problem._coo is None and problem.shape == data.shape
    assert problem.data is problem.data
    assert_array_equal(problem.data, data)
    assert not problem.data.flags.writeable and not np.shares_memory(problem.data, data)
    # A conversion is the problem's own array: it is not copied again.
    converted = NtfProblem(data.tolist(), 3).data
    assert converted.base is None and not converted.flags.writeable
    assert converted.tobytes() == data.tobytes()


@pytest.mark.parametrize("dims", [(90, 500, 100), (500, 90, 100)])
def test_a_problem_built_from_its_own_coordinates_is_the_same_problem(dims):
    # The surrogate's shape, pivoting on the middle mode and on the first.
    spec = SynthSpec(dims=dims, rank=5, seed=52, density=0.01, target_mean_abs=0.00067)
    problem = NtfProblem(sparse_surrogate(spec), 5)
    assert problem._coo is not None and problem._pivot == int(np.argmax(dims))
    coords = problem.data
    again = NtfProblem(coords, 5)
    assert_same_problem(again, problem, seed=53)
    assert again.data.positions.tobytes() == coords.positions.tobytes()
    assert again.data.values.tobytes() == coords.values.tobytes()


@pytest.mark.parametrize("exact", [False, True])
def test_a_sparse_run_forms_no_tensor_fallback_included(monkeypatch, exact):
    # A run the nonzero formula serves never reads ``data``; one at an exact
    # fit, where the formula is refused on every objective, reads it once a
    # refusal and fills slabs from it. Neither forms the tensor (960 KB).
    rng = np.random.default_rng(47)
    shape, rank = (20, 30, 200), 2
    slab = 16 << 10
    monkeypatch.setattr(tensors, "SLAB_BYTES", slab)
    if exact:
        data, blocks = sparse_lowrank(rng, shape, rank)
    else:
        data = sparse_data(rng, shape, 240)
        blocks = [rng.random((d, rank)) for d in shape]
    problem, again = NtfProblem(data, rank), NtfProblem(data, rank)
    _, dense = both_paths(data, rank)
    assert problem._coo is not None and problem._pivot == 2
    cfg = SolverConfig(
        schedule=RadiusSchedule(kind="power_log", beta=0.5, c_prime=1.0), max_sweeps=5, clock="sweep"
    )
    run(NtfProblem(data, rank), blocks, cfg)  # imports what a run imports on first use
    del data
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        final, trace = run(problem, blocks, cfg)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert len(trace) == 6
    assert peak < 0.15 * 8 * math.prod(shape)

    # Each objective, alone: beyond the Khatri-Rao products that either
    # pass forms (one has the rows of a partial), at most the list and two
    # slabs, the residual's and the data's.
    reads, refusals, peaks = [], [], []
    data_property, coo_objective, objective = NtfProblem.data, NtfProblem._coo_objective, NtfProblem.objective

    def read(self):
        reads.append(self)
        return data_property.fget(self)

    def formula(self, blocks):
        total = coo_objective(self, blocks)
        refusals.append(total is None)
        return total

    def traced(self, blocks):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        total = objective(self, blocks)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return total

    monkeypatch.setattr(NtfProblem, "data", property(read))
    monkeypatch.setattr(NtfProblem, "_coo_objective", formula)
    monkeypatch.setattr(NtfProblem, "objective", traced)
    tracemalloc.start()
    try:
        _, twin = run(again, blocks, cfg)
    finally:
        tracemalloc.stop()
    assert twin == trace and len(peaks) >= 6 and len(refusals) == len(peaks)
    assert len(reads) == sum(refusals)
    assert all(refusals) if exact else not any(refusals)
    listed = sum(a.nbytes for a in problem._coo)
    products = 2 * math.prod(shape[:-1]) * rank * 8
    assert max(peaks) <= listed + 2 * slab + products + 8192

    # The fallback's objective has the bits of the dense residual's pass.
    for at in (blocks, final):
        if exact:
            assert problem.objective(at) == dense.objective(at)
        else:
            assert_allclose(problem.objective(at), dense.objective(at), rtol=1e-12)


def both_paths(data, rank):
    """Problems on the same data: one on the nonzero-only path, one dense."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factorization, "SPARSE_SHARE", math.inf)
        sparse = NtfProblem(data, rank)
        mp.setattr(factorization, "SPARSE_SHARE", 0.0)
        dense = NtfProblem(data, rank)
    assert sparse._coo is not None and dense._coo is None
    return sparse, dense


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    shape=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    longest=st.sampled_from(["first", "middle", "last", "tie"]),
    rank=st.integers(1, 4),
    nonzeros=st.sampled_from(["none", "one", "few", "half"]),
    empty_mode=st.integers(0, 3),
    slab_bytes=st.integers(1, 2048),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=[4, 3], longest="first", rank=2, nonzeros="few", empty_mode=1, slab_bytes=2048, seed=1)
@example(shape=[3, 3], longest="tie", rank=2, nonzeros="half", empty_mode=0, slab_bytes=40, seed=2)
@example(shape=[2, 3, 4, 2], longest="middle", rank=3, nonzeros="half", empty_mode=2, slab_bytes=100, seed=3)
def test_nonzero_path_matches_dense_property(shape, longest, rank, nonzeros, empty_mode, slab_bytes, seed):
    # The longest mode, the pivot of the nonzero path, is placed first, in
    # the middle or last (in the middle of two modes is last), or ties the
    # first mode with the middle one, when the later of the two is the
    # pivot. Small slabs make many chunks of nonzeros, most with a ragged
    # last one.
    pivot = {"first": 0, "middle": len(shape) // 2, "last": len(shape) - 1, "tie": len(shape) // 2}[longest]
    shape[pivot] = max(shape) + 1
    if longest == "tie":
        shape[0] = shape[pivot]
    shape = tuple(shape)
    rng = np.random.default_rng(seed)
    size = math.prod(shape)
    count = {"none": 0, "one": 1, "few": max(1, size // 20), "half": size // 2}[nonzeros]
    data = sparse_data(rng, shape, count)
    data[(slice(None),) * (empty_mode % len(shape)) + (0,)] = 0.0  # an empty slice
    sparse, dense = both_paths(data, rank)
    assert sparse._pivot == pivot and dense._pivot == len(shape) - 1
    blocks = [rng.random((d, rank)) for d in shape]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensors, "SLAB_BYTES", slab_bytes)
        for i in range(len(shape)):
            assert_allclose(
                sparse.block_subproblem(blocks, i).linear,
                dense.block_subproblem(blocks, i).linear,
                rtol=1e-12, atol=0.0,
            )
        assert sparse._coo_objective(blocks) is not None
        assert_allclose(sparse.objective(blocks), dense.objective(blocks), rtol=1e-12)
    assert_allclose(sparse.objective(blocks), dense_objective(data, blocks), rtol=1e-12)


def test_objective_at_an_exact_sparse_fit_takes_the_dense_residual():
    # An exactly rank-2 tensor with at most 2 * 27 nonzeros of 24,000.
    rank = 2
    data, factors = sparse_lowrank(np.random.default_rng(43), (20, 30, 40), rank)
    problem = NtfProblem(data, rank)
    assert problem._coo is not None
    # The zeros' share cancels to rounding, so the formula is refused.
    assert problem._coo_objective(factors) is None
    reference = dense_objective(data, factors)
    # It would give -7e-15 here; the dense residual gives 7e-31.
    norm_sq = float(np.sum(data**2))
    assert 0.0 <= problem.objective(factors) <= 1e-28 * norm_sq
    assert abs(problem.objective(factors) - reference) <= 1e-28 * norm_sq


def test_dense_residual_on_sparse_data_leaves_no_partial_behind():
    # An exact fit of sparse data, as above, whose pivot is the last mode:
    # the dense residual's partial would have the key and shape of the
    # nonzero path's, but other bits.
    rank = 2
    data, factors = sparse_lowrank(np.random.default_rng(44), (20, 30, 40), rank)
    problem = NtfProblem(data, rank)
    assert problem._coo is not None and problem._pivot == 2
    assert problem._coo_objective(factors) is None
    problem.objective(factors)
    assert problem._memo.partial[0] is None
    fresh = NtfProblem(data, rank)
    assert stationarity_measure(problem, factors) == stationarity_measure(fresh, factors)
    assert_same_bits(
        evaluations(problem, factors, objective_first=False),
        evaluations(fresh, factors, objective_first=False),
    )
    # Block terms at other blocks round the partial's last bits away, so
    # the partial itself is compared too.
    assert problem._memo_partial(factors[2])[0].tobytes() == fresh._memo_partial(factors[2])[0].tobytes()


# ---------------------------------------------------------------------------
# gradients


def finite_difference_gradient(problem, blocks, i, h_scale=1e-6):
    base = [b.copy() for b in blocks]
    g = np.zeros_like(blocks[i])
    it = np.nditer(blocks[i], flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        h = h_scale * max(1.0, abs(float(blocks[i][idx])))
        plus = [b.copy() for b in base]
        plus[i][idx] += h
        minus = [b.copy() for b in base]
        minus[i][idx] -= h
        g[idx] = (problem.objective(plus) - problem.objective(minus)) / (2.0 * h)
        it.iternext()
    return g


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    problem, blocks = random_problem(rng, (4, 3, 2), 2)
    grads = problem.full_gradient(blocks)
    for i in range(3):
        fd = finite_difference_gradient(problem, blocks, i)
        denom = np.linalg.norm(fd) + 1e-12
        assert np.linalg.norm(grads[i] - fd) / denom <= 1e-5


def test_gradient_zero_at_exact_factorization():
    data, model = synthetic_lowrank(SynthSpec(dims=(5, 4, 3), rank=2, seed=10))
    problem = NtfProblem(data, rank=2)
    grads = problem.full_gradient(model.to_blocks())
    assert max(float(np.abs(g).max()) for g in grads) <= 1e-10


def test_blockwise_convexity_second_difference():
    rng = np.random.default_rng(11)
    problem, blocks = random_problem(rng, (3, 4, 2), 2)
    for i in range(3):
        a = rng.random(blocks[i].shape)
        b = rng.random(blocks[i].shape)

        def phi(t):
            trial = list(blocks)
            trial[i] = (1 - t) * a + t * b
            return problem.objective(trial)

        assert phi(0.0) + phi(1.0) - 2.0 * phi(0.5) >= -1e-10


# ---------------------------------------------------------------------------
# multiplicative updates


def test_mu_fixed_point_at_exact_factorization():
    data, model = synthetic_lowrank(SynthSpec(dims=(6, 5, 4), rank=2, seed=12))
    problem = NtfProblem(data, rank=2)
    blocks = model.to_blocks()
    updated = mu_sweep(problem, blocks)
    for u, v in zip(blocks, updated):
        assert np.max(np.abs(u - v) / (np.abs(u) + 1e-12)) <= 1e-10


def test_mu_zero_entries_stay_zero():
    rng = np.random.default_rng(13)
    problem, blocks = random_problem(rng, (4, 3, 2), 2)
    blocks[0][1, 0] = 0.0
    blocks[2][0, 1] = 0.0
    updated = mu_sweep(problem, blocks)
    assert updated[0][1, 0] == 0.0
    assert updated[2][0, 1] == 0.0


def test_mu_objective_nonincreasing_50_sweeps():
    rng = np.random.default_rng(14)
    problem, blocks = random_problem(rng, (5, 4, 3), 2)
    f_prev = problem.objective(blocks)
    for _ in range(50):
        blocks = mu_sweep(problem, blocks)
        assert np.all(np.asarray(blocks[0]) >= 0.0)
        f = problem.objective(blocks)
        assert f <= f_prev + 1e-8 * (1.0 + abs(f_prev))
        f_prev = f


def test_run_mu_trace_schema():
    rng = np.random.default_rng(15)
    problem, blocks = random_problem(rng, (4, 3, 2), 2)
    cfg = SolverConfig(schedule=RadiusSchedule(kind="infinite"), max_sweeps=5)
    _, trace = run_mu(problem, blocks, cfg)
    assert [r.n for r in trace] == [0, 1, 2, 3, 4, 5]
    assert all(math.isinf(r.radius) for r in trace)
    objectives = [r.objective for r in trace]
    assert all(b <= a + 1e-8 * (1 + a) for a, b in zip(objectives, objectives[1:]))


# ---------------------------------------------------------------------------
# init_factors


def test_init_factors_deterministic_and_in_range():
    m1 = init_factors((4, 5, 6), rank=3, seed=42, scale=0.5)
    m2 = init_factors((4, 5, 6), rank=3, seed=42, scale=0.5)
    for a, b in zip(m1.factors, m2.factors):
        assert_array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 0.5
    m3 = init_factors((4, 5, 6), rank=3, seed=43, scale=0.5)
    assert any(
        not np.array_equal(a, b) for a, b in zip(m1.factors, m3.factors)
    )


def test_init_factors_scale_above_box_rejected():
    with pytest.raises(ValueError, match="box"):
        init_factors((3, 3), rank=1, seed=0, scale=2.0, box_bound=1.0)


@pytest.mark.parametrize("box_bound", [None, 1.0])
def test_init_factors_nan_scale_rejected(box_bound):
    with pytest.raises(ValueError, match="scale must be positive, got nan"):
        init_factors((3, 3), rank=1, seed=0, scale=math.nan, box_bound=box_bound)


# ---------------------------------------------------------------------------
# end-to-end: radius-restricted descent on factorization problems


def test_als_dr_trace_passes_all_invariant_checks():
    data, _ = synthetic_lowrank(SynthSpec(dims=(6, 7, 5), rank=2, seed=16))
    problem = NtfProblem(data, rank=2)
    model = init_factors(data.shape, rank=2, seed=1)
    cfg = SolverConfig(
        schedule=RadiusSchedule(kind="power_log", beta=0.5, c_prime=1.0),
        max_sweeps=25,
    )
    _, trace = run(problem, model.to_blocks(), cfg)
    verdict = verify_trace(trace, cfg.schedule)
    assert verdict.all_ok, verdict


def test_plain_als_is_always_long():
    data, _ = synthetic_lowrank(SynthSpec(dims=(6, 5, 4), rank=2, seed=17))
    problem = NtfProblem(data, rank=2)
    model = init_factors(data.shape, rank=2, seed=2)
    cfg = SolverConfig(schedule=RadiusSchedule(kind="infinite"), max_sweeps=10)
    _, trace = run(problem, model.to_blocks(), cfg)
    assert all(r.point_class == "long" for r in trace)


def test_box_bound_default_formula():
    data = np.full((2, 2, 2), 16.0)
    problem = NtfProblem(data, rank=1)
    assert_allclose(problem.box_bound, 10.0 * 16.0 ** (1.0 / 4.0), rtol=1e-12)
    small = NtfProblem(np.full((2, 2), 0.5), rank=1)
    assert_allclose(small.box_bound, 10.0, rtol=1e-12)
