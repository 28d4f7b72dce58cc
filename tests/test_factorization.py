import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from drbcd import factorization, tensors
from drbcd.datagen import SynthSpec, synthetic_lowrank
from drbcd.driver import SolverConfig, run, stationarity_measure, verify_trace
from drbcd.factorization import FactorModel, NtfProblem, init_factors, mu_sweep, run_mu
from drbcd.schedule import RadiusSchedule
from drbcd.tensors import cp_reconstruct


def sparse_data(rng, shape, nonzeros):
    """A tensor with exactly ``nonzeros`` nonzero entries, uniform on (0, 1]."""
    data = np.zeros(shape)
    data.flat[rng.choice(data.size, nonzeros, replace=False)] = 1.0 - rng.random(nonzeros)
    return data


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


def test_problem_keeps_its_own_copy_of_the_data():
    for shape in [(4, 5, 6), "sparse"]:
        data, rank, blocks, _ = memo_case(shape, seed=24)
        problem = NtfProblem(data, rank)
        before = problem.objective(blocks)
        linear_before = problem.block_subproblem(blocks, 0).linear.copy()
        data += 1.0
        assert problem.objective(blocks) == before
        assert_array_equal(problem.block_subproblem(blocks, 0).linear, linear_before)
        assert not problem.data.flags.writeable
        if problem._coo is not None:
            rows, cols, _ = problem._coo
            assert rows.dtype == cols.dtype == np.intp
            assert not any(a.flags.writeable for a in problem._coo)


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
    # Factor columns with three nonzero rows each: an exactly rank-2 tensor
    # with at most 2 * 27 nonzeros of 24,000.
    rng = np.random.default_rng(43)
    shape, rank = (20, 30, 40), 2
    factors = []
    for d in shape:
        f = np.zeros((d, rank))
        for a in range(rank):
            f[rng.choice(d, 3, replace=False), a] = 0.5 + rng.random(3)
        factors.append(f)
    data = cp_reconstruct(factors, np.ones((rank, 1)))[..., 0]
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
    rng = np.random.default_rng(44)
    shape, rank = (20, 30, 40), 2
    factors = []
    for d in shape:
        f = np.zeros((d, rank))
        for a in range(rank):
            f[rng.choice(d, 3, replace=False), a] = 0.5 + rng.random(3)
        factors.append(f)
    data = cp_reconstruct(factors, np.ones((rank, 1)))[..., 0]
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
    assert problem._partial(factors[2]).tobytes() == fresh._partial(factors[2]).tobytes()


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
