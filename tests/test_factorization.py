import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from drbcd.datagen import SynthSpec, synthetic_lowrank
from drbcd.driver import SolverConfig, run, stationarity_measure, verify_trace
from drbcd.factorization import (
    FactorModel,
    NtfProblem,
    init_factors,
    make_block_problem,
    mu_sweep,
    run_mu,
)
from drbcd.schedule import RadiusSchedule
from drbcd.tensors import cp_reconstruct


def random_problem(rng, dims, rank, mode="cp_absorbed", box_bound=None):
    data = rng.random(dims)
    problem = NtfProblem(data, rank, box_bound=box_bound, mode=mode)
    blocks = [rng.random((d, rank)) for d in data.shape]
    return problem, blocks


# ---------------------------------------------------------------------------
# FactorModel


def test_model_block_round_trip_cp_absorbed():
    rng = np.random.default_rng(0)
    model = FactorModel(
        factors=[rng.random((4, 2)), rng.random((3, 2))],
        code=np.ones((2, 1)),
        mode="cp_absorbed",
    )
    back = FactorModel.from_blocks(model.to_blocks(), "cp_absorbed")
    for a, b in zip(model.factors, back.factors):
        assert_array_equal(a, b)
    assert_array_equal(back.code, np.ones((2, 1)))


def test_model_block_round_trip_general():
    rng = np.random.default_rng(1)
    model = FactorModel(
        factors=[rng.random((4, 2)), rng.random((3, 2))],
        code=rng.random((2, 5)),
        mode="general",
    )
    blocks = model.to_blocks()
    assert blocks[-1].shape == (5, 2)
    back = FactorModel.from_blocks(blocks, "general")
    assert_array_equal(back.code, model.code)


def test_model_cp_absorbed_requires_ones_code():
    with pytest.raises(ValueError, match="ones"):
        FactorModel(factors=[np.ones((2, 2))], code=np.full((2, 1), 2.0))


# ---------------------------------------------------------------------------
# objective


def test_objective_zero_at_exact_factorization():
    spec = SynthSpec(dims=(6, 5, 4), rank=2, seed=3)
    data, model = synthetic_lowrank(spec)
    problem = NtfProblem(data, rank=2)
    assert problem.model_objective(model) <= 1e-20


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
    problem = NtfProblem(data, rank=2, mode="general")
    factors = [rng.random((3, 2)), rng.random((4, 2))]
    code = rng.random((2, 5))
    model = FactorModel(factors=factors, code=code, mode="general")
    recon = cp_reconstruct(factors, code)
    direct = float(np.sum((data - recon) ** 2))
    assert_allclose(problem.model_objective(model), direct, rtol=1e-12)


def test_objective_shape_mismatch_error():
    problem = NtfProblem(np.ones((2, 3)), rank=2)
    with pytest.raises(ValueError):
        problem.objective([np.ones((2, 2)), np.ones((4, 2))])


# ---------------------------------------------------------------------------
# block_subproblem (normal equations)


def test_block_subproblem_nmf_normal_equations():
    # Two-mode data with the trailing observation axis: the dictionary
    # block's sub-problem has gram H H^T and linear term X H^T.
    rng = np.random.default_rng(7)
    x = rng.random((6, 9))
    problem = NtfProblem(x, rank=3, mode="general")
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


def memo_case(shape, seed):
    rng = np.random.default_rng(seed)
    data = rng.random(shape)
    rank = 3
    blocks = [rng.random((d, rank)) for d in shape]
    others = [rng.random((d, rank)) for d in shape]
    return data, rank, blocks, others


def evaluations(problem, blocks):
    subs = [problem.block_subproblem(blocks, i) for i in range(len(blocks))]
    return (
        [(s.gram, s.linear) for s in subs],
        problem.full_gradient(blocks),
        stationarity_measure(problem, blocks),
    )


def assert_same_bits(a, b):
    (subs_a, grads_a, stat_a), (subs_b, grads_b, stat_b) = a, b
    for (gram_a, lin_a), (gram_b, lin_b) in zip(subs_a, subs_b):
        assert gram_a.tobytes() == gram_b.tobytes()
        assert lin_a.tobytes() == lin_b.tobytes()
    for ga, gb in zip(grads_a, grads_b):
        assert ga.tobytes() == gb.tobytes()
    assert stat_a == stat_b


@pytest.mark.parametrize("shape", [(4, 5, 6), (3, 4, 2, 5), (6, 7)])
def test_memo_hit_and_miss_give_same_bits(shape):
    data, rank, blocks, others = memo_case(shape, seed=21)
    fresh = evaluations(NtfProblem(data, rank), blocks)
    warmed = NtfProblem(data, rank)
    # Warm every memo entry with other blocks, including mixes that share
    # the last block (a partial-contraction hit with a different contraction).
    evaluations(warmed, others)
    for i in range(len(blocks)):
        mixed = list(others)
        mixed[i] = blocks[i]
        mixed[-1] = blocks[-1]
        evaluations(warmed, mixed)
    assert_same_bits(evaluations(warmed, blocks), fresh)
    # And again, now that every term is a hit.
    assert_same_bits(evaluations(warmed, blocks), fresh)


def test_memo_sees_in_place_block_writes():
    data, rank, blocks, _ = memo_case((4, 5, 6), seed=22)
    problem = NtfProblem(data, rank)
    for j in range(len(blocks)):
        evaluations(problem, blocks)
        blocks[j][1, 2] += 0.5
        assert_same_bits(evaluations(problem, blocks), evaluations(NtfProblem(data, rank), blocks))


def test_memoized_terms_are_read_only():
    data, rank, blocks, _ = memo_case((4, 5, 6), seed=23)
    problem = NtfProblem(data, rank)
    for i in range(len(blocks)):
        linear = problem.block_subproblem(blocks, i).linear
        assert not linear.flags.writeable
        with pytest.raises(ValueError):
            linear[0, 0] = 1.0


def test_problem_keeps_its_own_copy_of_the_data():
    data, rank, blocks, _ = memo_case((4, 5, 6), seed=24)
    problem = NtfProblem(data, rank)
    before = problem.objective(blocks)
    linear_before = problem.block_subproblem(blocks, 0).linear.copy()
    data += 1.0
    assert problem.objective(blocks) == before
    assert_array_equal(problem.block_subproblem(blocks, 0).linear, linear_before)
    assert not problem.data.flags.writeable


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


def test_init_factors_general_mode_shapes():
    model = init_factors((4, 5, 7), rank=2, seed=0, mode="general")
    assert [f.shape for f in model.factors] == [(4, 2), (5, 2)]
    assert model.code.shape == (2, 7)


def test_init_factors_scale_above_box_rejected():
    with pytest.raises(ValueError, match="box"):
        init_factors((3, 3), rank=1, seed=0, scale=2.0, box_bound=1.0)


# ---------------------------------------------------------------------------
# end-to-end: radius-restricted descent on factorization problems


def test_als_dr_trace_passes_all_invariant_checks():
    data, _ = synthetic_lowrank(SynthSpec(dims=(6, 7, 5), rank=2, seed=16))
    problem = make_block_problem(data, rank=2)
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
    problem = make_block_problem(data, rank=2)
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
