import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from drbcd.driver import (
    CheckOutcome,
    SolverConfig,
    TraceRecord,
    bcd_dr_sweep,
    classify_point,
    run,
    stationarity_measure,
    verify_trace,
)
from drbcd.factorization import run_mu
from drbcd.schedule import RadiusSchedule

from _toys import BilinearScalar, LinearOnBox, NonFiniteAway, SeparableQuadratic


# Radius 0.5 at sweep 1 (the clamped weight is 1), shrinking after it.
BINDING = RadiusSchedule(kind="power_log", beta=1.0, c_prime=0.5)


def make_cfg(**kwargs):
    defaults = dict(schedule=BINDING, max_sweeps=10)
    defaults.update(kwargs)
    return SolverConfig(**defaults)


def scalar_blocks(*values):
    return [np.array([[float(v)]]) for v in values]


# ---------------------------------------------------------------------------
# bcd_dr_sweep


def test_sweep_clamps_each_block_to_radius():
    problem = SeparableQuadratic(targets=[1.0, 2.0])
    cfg = make_cfg()
    blocks, record = bcd_dr_sweep(problem, scalar_blocks(0.0, 0.0), 1, cfg)
    assert_allclose([b[0, 0] for b in blocks], [0.5, 0.5], atol=1e-9)
    assert record.point_class == "short"
    assert record.n == 1


def test_sweep_infinite_radius_hits_separable_minimum():
    problem = SeparableQuadratic(targets=[1.0, 2.0])
    cfg = make_cfg(schedule=RadiusSchedule(kind="infinite"))
    blocks, record = bcd_dr_sweep(problem, scalar_blocks(0.0, 0.0), 1, cfg)
    assert_allclose([b[0, 0] for b in blocks], [1.0, 2.0], atol=1e-8)
    assert record.point_class == "long"
    assert record.objective <= 1e-14


def test_sweep_leaves_minimizer_fixed():
    problem = BilinearScalar()
    cfg = make_cfg(schedule=RadiusSchedule(kind="infinite"))
    blocks, record = bcd_dr_sweep(problem, scalar_blocks(1.0, 1.0), 1, cfg)
    assert_allclose([b[0, 0] for b in blocks], [1.0, 1.0], atol=1e-10)
    assert record.objective <= 1e-18


def test_sweep_counts_unconverged_block_solves(monkeypatch):
    # With the exact solve forced to fail, both solves of the first sweep
    # take their one step from the start and count as unconverged.
    import drbcd.subsolver as subsolver

    def fail(self, warm):
        raise subsolver._PivotingFailed("forced")

    monkeypatch.setattr(subsolver._ExactBlockSolve, "solve", fail)
    problem = SeparableQuadratic(targets=[1.0, 2.0])
    cfg = make_cfg(schedule=RadiusSchedule(kind="infinite"))
    _, record = bcd_dr_sweep(problem, scalar_blocks(0.0, 0.0), 1, cfg)
    assert record.unconverged_solves == 2

    import drbcd.driver as driver

    solve = driver.solve_block_qp
    calls = []

    def second_block_unconverged(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)._replace(converged=len(calls) % 2 == 1)

    monkeypatch.setattr(driver, "solve_block_qp", second_block_unconverged)
    _, trace = run(problem, scalar_blocks(0.0, 0.0), make_cfg(max_sweeps=3))
    assert [r.unconverged_solves for r in trace] == [0, 1, 1, 1]
    _, trace = run_mu(problem, scalar_blocks(0.5, 0.5), make_cfg(max_sweeps=3))
    assert [r.unconverged_solves for r in trace] == [0, 0, 0, 0]


@pytest.mark.parametrize("entry", [run, run_mu])
@pytest.mark.parametrize(
    "budget, reason, sweeps",
    [
        (dict(max_sweeps=3), "max_sweeps", 3),
        (dict(max_seconds=2.0), "max_seconds", 2),
        (dict(stationarity_stop=1e9), "stationarity", 1),
    ],
)
def test_last_record_says_why_the_run_stopped(entry, budget, reason, sweeps):
    problem = SeparableQuadratic(targets=[1.0, 2.0])
    _, trace = entry(problem, scalar_blocks(0.5, 0.5), make_cfg(clock="sweep", **budget))
    assert len(trace) - 1 == sweeps
    assert trace[-1].stop_reason == reason
    assert [r.stop_reason for r in trace[:-1]] == [""] * sweeps


def test_sweep_rejects_bad_index():
    problem = SeparableQuadratic(targets=[1.0])
    with pytest.raises(ValueError):
        bcd_dr_sweep(problem, scalar_blocks(0.0), 0, make_cfg())


# ---------------------------------------------------------------------------
# classify_point


def test_classify_point_cases():
    assert classify_point([0.1, 0.2], 0.5) == "long"
    assert classify_point([0.5, 0.1], 0.5) == "short"
    assert classify_point([10.0, 10.0], math.inf) == "long"
    with pytest.raises(ValueError):
        classify_point([0.1], 0.0)


# ---------------------------------------------------------------------------
# stationarity_measure


def test_stationarity_zero_at_interior_minimum():
    problem = SeparableQuadratic(targets=[1.0, 2.0])
    assert stationarity_measure(problem, scalar_blocks(1.0, 2.0)) <= 1e-15


def test_stationarity_zero_when_gradient_blocks_at_boundary():
    # At u = 0 with slope +3 the unit step clamps straight back to 0.
    problem = LinearOnBox(slope=[[3.0]], box=(0.0, 1.0))
    assert stationarity_measure(problem, scalar_blocks(0.0)) == 0.0


def test_stationarity_positive_with_descent_direction():
    problem = LinearOnBox(slope=[[-3.0]], box=(0.0, 1.0))
    assert stationarity_measure(problem, scalar_blocks(0.0)) == 1.0


def direction_oracle_min_dd(grad, point, lower, upper, n_dirs=10_000):
    """Minimum directional derivative over box-feasible unit directions."""
    best = math.inf
    for k in range(n_dirs):
        phi = 2.0 * math.pi * k / n_dirs
        d = np.array([math.cos(phi), math.sin(phi)])
        ok = True
        for j in range(2):
            if point[j] <= lower and d[j] < 0:
                ok = False
            if point[j] >= upper and d[j] > 0:
                ok = False
        if ok:
            best = min(best, float(grad @ d))
    return best


def test_stationarity_consistent_with_direction_sampling_oracle():
    # Two-variable box instance: the projected-gradient mapping is zero
    # exactly when no feasible descent direction exists, and matches the
    # gradient norm at interior points with small gradients.
    rng = np.random.default_rng(0)
    lower, upper = 0.0, 1.0
    for _ in range(30):
        target = rng.uniform(-0.5, 1.5, size=2)
        point = rng.choice([0.0, 1.0, float(rng.uniform(0.2, 0.8))], size=2)
        problem = SeparableQuadratic(targets=[target.reshape(1, 2)], box=(lower, upper))
        blocks = [point.reshape(1, 2).copy()]
        grad = 2.0 * (point - target)
        mapping = stationarity_measure(problem, blocks)
        min_dd = direction_oracle_min_dd(grad, point, lower, upper)
        if mapping <= 1e-10:
            assert min_dd >= -1e-3
        else:
            assert min_dd < 0.0
        interior = np.all((point > 0.05) & (point < 0.95))
        if interior and np.linalg.norm(grad) < 0.05:
            assert_allclose(mapping, abs(min_dd), rtol=1e-6)


# ---------------------------------------------------------------------------
# run


def test_run_respects_max_sweeps():
    problem = SeparableQuadratic(targets=[1.0, 2.0])
    cfg = make_cfg(max_sweeps=1)
    _, trace = run(problem, scalar_blocks(0.0, 0.0), cfg)
    assert [r.n for r in trace] == [0, 1]


def test_run_reaches_separable_minimum_with_power_log_schedule():
    problem = SeparableQuadratic(targets=[1.0, 2.0])
    cfg = make_cfg(
        schedule=RadiusSchedule(kind="power_log", beta=1.0, c_prime=1.0),
        max_sweeps=60,
    )
    blocks, trace = run(problem, scalar_blocks(0.0, 0.0), cfg)
    objectives = [r.objective for r in trace]
    assert all(b <= a + 1e-9 * (1 + a) for a, b in zip(objectives, objectives[1:]))
    assert objectives[-1] <= 1e-6
    assert_allclose([b[0, 0] for b in blocks], [1.0, 2.0], atol=1e-3)


def test_run_trace_is_deterministic():
    problem = BilinearScalar()
    cfg = make_cfg(
        schedule=RadiusSchedule(kind="power_log", beta=0.5, c_prime=1.0),
        max_sweeps=8,
        clock="sweep",
    )
    _, t1 = run(problem, scalar_blocks(2.0, 0.1), cfg)
    _, t2 = run(problem, scalar_blocks(2.0, 0.1), cfg)
    assert t1 == t2  # bitwise-identical records, elapsed included


def test_run_stationarity_stop():
    problem = SeparableQuadratic(targets=[1.0, 2.0])
    cfg = make_cfg(
        schedule=RadiusSchedule(kind="infinite"),
        max_sweeps=50,
        stationarity_stop=1e-8,
    )
    _, trace = run(problem, scalar_blocks(0.0, 0.0), cfg)
    assert trace[-1].stationarity <= 1e-8
    assert trace[-1].n < 50
    # Multiplicative updates keep zeros at zero, so they start inside.
    _, trace = run_mu(problem, scalar_blocks(0.5, 0.5), cfg)
    assert trace[-1].stationarity <= 1e-8
    assert all(r.stationarity > 1e-8 for r in trace[:-1])
    assert trace[-1].n < 50


@pytest.mark.parametrize("runner", [run, run_mu])
def test_run_stops_at_max_seconds(runner):
    # The sweep clock stamps sweep n at n seconds, so the stop is exact.
    problem = SeparableQuadratic(targets=[1.0, 2.0])
    cfg = make_cfg(max_sweeps=10, max_seconds=3.0, clock="sweep")
    _, trace = runner(problem, scalar_blocks(0.5, 0.5), cfg)
    assert [r.n for r in trace] == [0, 1, 2, 3]
    assert [r.elapsed_seconds for r in trace] == [0.0, 1.0, 2.0, 3.0]


def test_run_rejects_infeasible_start():
    problem = SeparableQuadratic(targets=[1.0], box=(0.0, 1.0))
    with pytest.raises(ValueError, match="feasible"):
        run(problem, scalar_blocks(5.0), make_cfg())
    with pytest.raises(ValueError, match="feasible"):
        run_mu(problem, scalar_blocks(-0.5), make_cfg())


def test_solver_config_refuses_an_unknown_clock():
    with pytest.raises(ValueError, match="^clock must be 'wall' or 'sweep', got 'cpu'$"):
        make_cfg(clock="cpu")


@pytest.mark.parametrize("runner", [run, run_mu])
def test_run_refuses_a_start_with_the_wrong_block_count(runner):
    problem = SeparableQuadratic(targets=[1.0, 2.0])
    with pytest.raises(ValueError, match="^expected 2 blocks, got 1$"):
        runner(problem, scalar_blocks(0.5), make_cfg())


@pytest.mark.parametrize("runner", [run, run_mu])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_run_raises_where_the_objective_leaves_the_finite_numbers(runner, value):
    # Non-finite at the start; then finite at the start, and non-finite
    # once sweep 1 has moved the first block from 0.5 towards its target 1.
    problem = NonFiniteAway(targets=[1.0, 2.0], value=value, edge=0.75)
    with pytest.raises(FloatingPointError, match=f"^objective at the initial point is {value}$"):
        runner(problem, scalar_blocks(0.8, 0.5), make_cfg())
    with pytest.raises(FloatingPointError, match=f"^objective became {value} at sweep 1$"):
        runner(problem, scalar_blocks(0.5, 0.5), make_cfg())


def test_run_refuses_a_block_wider_than_the_exact_solve_takes():
    problem = SeparableQuadratic(targets=[np.ones((2, 63))])
    with pytest.raises(ValueError, match="block 0 at sweep 1: block has 63 columns"):
        run(problem, [np.zeros((2, 63))], make_cfg())


def test_run_long_points_match_unconstrained_sweep():
    # Re-running any long sweep without the radius gives the same objective.
    problem = BilinearScalar()
    cfg = make_cfg(
        schedule=RadiusSchedule(kind="power_log", beta=0.5, c_prime=1.0),
        max_sweeps=12,
    )
    blocks = scalar_blocks(1.8, 0.2)
    free_cfg = replace(cfg, schedule=RadiusSchedule(kind="infinite"))
    n_long = 0
    for n in range(1, cfg.max_sweeps + 1):
        incoming = [b.copy() for b in blocks]
        blocks, record = bcd_dr_sweep(problem, blocks, n, cfg)
        if record.point_class == "long":
            _, free_record = bcd_dr_sweep(problem, incoming, n, free_cfg)
            assert_allclose(
                free_record.objective, record.objective, rtol=1e-8, atol=1e-12
            )
            n_long += 1
    assert n_long > 0


# ---------------------------------------------------------------------------
# verify_trace


def run_and_verify(problem, start, cfg):
    _, trace = run(problem, start, cfg)
    return trace, verify_trace(trace, cfg.schedule)


def test_verify_trace_passes_on_real_runs():
    problem = SeparableQuadratic(targets=[1.0, 2.0])
    cfg = make_cfg(
        schedule=RadiusSchedule(kind="power_log", beta=0.5, c_prime=1.0),
        max_sweeps=30,
    )
    _, verdict = run_and_verify(problem, scalar_blocks(0.0, 0.0), cfg)
    assert verdict.all_ok, verdict


def record(n, objective, steps, radius):
    return TraceRecord(
        n=n,
        objective=objective,
        block_step_norms=tuple(steps),
        radius=radius,
        stationarity=0.0,
        point_class=classify_point(steps, radius),
        elapsed_seconds=float(n),
    )


def near(x):
    return pytest.approx(x, rel=1e-12, abs=0.0)


def square_sum_bound(s, num_blocks, n):
    """``m * c'^2 * sum w^2`` over sweeps 1..n."""
    return num_blocks * s.c_prime**2 * float(np.sum(s.weight(np.arange(1, n + 1)) ** 2))


def test_verify_trace_detects_objective_increase():
    s = BINDING
    trace = [
        record(1, 1.0, [0.1, 0.1], 0.5),
        record(2, 2.0, [0.1, 0.1], 0.5),
    ]
    verdict = verify_trace(trace, s)
    assert verdict.outcomes == (
        CheckOutcome("monotone descent", False, near(2.0 - 1.0 - 1e-9 * 2.0), 2),
        # Ties keep the first sweep's excess; a check that held has no sweep.
        CheckOutcome("radius bound", True, near(0.1 - 0.5 * (1 + 1e-12)), None),
        CheckOutcome("square-sum bound", True, near(0.02 - square_sum_bound(s, 2, 1) - 1e-6), None),
    )
    assert not verdict.all_ok


def test_verify_trace_detects_radius_violation():
    s = BINDING
    trace = [
        record(1, 1.0, [0.1, 0.1], 0.5),
        record(2, 0.5, [1.0, 0.1], 0.5),
    ]
    verdict = verify_trace(trace, s)
    # The step beyond the radius also carries the squared steps past
    # m * c'^2 * sum w^2 = 2 * 0.25 * (1 + w_2^2).
    assert verdict.outcomes == (
        CheckOutcome("monotone descent", True, near(0.5 - 1.0 - 1e-9 * 2.0), None),
        CheckOutcome("radius bound", False, near(1.0 - 0.5 * (1 + 1e-12)), 2),
        CheckOutcome("square-sum bound", False, near(0.02 + 1.01 - square_sum_bound(s, 2, 2) - 1e-6), 2),
    )


def test_verify_trace_detects_square_sum_violation():
    s = RadiusSchedule(kind="power_log", beta=1.0, c_prime=0.1)
    # Steps far beyond m * c'^2 * sum w^2 <= 2 * 0.01 * n, inside the
    # recorded radius.
    trace = [record(n, 1.0 / n, [0.5, 0.5], 0.6) for n in range(1, 4)]
    verdict = verify_trace(trace, s)
    assert verdict.outcomes == (
        CheckOutcome("monotone descent", True, near(1 / 3 - 1 / 2 - 1e-9 * 1.5), None),
        CheckOutcome("radius bound", True, near(0.5 - 0.6 * (1 + 1e-12)), None),
        CheckOutcome("square-sum bound", False, near(3 * 0.5 - square_sum_bound(s, 2, 3) - 1e-6), 3),
    )


def test_verify_trace_infinite_radius_and_unbounded_steps():
    # An infinite radius bounds every finite step; only an infinite step
    # breaks it, by an excess that is reported as 0.
    s = RadiusSchedule(kind="infinite")
    trace = [record(0, 1.0, [0.0], math.inf), record(1, 0.5, [1e100], math.inf)]
    assert verify_trace(trace, s).all_ok
    trace.append(record(2, 0.25, [math.inf], math.inf))
    verdict = verify_trace(trace, s)
    assert [outcome.ok for outcome in verdict.outcomes] == [True, False, True]
    assert verdict.outcomes[1] == CheckOutcome("radius bound", False, 0.0, 2)


def test_verify_trace_empty_error():
    with pytest.raises(ValueError):
        verify_trace([], RadiusSchedule())
