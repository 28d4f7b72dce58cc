import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from drbcd.subsolver import (
    BoxBallFeasibleSet,
    QuadraticBlockSubproblem,
    lipschitz_estimate,
    project_ball,
    project_box,
    project_box_ball,
    solve_block_qp,
)


def random_psd_problem(rng, d, r, scale=1.0):
    k = rng.standard_normal((r + 2, r))
    gram = k.T @ k * scale
    linear = rng.standard_normal((d, r)) * scale
    return QuadraticBlockSubproblem(gram=gram, linear=linear, constant=0.0)


def grid_points(lo, hi, step):
    return np.arange(lo, hi + step / 2, step)


def grid_min_objective(q, feasible, lo, hi, step):
    """Dense grid search over the feasible box-ball set (flattened vars)."""
    shape = feasible.center.shape
    nvars = int(np.prod(shape))
    axes = [grid_points(lo, hi, step) for _ in range(nvars)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    center = feasible.center.ravel()
    keep = np.ones(len(pts), dtype=bool)
    if not math.isinf(feasible.radius):
        keep &= np.linalg.norm(pts - center, axis=1) <= feasible.radius
    keep &= (pts >= feasible.lower).all(axis=1) & (pts <= feasible.upper).all(axis=1)
    pts = pts[keep]
    vals = np.array([q.objective(p.reshape(shape)) for p in pts])
    idx = int(np.argmin(vals))
    return float(vals[idx]), pts[idx].reshape(shape)


# ---------------------------------------------------------------------------
# Elementary projections


def test_project_box_identity_and_clamps():
    p = np.array([[0.5, -2.0], [7.0, 1.0]])
    out = project_box(p, 0.0, 5.0)
    assert_allclose(out, [[0.5, 0.0], [5.0, 1.0]])
    inside = np.array([[1.0, 2.0]])
    assert_allclose(project_box(inside, 0.0, 5.0), inside)
    # Idempotent.
    assert_allclose(project_box(out, 0.0, 5.0), out)


def test_project_ball_cases():
    c = np.zeros((1, 1))
    assert_allclose(project_ball(c, c, 1.0), c)
    assert_allclose(project_ball(np.array([[3.0]]), c, 1.0), [[1.0]])
    p = np.array([[3.0, 4.0]])
    assert_allclose(project_ball(p, np.zeros((1, 2)), 5.0), p)
    assert_allclose(project_ball(p, np.zeros((1, 2)), math.inf), p)


def test_project_box_ball_point_already_feasible():
    fs = BoxBallFeasibleSet(lower=0.0, upper=2.0, center=np.full((1, 2), 0.5), radius=1.0)
    p = np.array([[0.6, 0.7]])
    res = project_box_ball(p, fs)
    assert res.converged
    assert_allclose(res.point, p)


def test_project_box_ball_known_answer():
    # p = (2, -1), box [0, inf)^2 approximated with a huge upper bound,
    # ball center origin radius 1: the projection is (1, 0).
    fs = BoxBallFeasibleSet(lower=0.0, upper=1e12, center=np.zeros((1, 2)), radius=1.0)
    res = project_box_ball(np.array([[2.0, -1.0]]), fs)
    assert_allclose(res.point, [[1.0, 0.0]], atol=1e-9)


def test_project_box_ball_infinite_radius_is_box_projection():
    fs = BoxBallFeasibleSet(lower=0.0, upper=1.0, center=np.zeros((2, 2)), radius=math.inf)
    p = np.array([[2.0, -0.5], [0.3, 0.4]])
    res = project_box_ball(p, fs)
    assert_allclose(res.point, project_box(p, 0.0, 1.0))
    assert res.converged and res.cycles == 0


def test_project_box_ball_exact_for_orthant_ball_at_corner():
    # With the ball centered at the box corner and radius below the upper
    # bound, the projection is the radial shrink of the clamped point.
    rng = np.random.default_rng(42)
    for _ in range(25):
        p = rng.standard_normal((1, 3)) * 2.0
        radius = 0.5 + rng.random()
        fs = BoxBallFeasibleSet(lower=0.0, upper=5.0, center=np.zeros((1, 3)), radius=radius)
        expected = project_ball(project_box(p, 0.0, 5.0), fs.center, radius)
        res = project_box_ball(p, fs)
        assert_allclose(res.point, expected, atol=1e-9)


def test_project_box_ball_feasibility_and_idempotence():
    rng = np.random.default_rng(1)
    for _ in range(20):
        center = rng.random((2, 2))
        fs = BoxBallFeasibleSet(lower=0.0, upper=1.0, center=center, radius=0.3)
        p = rng.standard_normal((2, 2)) * 2.0
        res = project_box_ball(p, fs)
        z = res.point
        assert z.min() >= -1e-12
        assert z.max() <= 1.0 + 1e-12
        assert np.linalg.norm(z - center) <= 0.3 * (1 + 1e-12) + 1e-10
        res2 = project_box_ball(z, fs)
        assert np.linalg.norm(res2.point - z) <= 2e-9


def test_project_box_ball_nonexpansive():
    rng = np.random.default_rng(2)
    tol = 1e-10
    for _ in range(20):
        center = rng.random((1, 3))
        fs = BoxBallFeasibleSet(lower=0.0, upper=1.0, center=center, radius=0.4)
        a = rng.standard_normal((1, 3))
        b = rng.standard_normal((1, 3))
        pa = project_box_ball(a, fs).point
        pb = project_box_ball(b, fs).point
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 2 * tol + 1e-8


def test_project_box_ball_exact_where_alternation_needs_many_cycles():
    # Alternating box and ball projections approach (1, 0) only in the
    # limit; the exact projection lands on it.
    fs = BoxBallFeasibleSet(lower=0.0, upper=1e12, center=np.zeros((1, 2)), radius=1.0)
    res = project_box_ball(np.array([[5.0, -3.0]]), fs)
    assert res.converged
    assert np.array_equal(res.point, [[1.0, 0.0]])


def bisection_projection(p, fs):
    """Projection onto box ∩ ball by bisection on the ball multiplier.

    For ``mu >= 0`` the box-constrained minimizer of
    ``||z - p||^2 + mu ||z - c||^2`` is ``clip((p + mu c) / (1 + mu))``; its
    distance from ``c`` falls as ``mu`` grows, and the projection is the one
    at the smallest ``mu`` that brings it inside the ball. The bisection runs
    until the midpoint rounds to an end of the bracket.
    """
    lo, hi, c, r = fs.lower, fs.upper, fs.center, fs.radius

    def z_of(mu):
        return np.clip((p + mu * c) / (1.0 + mu), lo, hi)

    def outside(mu):
        return float(np.linalg.norm(z_of(mu) - c)) > r

    if math.isinf(r) or not outside(0.0):
        return z_of(0.0)
    mu_lo, mu_hi = 0.0, 1.0
    while outside(mu_hi):
        mu_lo, mu_hi = mu_hi, 2.0 * mu_hi
    while (mid := 0.5 * (mu_lo + mu_hi)) not in (mu_lo, mu_hi):
        if outside(mid):
            mu_lo = mid
        else:
            mu_hi = mid
    return z_of(mu_hi)


@st.composite
def box_ball_points(draw):
    """A point, a box ``[0, upper]``, a center in it and a radius.

    Some center entries sit on a face and some entries of ``p - c`` are 0.
    """
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    n = shape[0] * shape[1]
    upper = draw(st.sampled_from([0.3, 1.0, 1e12]))
    fraction = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    center = np.array(draw(st.lists(fraction, min_size=n, max_size=n))).reshape(shape)
    center *= min(upper, 1.0)
    move = st.just(0.0) | st.floats(-3.0, 3.0)
    p = center + np.array(draw(st.lists(move, min_size=n, max_size=n))).reshape(shape)
    radius = draw(st.floats(1e-3, 2.0))
    return p, BoxBallFeasibleSet(lower=0.0, upper=upper, center=center, radius=radius)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=box_ball_points(), other=st.floats(-3.0, 3.0))
def test_project_box_ball_matches_bisection(case, other):
    p, fs = case
    res = project_box_ball(p, fs)
    z = res.point
    assert res.converged
    assert res.cycles <= z.size + 1
    scale = 1.0 + float(np.abs(p).max())
    assert np.abs(z - bisection_projection(p, fs)).max() <= 1e-12 * scale
    assert fs.lower <= z.min() and z.max() <= fs.upper
    assert np.linalg.norm(z - fs.center) <= fs.radius * (1.0 + 1e-12)
    assert np.abs(project_box_ball(z, fs).point - z).max() <= 1e-12 * scale
    q = p + other
    zq = project_box_ball(q, fs).point
    assert np.linalg.norm(z - zq) <= np.linalg.norm(p - q) * (1.0 + 1e-12) + 1e-12 * scale


@pytest.mark.parametrize(
    "p, center, upper, radius, expected",
    [
        # Entries with p_i = c_i stay put while the others move.
        ([[0.5, 3.0, -2.0]], [[0.5, 0.2, 0.3]], 1.0, 0.5, [[0.5, 0.2 + math.sqrt(0.25 - 0.09), 0.0]]),
        # A center on the lower face, pushed further out: that entry stays.
        ([[-1.0, 4.0]], [[0.0, 0.0]], 1e12, 2.0, [[0.0, 2.0]]),
        # The upper face binds, and the other entry takes up the rest.
        ([[3.0, 1.0]], [[0.8, 0.5]], 1.0, 0.5, [[1.0, 0.5 + math.sqrt(0.25 - 0.04)]]),
    ],
)
def test_project_box_ball_explicit_cases(p, center, upper, radius, expected):
    fs = BoxBallFeasibleSet(lower=0.0, upper=upper, center=np.array(center), radius=radius)
    res = project_box_ball(np.array(p), fs)
    assert res.converged and res.cycles >= 1
    assert_allclose(res.point, expected, rtol=0.0, atol=1e-15)


def test_project_box_ball_ball_projection_inside_box_is_the_answer():
    fs = BoxBallFeasibleSet(lower=0.0, upper=1.0, center=np.full((1, 2), 0.5), radius=0.1)
    p = np.array([[0.9, 0.5]])
    res = project_box_ball(p, fs)
    assert res.cycles == 0
    assert np.array_equal(res.point, project_ball(p, fs.center, fs.radius))


# ---------------------------------------------------------------------------
# Lipschitz estimate


def test_lipschitz_identity():
    q = QuadraticBlockSubproblem(gram=np.eye(3), linear=np.zeros((2, 3)))
    assert_allclose(lipschitz_estimate(q), 2.0, rtol=1e-5)


def test_lipschitz_diag():
    q = QuadraticBlockSubproblem(gram=np.diag([1.0, 4.0]), linear=np.zeros((1, 2)))
    assert_allclose(lipschitz_estimate(q), 8.0, rtol=1e-5)


def test_lipschitz_matches_eigensolver():
    rng = np.random.default_rng(3)
    for _ in range(10):
        k = rng.standard_normal((7, 5))
        q = QuadraticBlockSubproblem(gram=k.T @ k, linear=np.zeros((2, 5)))
        top = float(np.linalg.eigvalsh(q.gram)[-1])
        assert_allclose(lipschitz_estimate(q), 2.0 * top, rtol=1e-4)


def test_lipschitz_zero_matrix_floor():
    q = QuadraticBlockSubproblem(gram=np.zeros((2, 2)), linear=np.zeros((1, 2)))
    assert lipschitz_estimate(q) == 1e-12


def test_gram_symmetry_enforced():
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticBlockSubproblem(gram=np.array([[1.0, 0.5], [0.0, 1.0]]), linear=np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# solve_block_qp


def test_solver_unconstrained_optimum_inside():
    # q(u) = ||u - b||^2 with gram = I; b strictly inside, start at b.
    b = np.array([[0.4, 0.5]])
    q = QuadraticBlockSubproblem(gram=np.eye(2), linear=b, constant=float(np.sum(b**2)))
    fs = BoxBallFeasibleSet(lower=0.0, upper=1.0, center=b, radius=1.0)
    res = solve_block_qp(q, fs, start=b)
    assert_allclose(res.point, b)
    assert res.residual <= 1e-12


def test_solver_1d_clamped_to_ball():
    # minimize (u - 3)^2 over [0, 10] with |u| <= 1: answer 1.
    q = QuadraticBlockSubproblem(
        gram=np.array([[1.0]]), linear=np.array([[3.0]]), constant=9.0
    )
    fs = BoxBallFeasibleSet(lower=0.0, upper=10.0, center=np.zeros((1, 1)), radius=1.0)
    res = solve_block_qp(q, fs, start=np.zeros((1, 1)))
    assert_allclose(res.point, [[1.0]], atol=1e-7)


def test_solver_matches_grid_oracle_small_instances():
    rng = np.random.default_rng(4)
    for trial in range(10):
        d, r = (1, 2) if trial % 2 == 0 else (2, 1)
        q = random_psd_problem(rng, d, r)
        center = rng.random((d, r)) * 0.1
        fs = BoxBallFeasibleSet(lower=0.0, upper=0.2, center=center, radius=0.15)
        res = solve_block_qp(q, fs, start=center, tol=1e-10)
        f_solver = q.objective(res.point)
        f_grid, _ = grid_min_objective(q, fs, 0.0, 0.2, 1e-3)
        assert f_solver <= f_grid + 1e-6 * (1.0 + abs(f_grid))
        assert fs.contains(res.point, tol=1e-9)


def test_solver_feasible_output_and_descent():
    rng = np.random.default_rng(5)
    for _ in range(15):
        d, r = rng.integers(1, 4), rng.integers(1, 4)
        q = random_psd_problem(rng, int(d), int(r), scale=rng.random() * 3 + 0.1)
        center = rng.random((int(d), int(r)))
        fs = BoxBallFeasibleSet(lower=0.0, upper=1.5, center=center, radius=0.25)
        res = solve_block_qp(q, fs, start=center)
        assert res.point.min() >= -1e-15
        assert res.point.max() <= 1.5 + 1e-15
        assert np.linalg.norm(res.point - center) <= 0.25 * (1 + 1e-12)
        assert q.objective(res.point) <= q.objective(center) + 1e-12


def test_solver_inner_objective_monotone_debug_flag():
    rng = np.random.default_rng(6)
    q = random_psd_problem(rng, 2, 3)
    center = rng.random((2, 3)) * 0.5
    fs = BoxBallFeasibleSet(lower=0.0, upper=1.0, center=center, radius=0.3)
    res = solve_block_qp(q, fs, start=center, debug=True)
    assert fs.contains(res.point)


def test_solver_infinite_radius_reduces_to_box_least_squares():
    rng = np.random.default_rng(7)
    for _ in range(5):
        q = random_psd_problem(rng, 1, 2)
        center = rng.random((1, 2)) * 0.1
        fs = BoxBallFeasibleSet(lower=0.0, upper=0.2, center=center, radius=math.inf)
        res = solve_block_qp(q, fs, start=center, tol=1e-10)
        f_grid, _ = grid_min_objective(q, fs, 0.0, 0.2, 1e-3)
        assert q.objective(res.point) <= f_grid + 1e-6 * (1.0 + abs(f_grid))


def test_solver_rejects_infeasible_start():
    q = QuadraticBlockSubproblem(gram=np.eye(1), linear=np.zeros((1, 1)))
    fs = BoxBallFeasibleSet(lower=0.0, upper=1.0, center=np.zeros((1, 1)), radius=0.5)
    with pytest.raises(ValueError, match="infeasible"):
        solve_block_qp(q, fs, start=np.array([[0.9]]))


def test_feasible_set_requires_center_in_box():
    with pytest.raises(ValueError, match="center"):
        BoxBallFeasibleSet(lower=0.0, upper=1.0, center=np.array([[2.0]]), radius=0.5)


def test_solver_fallback_to_start_is_reported(monkeypatch):
    # A step far above 1/L makes the iterates bounce between the box faces,
    # ending worse than the start: the start comes back, reported as not
    # converged and with the start's own fixed-point residual.
    import drbcd.subsolver as subsolver

    monkeypatch.setattr(subsolver, "lipschitz_estimate", lambda q: 1e-6)
    b = np.full((1, 2), 5.0)
    q = QuadraticBlockSubproblem(gram=np.eye(2), linear=b, constant=float(np.sum(b**2)))
    start = b + 0.01
    fs = BoxBallFeasibleSet(lower=0.0, upper=10.0, center=start, radius=math.inf)
    res = solve_block_qp(q, fs, start=start, max_iters=5)
    assert np.array_equal(res.point, start)
    assert not res.converged
    # The huge step from the start lands below the box, which clamps it to 0.
    assert res.residual == pytest.approx(5.01 * math.sqrt(2.0))


def test_solver_fallback_after_convergence_is_not_converged():
    # The inner loop converges, but the objective rates its point above the
    # start (as rounding can near a tie): the fallback must not read as
    # converged, and its residual is the start's, far from the tolerance.
    class PrefersStart(QuadraticBlockSubproblem):
        def objective(self, u):
            return super().objective(u) + (0.0 if np.array_equal(u, start) else 1.0)

    b = np.array([[0.4, 0.5]])
    start = np.array([[0.3, 0.6]])
    q = PrefersStart(gram=np.eye(2), linear=b, constant=float(np.sum(b**2)))
    fs = BoxBallFeasibleSet(lower=0.0, upper=1.0, center=start, radius=1.0)
    res = solve_block_qp(q, fs, start=start)
    assert np.array_equal(res.point, start)
    assert not res.converged
    step = start - q.gradient(start) / lipschitz_estimate(q)
    expected = np.linalg.norm(start - project_box_ball(step, fs).point)
    assert res.residual == pytest.approx(expected)
    assert res.residual > 1e-3
