import itertools
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
    project_box_ball,
    solve_block_qp,
)

from _oracles import project_box


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


def test_exactly_symmetric_gram_is_kept_and_a_nearly_symmetric_one_averaged():
    a = np.random.default_rng(3).standard_normal((4, 4))
    gram = a + a.T  # symmetric bit for bit
    q = QuadraticBlockSubproblem(gram=gram, linear=np.zeros((2, 4)))
    assert q.gram.tobytes() == gram.tobytes() == ((gram + gram.T) / 2.0).tobytes()
    nearly = gram.copy()
    nearly[0, 1] += 1e-14
    q = QuadraticBlockSubproblem(gram=nearly, linear=np.zeros((2, 4)))
    assert q.gram.tobytes() == ((nearly + nearly.T) / 2.0).tobytes()
    assert np.array_equal(q.gram, q.gram.T)


@pytest.mark.parametrize("radius", [0.3, math.inf])
def test_solve_from_the_center_skips_the_start_checks(monkeypatch, radius):
    # The driver starts every solve at the center: in the box, at distance
    # 0, and its own projection, bit for bit. The solve then neither tests
    # nor projects the start, and still certifies its point with at least
    # one projection when the radius is finite. Entries on both faces.
    rng = np.random.default_rng(8)
    q = random_psd_problem(rng, 6, 3)
    center = rng.random((6, 3))
    center[0, 0], center[1, 2] = 0.0, 1.0
    fs = BoxBallFeasibleSet(lower=0.0, upper=1.0, center=center, radius=radius)
    assert project_box_ball(fs.center, fs).point.tobytes() == fs.center.tobytes()
    assert np.clip(fs.center, 0.0, 1.0).tobytes() == fs.center.tobytes()
    # The same values with other bits (a negative zero) take the checks.
    other = fs.center.copy()
    other[0, 0] = -0.0
    checked = solve_block_qp(q, fs, start=other)

    projections = []

    def count(p, feasible):
        projections.append(p)
        return project_box_ball(p, feasible)

    def no_test(self, p, tol=1e-9):
        raise AssertionError("the center's feasibility was tested")

    monkeypatch.setattr("drbcd.subsolver.project_box_ball", count)
    monkeypatch.setattr(BoxBallFeasibleSet, "contains", no_test)
    fast = solve_block_qp(q, fs, start=fs.center.copy())
    np.testing.assert_array_equal(fast.point, checked.point)
    assert (fast.residual, fast.iterations, fast.converged) == (
        checked.residual, checked.iterations, checked.converged
    )
    assert len(projections) >= (1 if math.isfinite(radius) else 0)
    assert all(p is not fs.center for p in projections)


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


def fail_exact_solves(monkeypatch):
    """Make every exact solve fail as pivoting that meets its round cap does."""
    import drbcd.subsolver as subsolver

    def fail(self, warm):
        raise subsolver._PivotingFailed("forced")

    monkeypatch.setattr(subsolver._ExactBlockSolve, "solve", fail)


def test_solver_fallback_to_start_is_reported(monkeypatch):
    # With the exact solve failing, a step far above 1/L makes the iterates
    # bounce between the box faces, ending worse than the start: the start
    # comes back, reported as not converged and with the start's own
    # fixed-point residual.
    import drbcd.subsolver as subsolver

    fail_exact_solves(monkeypatch)
    monkeypatch.setattr(subsolver, "_lipschitz", lambda gram: 1e-6)
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


def test_failed_pivoting_runs_the_loop_from_the_start(monkeypatch):
    # The loop converges from the start, but the solve still reports that it
    # did not, so the sweep counts it.
    rng = np.random.default_rng(8)
    q = random_psd_problem(rng, 3, 2)
    center = rng.random((3, 2)) * 0.5
    fs = BoxBallFeasibleSet(lower=0.0, upper=1.0, center=center, radius=0.2)
    exact = solve_block_qp(q, fs, start=center)
    assert exact.converged and exact.iterations == 1

    fail_exact_solves(monkeypatch)
    res = solve_block_qp(q, fs, start=center, tol=1e-12, max_iters=5000)
    assert not res.converged
    assert 1 < res.iterations < 5000
    assert res.residual <= 1e-12 * (1.0 + np.linalg.norm(res.point))
    assert np.abs(res.point - exact.point).max() <= 1e-8
    assert fs.contains(res.point, tol=0.0)


def test_solver_with_a_singular_gram_from_a_zero_column():
    # A zero column in block 0 zeroes that row and column of block 1's Gram
    # and that column of its linear term: any value of the column is
    # optimal, and U(0) is not unique. The solve divides by no zero and is
    # certified, and it leaves the column where it was.
    from drbcd.factorization import NtfProblem

    rng = np.random.default_rng(3)
    problem = NtfProblem(rng.random((4, 5, 6)), 3)
    blocks = [rng.random((d, 3)) for d in (4, 5, 6)]
    blocks[0][:, 1] = 0.0
    q = problem.block_subproblem(blocks, 1)
    assert np.linalg.matrix_rank(q.gram) == 2 and not q.linear[:, 1].any()
    for radius in (math.inf, 1e5, 0.1):
        fs = BoxBallFeasibleSet(0.0, problem.box_bound, center=blocks[1], radius=radius)
        with np.errstate(divide="raise", invalid="raise"):
            res = solve_block_qp(q, fs, start=blocks[1])
        assert fs.contains(res.point, tol=0.0)
        assert q.objective(res.point) <= q.objective(blocks[1])
        assert res.converged and res.residual <= 1e-8 * (1.0 + np.linalg.norm(res.point))
        assert np.abs(res.point[:, 1] - blocks[1][:, 1]).max() <= 1e-12


@pytest.mark.parametrize(
    "radius, expected",
    [(math.inf, [[0.5, 1.0], [0.5, 0.0]]), (1.0, [[0.5, 1.0], [0.5, 0.0]])],
)
def test_solver_with_a_singular_gram_and_a_linear_term_off_its_range(radius, expected):
    # q = 2 u_0^2 - 2 u_0 - 2 b u_1 per row: u_1 has no curvature but a
    # slope, so it runs to the face that the slope points at.
    q = QuadraticBlockSubproblem(gram=np.diag([2.0, 0.0]), linear=np.array([[1.0, 0.5], [1.0, -0.5]]))
    center = np.full((2, 2), 0.3)
    fs = BoxBallFeasibleSet(0.0, 1.0, center=center, radius=radius)
    with np.errstate(divide="raise", invalid="raise"):
        res = solve_block_qp(q, fs, start=center)
    assert res.converged
    assert_allclose(res.point, expected, rtol=0.0, atol=1e-12)


def test_exact_solve_settles_where_rounding_blurs_the_radius():
    # Entries of 10 against a radius of 1e-5: ||U - C|| carries rounding of
    # ~1e-10 of the radius, more than the 1e-12 the secular equation is
    # solved to, so the computed distance and the root never agree and the
    # multiplier bracket has to close by bisection.
    gram = np.array([[2.29866618, 4.02078059], [4.02078059, 7.03307626]])
    linear = np.array([[1.19979268, 2.61516979], [-0.40733137, -5.55171036],
                       [0.77479571, 0.74021453], [-1.53056045, -2.63502908],
                       [-3.53580865, 0.56748046]])
    center = np.array([[0.0, 10.0], [10.0, 0.0], [10.0, 0.0], [0.0, 10.0], [0.0, 10.0]])
    fs = BoxBallFeasibleSet(0.0, 1e12, center=center, radius=1e-5)
    res = solve_block_qp(QuadraticBlockSubproblem(gram=gram, linear=linear), fs, start=center)
    assert res.converged and res.iterations == 1
    assert np.linalg.norm(res.point - center) <= 1e-5 + 1e-14 * np.linalg.norm(center)


# ---------------------------------------------------------------------------
# The exact solve against an oracle that enumerates every row's faces


def box_rows_by_enumeration(h, rhs, lo, hi):
    """Per row ``i``, the minimizer of ``u^T h u - 2 u^T rhs_i`` over ``[lo, hi]^r``.

    Tries all ``3^r`` lower/free/upper patterns: the free entries solve
    their block of the normal equations with the others on their faces.
    Each row keeps the pattern whose point breaks the KKT conditions least
    (``h`` is positive definite, so exactly one pattern meets them).
    """
    r = h.shape[0]
    faces = np.array(list(itertools.product((-1, 0, 1), repeat=r)))
    free = faces == 0
    held = np.where(free, 0.0, np.where(faces < 0, lo, hi))
    m = np.where(free[:, :, None] & free[:, None, :], h, np.eye(r))
    b = np.where(free[:, None, :], rhs[None] - (held @ h)[:, None, :], held[:, None, :])
    u = np.linalg.solve(m[:, None], b[..., None])[..., 0]
    y = u @ h - rhs
    scale = np.abs(rhs).max() + np.abs(u).max(axis=(1, 2), keepdims=True) * np.abs(h).max()
    f = free[:, None, :]
    violation = np.maximum.reduce([
        np.where(f, lo - u, -np.inf),
        np.where(f, u - hi, -np.inf),
        np.where(faces[:, None, :] < 0, -y / scale, -np.inf),
        np.where(faces[:, None, :] > 0, y / scale, -np.inf),
    ]).max(axis=2)
    pick = np.argmin(violation, axis=0)
    return u[pick, np.arange(rhs.shape[0])]


def enumeration_oracle(q, fs):
    """Minimizer over box ∩ ball by bisection on the ball multiplier ``mu``.

    At ``mu`` the rows decouple into box QPs with Gram ``G + mu I`` and
    linear term ``B + mu C``, solved by enumeration; the distance from the
    center falls as ``mu`` grows. The bisection runs until the midpoint
    rounds to an end of the bracket, and returns the point inside the ball.
    """
    g, b, c, r = q.gram, q.linear, fs.center, fs.radius
    eye = np.eye(g.shape[0])

    def u_of(mu):
        return box_rows_by_enumeration(g + mu * eye, b + mu * c, fs.lower, fs.upper)

    def outside(mu):
        return float(np.linalg.norm(u_of(mu) - c)) > r

    if math.isinf(r) or not outside(0.0):
        return u_of(0.0)
    lo, hi = 0.0, 1.0
    while outside(hi):
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if outside(mid):
            lo = mid
        else:
            hi = mid
    return u_of(hi)


@st.composite
def block_problems(draw):
    """A block QP with a Gram of condition number up to 1e6, and its box ∩ ball.

    The linear term is scaled so that the unconstrained minimizer leaves the
    box at both faces; centers have entries on both faces; the radius is
    infinite, or from far inside the ball's reach to far outside it.
    """
    d, r = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis, _ = np.linalg.qr(rng.standard_normal((r, r)))
    eigenvalues = np.geomspace(1.0, 10.0 ** -draw(st.floats(0.0, 6.0)), r)
    gram = (basis * (eigenvalues * 10.0 ** draw(st.floats(-2.0, 2.0)))) @ basis.T
    linear = rng.standard_normal((d, r)) * 10.0 ** draw(st.floats(-2.0, 2.0))
    upper = draw(st.sampled_from([0.3, 1.0, 1e12]))
    center = rng.random((d, r)) * min(upper, 1.0)
    on_face = rng.random((d, r))
    center[on_face < draw(st.floats(0.0, 0.5))] = 0.0
    if upper < 1e12:
        center[on_face > 1.0 - draw(st.floats(0.0, 0.5))] = upper
    radius = draw(st.just(math.inf) | st.floats(1e-3, 10.0) | st.floats(1e-3, 1.0))
    q = QuadraticBlockSubproblem(gram=(gram + gram.T) / 2.0, linear=linear)
    return q, BoxBallFeasibleSet(lower=0.0, upper=upper, center=center, radius=radius)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=block_problems())
def test_exact_solve_matches_the_enumeration_oracle(case):
    q, fs = case
    res = solve_block_qp(q, fs, start=fs.center)
    u = res.point
    assert res.converged
    assert fs.lower <= u.min() and u.max() <= fs.upper
    assert np.linalg.norm(u - fs.center) <= fs.radius * (1.0 + 1e-12)
    oracle = enumeration_oracle(q, fs)
    f, f_oracle = q.objective(u), q.objective(oracle)
    # Relative to the size of the terms whose difference the objective is.
    scale = abs(f_oracle) + float(np.sum((oracle @ q.gram) * oracle))
    assert abs(f - f_oracle) <= 1e-12 * scale
