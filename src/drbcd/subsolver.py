"""Convex quadratic block sub-problems over a box intersected with a ball.

Each block step of the radius-restricted descent minimizes

    q(U) = tr(U G U^T) - 2 tr(U B^T) + const

over ``{lower <= U <= upper} ∩ {||U - center||_F <= radius}``. The solver is
projected gradient with a ``1/L`` step, where ``L`` estimates the gradient's
Lipschitz constant ``2 lambda_max(G)``; the projection onto the intersection
uses Dykstra's alternating scheme with exact fast paths when only one
constraint is active.

The returned block never has a larger sub-problem objective than the starting
point, which is what the outer sweep's monotone-descent guarantee rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "QuadraticBlockSubproblem",
    "BoxBallFeasibleSet",
    "ProjectionResult",
    "BlockSolveResult",
    "project_box",
    "project_ball",
    "project_box_ball",
    "lipschitz_estimate",
    "solve_block_qp",
]

# Deterministic start vector for the power iteration; a fixed pseudo-random
# direction avoids starts orthogonal to the leading eigenvector.
_POWER_SEED = 0x5EED

GRAM_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class QuadraticBlockSubproblem:
    """Normal-equation form of one least-squares block step.

    ``gram`` is r x r symmetric PSD, ``linear`` is d x r, and
    ``objective(U) = tr(U gram U^T) - 2 tr(U linear^T) + constant``.
    The gram matrix is symmetrized on construction (tolerance 1e-12).
    """

    gram: np.ndarray
    linear: np.ndarray
    constant: float = 0.0

    def __post_init__(self):
        gram = np.asarray(self.gram, dtype=np.float64)
        linear = np.asarray(self.linear, dtype=np.float64)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError(f"gram must be square, got shape {gram.shape}")
        if linear.ndim != 2 or linear.shape[1] != gram.shape[0]:
            raise ValueError(
                f"linear term shape {linear.shape} incompatible with gram {gram.shape}"
            )
        asym = float(np.max(np.abs(gram - gram.T), initial=0.0))
        scale = float(np.max(np.abs(gram), initial=0.0))
        if asym > GRAM_SYMMETRY_TOL * (1.0 + scale):
            raise ValueError(f"gram matrix is not symmetric (max asymmetry {asym:g})")
        object.__setattr__(self, "gram", (gram + gram.T) / 2.0)
        object.__setattr__(self, "linear", linear)

    @property
    def rank(self) -> int:
        return self.gram.shape[0]

    def objective(self, u: np.ndarray) -> float:
        u = np.asarray(u, dtype=np.float64)
        return float(
            np.sum((u @ self.gram) * u) - 2.0 * np.sum(u * self.linear) + self.constant
        )

    def gradient(self, u: np.ndarray) -> np.ndarray:
        return 2.0 * (np.asarray(u, dtype=np.float64) @ self.gram - self.linear)


@dataclass(frozen=True)
class BoxBallFeasibleSet:
    """Entrywise box intersected with a Frobenius ball around ``center``.

    ``center`` must itself satisfy the box constraint, so the intersection is
    never empty. ``radius`` may be ``math.inf``, degrading the set to the box.
    """

    lower: float
    upper: float
    center: np.ndarray = field(repr=False)
    radius: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64)
        if self.lower > self.upper:
            raise ValueError(f"empty box: lower {self.lower} > upper {self.upper}")
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        cmin = float(center.min(initial=self.lower))
        cmax = float(center.max(initial=self.upper))
        if cmin < self.lower - 1e-12 or cmax > self.upper + 1e-12:
            raise ValueError("center must lie inside the box")
        object.__setattr__(
            self, "center", np.clip(center, self.lower, self.upper)
        )

    def contains(self, p: np.ndarray, tol: float = 1e-9) -> bool:
        p = np.asarray(p, dtype=np.float64)
        if float(p.min(initial=self.lower)) < self.lower - tol:
            return False
        if float(p.max(initial=self.upper)) > self.upper + tol:
            return False
        if math.isinf(self.radius):
            return True
        return float(np.linalg.norm(p - self.center)) <= self.radius * (1.0 + 1e-12) + tol


class ProjectionResult(NamedTuple):
    point: np.ndarray
    converged: bool
    cycles: int


class BlockSolveResult(NamedTuple):
    point: np.ndarray
    residual: float
    iterations: int
    converged: bool


def project_box(p, lower: float, upper: float) -> np.ndarray:
    """Entrywise clamp of ``p`` into ``[lower, upper]``."""
    if lower > upper:
        raise ValueError(f"empty box: lower {lower} > upper {upper}")
    return np.clip(np.asarray(p, dtype=np.float64), lower, upper)


def project_ball(p, center, radius: float) -> np.ndarray:
    """Euclidean projection of ``p`` onto the Frobenius ball around ``center``."""
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    p = np.asarray(p, dtype=np.float64)
    if math.isinf(radius):
        return p.copy()
    diff = p - center
    dist = float(np.linalg.norm(diff))
    if dist <= radius:
        return p.copy()
    return center + (radius / dist) * diff


def project_box_ball(
    p,
    feasible: BoxBallFeasibleSet,
    tol: float = 1e-10,
    max_cycles: int = 200,
) -> ProjectionResult:
    """Euclidean projection of ``p`` onto box ∩ ball.

    When one constraint alone resolves the projection the answer is exact in
    a single pass; otherwise Dykstra's alternating projections run until the
    box and ball iterates agree within ``tol``. The returned point is always
    feasible: the final ball projection of a box point stays inside the box
    because the ball center does.
    """
    if max_cycles < 1:
        raise ValueError("max_cycles must be at least 1")
    p = np.asarray(p, dtype=np.float64)
    lo, hi, c, r = feasible.lower, feasible.upper, feasible.center, feasible.radius

    boxed = np.clip(p, lo, hi)
    if math.isinf(r) or float(np.linalg.norm(boxed - c)) <= r:
        return ProjectionResult(boxed, True, 0)
    balled = project_ball(p, c, r)
    if float(balled.min(initial=lo)) >= lo and float(balled.max(initial=hi)) <= hi:
        return ProjectionResult(balled, True, 0)

    x = p.copy()
    u = np.zeros_like(p)
    v = np.zeros_like(p)
    converged = False
    cycles = 0
    for cycles in range(1, max_cycles + 1):
        t = np.clip(x + u, lo, hi)
        u = x + u - t
        x = project_ball(t + v, c, r)
        v = t + v - x
        if float(np.linalg.norm(t - x)) <= tol:
            converged = True
            break
    # t is in the box; pulling it onto the ball keeps it in the box since the
    # segment from the (box-feasible) center is box-feasible.
    z = project_ball(t, c, r)
    return ProjectionResult(z, converged, cycles)


def lipschitz_estimate(
    q: QuadraticBlockSubproblem, tol: float = 1e-12, max_iters: int = 500
) -> float:
    """Estimate the gradient Lipschitz constant ``2 lambda_max(gram)``.

    Power iteration from a fixed pseudo-random start; returns a hair above
    twice the converged Rayleigh quotient so the ``1/L`` step never exceeds
    the true stable step. Falls back to a small floor for a zero matrix.
    """
    g = q.gram
    r = g.shape[0]
    scale = float(np.max(np.abs(g), initial=0.0))
    if scale == 0.0:
        return 1e-12
    rng = np.random.Generator(np.random.Philox(key=_POWER_SEED))
    v = rng.standard_normal(r)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iters):
        w = g @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            # start happened to be in the null space; perturb deterministically
            v = v + 1.0 / (1.0 + np.arange(r))
            v /= np.linalg.norm(v)
            continue
        v = w / norm
        lam_new = float(v @ (g @ v))
        if abs(lam_new - lam) <= tol * (1.0 + abs(lam_new)):
            lam = lam_new
            break
        lam = lam_new
    return max(2.0 * lam * (1.0 + 1e-6), 1e-12)


def solve_block_qp(
    q: QuadraticBlockSubproblem,
    feasible: BoxBallFeasibleSet,
    start: np.ndarray,
    tol: float = 1e-8,
    max_iters: int = 500,
    dykstra_tol: float = 1e-10,
    dykstra_max_cycles: int = 200,
    debug: bool = False,
) -> BlockSolveResult:
    """Projected-gradient minimization of ``q`` over box ∩ ball.

    Stops when the fixed-point residual ``||U - P(U - grad/L)||_F`` drops
    below ``tol * (1 + ||U||_F)`` or after ``max_iters`` steps, reporting the
    achieved residual. The result never has a larger objective than ``start``
    (the previous block value), which keeps every outer sweep monotone: when
    the last iterate is worse, the start is returned with ``converged=False``
    and the start's own fixed-point residual.

    With ``debug=True`` the inner objective is asserted non-increasing at
    every step.
    """
    start = np.asarray(start, dtype=np.float64)
    if start.shape != feasible.center.shape:
        raise ValueError(
            f"start shape {start.shape} does not match center {feasible.center.shape}"
        )
    if not feasible.contains(start, tol=1e-8 * (1.0 + float(np.abs(start).max(initial=0.0)))):
        raise ValueError("start point is infeasible for the box/ball constraints")

    lip = lipschitz_estimate(q)
    step = 1.0 / lip

    def _project(y: np.ndarray) -> np.ndarray:
        if math.isinf(feasible.radius):
            return np.clip(y, feasible.lower, feasible.upper)
        return project_box_ball(y, feasible, dykstra_tol, dykstra_max_cycles).point

    # Keep the start exactly feasible (contains() allows a whisper of slack).
    u0 = _project(start)
    u = u0
    f_prev = q.objective(u) if debug else 0.0
    residual = math.inf
    converged = False
    iterations = 0
    for k in range(1, max_iters + 1):
        grad = q.gradient(u)
        if not np.isfinite(grad).all():
            raise FloatingPointError(f"non-finite gradient at inner iteration {k}")
        u_next = _project(u - step * grad)
        residual = float(np.linalg.norm(u - u_next))
        if debug:
            f_next = q.objective(u_next)
            assert f_next <= f_prev + 1e-12 * (1.0 + abs(f_prev)), (
                f"inner objective increased at iteration {k}: {f_prev} -> {f_next}"
            )
            f_prev = f_next
        u = u_next
        iterations = k
        if residual <= tol * (1.0 + float(np.linalg.norm(u))):
            converged = True
            break
    if not np.isfinite(u).all():
        raise FloatingPointError(f"non-finite iterate at inner iteration {iterations}")

    # Descent contract: never return a point worse than the start. A run
    # that had to fall back did not converge, and its residual is the
    # start's, so it describes the point returned.
    if q.objective(u) > q.objective(u0):
        u = u0.copy()
        residual = float(np.linalg.norm(u0 - _project(u0 - step * q.gradient(u0))))
        converged = False
    return BlockSolveResult(u, residual, iterations, converged)
