"""Convex quadratic block sub-problems over a box intersected with a ball.

Each block step of the radius-restricted descent minimizes

    q(U) = tr(U G U^T) - 2 tr(U B^T) + const

over ``{lower <= U <= upper} ∩ {||U - center||_F <= radius}``, exactly.
For a ball multiplier ``mu >= 0`` the rows decouple into box QPs with Gram
``G + mu I``. Block principal pivoting (Kim & Park 2011) solves them all at
once, and Newton steps on the secular equation of the trust-region step
(Moré & Sorensen 1983) find ``mu``; the two alternate until the faces are
optimal at a multiplier complementary to the ball. One projected-gradient
step with a ``1/L`` step, where ``L`` is a hair above the gradient's
Lipschitz constant ``2 lambda_max(G)`` from one eigenvalue solve, then
certifies the exact point: its fixed-point residual must fall below
:data:`CERTIFICATE_TOL`. Every solve starts at the ball's center, the
block's previous value. When pivoting fails, that one step is taken from
the center instead, and the solve reports that it did not converge.

The step projects exactly onto the intersection: a clamp or a radial shrink
when one constraint alone decides it, else the clamped ray from the center
that meets the sphere, found in at most one closed-form re-solve per entry.

The returned block never has a larger sub-problem objective than the center,
which is what the outer sweep's monotone-descent guarantee rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "QuadraticBlockSubproblem",
    "BoxBallFeasibleSet",
    "ProjectionResult",
    "BlockSolveResult",
    "project_ball",
    "project_box_ball",
    "lipschitz_estimate",
    "solve_block_qp",
]

GRAM_SYMMETRY_TOL = 1e-12
# Relative fixed-point residual below which the certifying step accepts the
# exact point (see :func:`solve_block_qp`).
CERTIFICATE_TOL = 1e-8
# The largest rank (a block's column count) that the exact solve takes: its
# free patterns are bit masks in an int64. A wider block is refused.
MAX_RANK = 62


def _norm(x: np.ndarray) -> float:
    """The Frobenius norm of a float64 array, as ``np.linalg.norm`` computes it.

    One ``dot`` of ``x.ravel(order="K")`` and a square root, the same bits
    without the argument handling, which costs more than the sum on a block.
    """
    flat = x.ravel(order="K")
    return math.sqrt(float(flat.dot(flat)))


@dataclass(frozen=True)
class QuadraticBlockSubproblem:
    """Normal-equation form of one least-squares block step.

    ``gram`` is r x r symmetric PSD, ``linear`` is d x r, and
    ``objective(U) = tr(U gram U^T) - 2 tr(U linear^T) + constant``.
    The gram matrix is symmetrized on construction (tolerance 1e-12); one
    that is symmetric bit for bit is kept as it is, which averaging would
    leave unchanged.
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
        if not np.array_equal(gram, gram.T):
            asym = float(np.max(np.abs(gram - gram.T), initial=0.0))
            scale = float(np.max(np.abs(gram), initial=0.0))
            if asym > GRAM_SYMMETRY_TOL * (1.0 + scale):
                raise ValueError(f"gram matrix is not symmetric (max asymmetry {asym:g})")
            gram = (gram + gram.T) / 2.0
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "linear", linear)

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
        # Negated, so that a NaN bound or center entry fails them: every
        # comparison with NaN is false, and min and max propagate it.
        if not self.lower <= self.upper:
            raise ValueError(f"empty box: need lower <= upper, got {self.lower} and {self.upper}")
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        cmin = float(center.min(initial=self.lower))
        cmax = float(center.max(initial=self.upper))
        if not (cmin >= self.lower - 1e-12 and cmax <= self.upper + 1e-12):
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
        return _norm(p - self.center) <= self.radius * (1.0 + 1e-12) + tol


class ProjectionResult(NamedTuple):
    point: np.ndarray
    converged: bool
    cycles: int


class BlockSolveResult(NamedTuple):
    point: np.ndarray
    residual: float
    iterations: int
    converged: bool


def project_ball(p, center, radius: float) -> np.ndarray:
    """Euclidean projection of ``p`` onto the Frobenius ball around ``center``."""
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    p = np.asarray(p, dtype=np.float64)
    if math.isinf(radius):
        return p.copy()
    diff = p - center
    dist = _norm(diff)
    if dist <= radius:
        return p.copy()
    return center + (radius / dist) * diff


def project_box_ball(p, feasible: BoxBallFeasibleSet) -> ProjectionResult:
    """Exact Euclidean projection of ``p`` onto box ∩ ball.

    When one constraint alone resolves the projection the answer takes one
    pass. Otherwise the projection is ``x(t) = clip(c + t (p - c))`` at the
    ``t`` in (0, 1) where ``||x(t) - c|| = r``: entry ``i`` sits on the box
    face that ``p_i - c_i`` points at once ``t |p_i - c_i|`` reaches that
    face's distance from ``c_i``. From the ball projection's ``t`` (a lower
    bound), ``t`` is re-solved with the saturated entries held at their faces
    until the saturated set stops growing; ``t`` rises to the root and the
    set only grows, so there is at most one re-solve per entry. ``cycles``
    counts the re-solves and ``converged`` is always true. The point
    returned lies in the box exactly; a last ball projection absorbs the
    rounding of ``t``.
    """
    p = np.asarray(p, dtype=np.float64)
    lo, hi, c, r = feasible.lower, feasible.upper, feasible.center, feasible.radius

    boxed = np.clip(p, lo, hi)
    if math.isinf(r) or _norm(boxed - c) <= r:
        return ProjectionResult(boxed, True, 0)
    balled = project_ball(p, c, r)
    if float(balled.min(initial=lo)) >= lo and float(balled.max(initial=hi)) <= hi:
        return ProjectionResult(balled, True, 0)

    d = p - c
    step = np.abs(d)
    # Distance from the center to the face each entry moves towards.
    gap = np.where(d > 0.0, hi - c, c - lo)
    t = r / _norm(d)
    saturated = t * step >= gap
    count = cycles = 0
    while (grown := int(np.count_nonzero(saturated))) > count:
        count = grown
        free = np.where(saturated, 0.0, step)
        held = np.where(saturated, gap, 0.0)
        free_sq = float(np.vdot(free, free))
        if free_sq == 0.0:
            # Every moving entry is on its face: only rounding gets here, as
            # the boxed point lies outside the ball. The ball projection
            # below takes the boxed point onto the sphere.
            break
        t = math.sqrt(max(r * r - float(np.vdot(held, held)), 0.0) / free_sq)
        cycles += 1
        # Cumulative, so the set only grows even if rounding nudges t down.
        saturated |= t * step >= gap
    z = project_ball(np.clip(c + t * d, lo, hi), c, r)
    # Shrinking towards the in-box center keeps z in the box up to one
    # rounding of each entry; the clip removes that and only moves z closer
    # to the center.
    return ProjectionResult(np.clip(z, lo, hi, out=z), True, cycles)


def lipschitz_estimate(q: QuadraticBlockSubproblem) -> float:
    """A hair above the gradient Lipschitz constant ``2 lambda_max(gram)`` of
    ``q``, or a small floor for a zero Gram.

    The ``1/L`` step it gives never exceeds the stable step of projected
    gradient on ``q``.
    """
    top = float(np.linalg.eigvalsh(q.gram)[-1])
    return max(2.0 * top * (1.0 + 1e-6), 1e-12)


# Caps on the exact solve: pivoting rounds in all, past which the solve
# reports failure and the certifying step is taken from the center instead,
# and Newton steps on one secular equation.
_ROUNDS = 200
_NEWTON_STEPS = 60
# Rounds in a row in which the faces keep changing before the multiplier is
# held still until they settle, as Kim & Park's backup rule makes them do at
# a fixed multiplier.
_HOLD_AFTER = 3
_EPS = float(np.finfo(np.float64).eps)
# Slack of the pivoting's sign tests, in units of the rounding of the terms
# tested: an entry off its bound, or a face multiplier of the wrong sign, by
# rounding alone is left where it is, so ties at a face cannot make the faces
# cycle. The certifying projected-gradient step clips what the slack lets by.
_SIGN_SLACK = 64.0 * _EPS
# Relative gap between ||U(mu) - C|| and the radius that the solve accepts;
# Newton on the secular equation stops at a tenth of it.
_RADIUS_TOL = 1e-12


class _PivotingFailed(Exception):
    """Pivoting met its round cap or a free block it cannot solve."""


class _ExactBlockSolve:
    """The exact minimizer of ``q`` over box ∩ ball, by rows.

    For a ball multiplier ``mu >= 0`` each row ``u`` minimizes
    ``u^T (G + mu I) u - 2 u^T (b + mu c)`` over the box. ``state`` marks
    every entry: -1 on the lower face, 0 free, +1 on the upper face. With
    the faces fixed, the free entries of a row solve
    ``(G_FF + mu I) (u_F - c_F) = g_F`` with ``g = b - G v``, where ``v``
    is the row with its free entries at the center and the others on their
    faces. Rows that share a free pattern share ``G_FF``, whose eigenpairs
    ``G_FF = Q diag(lam) Q^T`` are computed once per solve. A row keeps
    ``z = Q^T g``, which does not depend on ``mu``; then
    ``u_F = c_F + Q (z / (lam + mu))``, and ``||U(mu) - C||^2`` is the
    secular function ``phi(mu) = sum_k s_k / (lam_k + mu)^2 + const``.
    Each row keeps its pattern's eigenpairs next to ``z`` from the moment
    its faces are fixed, so solving it at another ``mu`` gathers nothing.
    The test for coefficients along singular directions runs only once a
    pattern with an eigenvalue at or below the singular threshold has come
    up in the solve.

    Each round takes ``mu`` from the current faces' secular function, solves
    every row at it and exchanges the entries that break the KKT conditions
    there. Faces with no violation at a ``mu`` are optimal at that ``mu``;
    they end the solve when ``mu`` is complementary to the ball, and else
    narrow a bracket on the optimal ``mu``. Patterns are bit masks, so the
    rank is at most :data:`MAX_RANK`.
    """

    def __init__(self, q: QuadraticBlockSubproblem, feasible: BoxBallFeasibleSet):
        self.gram, self.linear = q.gram, q.linear
        self.center = feasible.center
        self.lower, self.upper, self.radius = feasible.lower, feasible.upper, feasible.radius
        d, r = self.center.shape
        trace = float(np.trace(self.gram))
        # Diagonal of the bound entries in the padded r x r free blocks; it
        # only has to keep those directions away from the singular test.
        self.filler = trace if trace > 0.0 else 1.0
        self.singular = 16.0 * r * _EPS * trace
        # A multiplier bracket this narrow is closed; it stays wider than
        # the singular test, so a bracket shrinking to 0 closes first.
        self.mu_tol = 64.0 * r * _EPS * self.filler
        self.bits = 1 << np.arange(r)
        self.diag = np.arange(r)
        self.gram_rows = float(np.abs(self.gram).sum(axis=1).max(initial=0.0))
        self.linear_max = float(np.abs(self.linear).max(initial=0.0))
        self.center_max = float(np.abs(self.center).max(initial=0.0))
        # Eigenpairs of each free pattern met so far, by slot, and whether
        # any of them has an eigenvalue at or below the singular test.
        self.slot: dict[int, int] = {}
        self.lam, self.vecs = np.empty((0, r)), np.empty((0, r, r))
        self.singular_met = False
        # Per row: faces, the row with free entries at the center, the slot
        # of its pattern and that pattern's eigenpairs, z, and the last
        # point solved.
        self.state = np.zeros((d, r), dtype=np.int8)
        self.v, self.z, self.u = np.empty((d, r)), np.empty((d, r)), np.empty((d, r))
        self.slots = np.zeros(d, dtype=np.intp)
        self.row_lam, self.row_vecs = np.empty((d, r)), np.empty((d, r, r))

    def eigen(self, patterns: np.ndarray) -> np.ndarray:
        """Slots in ``self.lam``/``self.vecs`` of the free patterns' eigenpairs.

        A pattern's bit ``k`` is set when entry ``k`` is free. Its ``G_FF``
        is padded to ``r x r`` with the filler on the bound entries'
        diagonal.
        """
        codes = patterns.tolist()
        new = [c for c in codes if c not in self.slot]
        if new:
            masks = (np.array(new)[:, None] & self.bits) != 0
            padded = self.gram * (masks[:, :, None] & masks[:, None, :])
            padded[:, self.diag, self.diag] += np.where(masks, 0.0, self.filler)
            lam, vecs = np.linalg.eigh(padded)
            # eigh sorts each pattern's eigenvalues in ascending order.
            self.singular_met |= bool((lam[:, 0] <= self.singular).any())
            self.slot.update(zip(new, range(len(self.slot), len(self.slot) + len(new))))
            self.lam = np.concatenate([self.lam, lam])
            self.vecs = np.concatenate([self.vecs, vecs])
        return np.array([self.slot[c] for c in codes], dtype=np.intp)

    def set_faces(self, rows, faces: np.ndarray) -> None:
        """Fix the faces of ``rows`` (an index array or a slice) and update what depends on them alone."""
        free = faces == 0
        v = np.where(free, self.center[rows], np.where(faces < 0, self.lower, self.upper))
        codes = free @ self.bits
        patterns = np.unique(codes)
        slots = self.eigen(patterns)[np.searchsorted(patterns, codes)]
        g = np.where(free, self.linear[rows] - v @ self.gram, 0.0)
        lam, vecs = self.lam[slots], self.vecs[slots]
        z = np.matmul(g[:, None, :], vecs)[:, 0]
        # Along a singular direction of G_FF, a coefficient that is rounding
        # alone is zero: a zero column in another block zeroes that column
        # of G and of B, and every value of it is then optimal, so it stays
        # at the center. A larger one leaves the faces no minimizer at 0.
        if self.singular_met:
            null = lam <= self.singular
            z[null & (np.abs(z) <= _SIGN_SLACK * np.abs(g).sum(axis=1, keepdims=True))] = 0.0
        self.state[rows], self.v[rows], self.slots[rows], self.z[rows] = faces, v, slots, z
        self.row_lam[rows], self.row_vecs[rows] = lam, vecs

    def exchange(self, rows, mu: float, best: np.ndarray) -> np.ndarray:
        """Solve ``rows`` at ``mu`` into ``self.u``, and exchange the faces that break the KKT conditions.

        Returns the indices of the rows whose faces changed. Per row, every
        infeasible entry is exchanged while the row's count of them drops
        below its lowest yet, ``best``, else only the last one (Kim & Park
        2011's backup rule).
        """
        z = self.z[rows]
        scale = self.row_lam[rows] + mu
        # mu >= 0, so only a pattern with a singular eigenvalue can fail.
        if self.singular_met and np.any((scale <= self.singular) & (z != 0.0)):
            raise _PivotingFailed("singular free block")
        coef = np.divide(z, scale, out=np.zeros_like(z), where=z != 0.0)
        step = np.einsum("dkj,dj->dk", self.row_vecs[rows], coef)
        state, v = self.state[rows], self.v[rows]
        free = state == 0
        u = np.where(free, v + step, v)
        self.u[rows] = u

        y = u @ self.gram + mu * (u - self.center[rows]) - self.linear[rows]
        u_max = max(float(np.abs(u).max(initial=0.0)), self.center_max)
        tol_u = _SIGN_SLACK * u_max
        tol_y = _SIGN_SLACK * (u_max * self.gram_rows + self.linear_max + 2.0 * mu * u_max)
        below = free & (u < self.lower - tol_u)
        above = free & (u > self.upper + tol_u)
        wrong = below | above | ((state < 0) & (y < -tol_y)) | ((state > 0) & (y > tol_y))
        count = np.count_nonzero(wrong, axis=1)
        bad = np.flatnonzero(count)
        if bad.size == 0:
            return bad
        changed = np.arange(len(self.state))[rows][bad]
        count, wrong = count[bad], wrong[bad]
        full = count < best[changed]
        best[changed] = np.minimum(best[changed], count)
        exchange = wrong & full[:, None]
        single = np.flatnonzero(~full)
        exchange[single, wrong.shape[1] - 1 - np.argmax(wrong[single, ::-1], axis=1)] = True
        faces = state[bad]
        faces[exchange & ~free[bad]] = 0
        faces[exchange & below[bad]] = -1
        faces[exchange & above[bad]] = 1
        self.set_faces(changed, faces)
        return changed

    def multiplier(self, mu: float, lo: float, hi: float, zero: float | None) -> float:
        """The ball multiplier that the current faces call for, in ``[lo, hi]``.

        ``zero`` when it is given and the faces keep ``U(zero)`` in the
        ball. Else the root in ``(lo, hi)`` of ``1/sqrt(phi(mu)) - 1/radius``,
        by Newton steps (Moré & Sorensen 1983) from ``mu`` with bisection
        whenever a step leaves the bracket. When ``phi`` has no root there,
        the faces are wrong there, and the midpoint comes back, so that the
        bracket halves once they settle.
        """
        free = self.state == 0
        bound = np.where(free, 0.0, self.v - self.center)
        const = float(np.vdot(bound, bound))
        # Squared coefficients summed over the rows of each pattern.
        s = (self.slots == np.arange(len(self.lam))[:, None]) @ (self.z * self.z)
        keep = s > 0.0
        lam, s = np.maximum(self.lam[keep], 0.0), s[keep]
        floor = float(lam.min(initial=math.inf))
        scale = self.radius**-2

        @cache
        def excess(m: float) -> tuple[float, float]:
            """``phi(m) / radius^2 - 1``, and ``-phi'(m) / radius^2``; once per ``m``."""
            if m + floor <= 0.0:
                return math.inf, math.inf
            t = 1.0 / (lam + m)
            st2 = s * t * t
            return (float(st2.sum()) + const) * scale - 1.0, 2.0 * float(np.vdot(st2, t)) * scale

        if zero is not None and excess(zero)[0] <= 0.0:
            return zero
        middle = 0.5 * (lo + hi)
        if excess(hi)[0] > 0.0 or excess(lo)[0] < 0.0:
            return middle
        bracket = lo, hi
        mu = min(max(mu, lo), hi)
        for _ in range(_NEWTON_STEPS):
            e, slope = excess(mu)
            if abs(e) <= 0.1 * _RADIUS_TOL:
                break
            if e > 0.0:
                lo = mu
            else:
                hi = mu
            # psi / psi' for psi = 1/sqrt(phi) - 1/radius, in units of radius^2.
            new = mu + 2.0 * (1.0 + e) * (math.sqrt(1.0 + e) - 1.0) / slope if slope > 0.0 else math.nan
            if not lo < new < hi:
                new = 0.5 * (lo + hi)
            if new == mu:
                break
            mu = new
        # An end of the bracket has already been solved; the middle makes
        # progress where rounding keeps the two from agreeing on the root.
        return mu if bracket[0] < mu < bracket[1] else middle

    def solve(self) -> np.ndarray:
        """The minimizer, with the faces started from the center's support."""
        c, radius = self.center, self.radius
        d, r = c.shape
        if self.lower == self.upper:
            return c.copy()
        self.set_faces(
            slice(None),
            np.where(c <= self.lower, -1, np.where(c >= self.upper, 1, 0)).astype(np.int8),
        )
        # Strong convexity of q + mu ||U - C||^2 keeps its minimizer over the
        # box within ||grad q(C)|| / (2 mu) of C: inside the ball at hi.
        lo, hi = 0.0, 0.0
        if not math.isinf(radius):
            hi = _norm(c @ self.gram - self.linear) / radius
            if hi == 0.0:
                return c.copy()
        # The smallest multiplier tried, while no optimal faces there are
        # known to leave the ball. When the faces have no minimizer at 0, the
        # smallest multiplier the bracket resolves stands in for it.
        zero: float | None = 0.0
        inside = None  # U at the top of the bracket, once solved
        best = np.full(d, r + 1)
        mu, rows, unsettled = 0.0, slice(None), 0
        for _ in range(_ROUNDS):
            if unsettled < _HOLD_AFTER:
                new = zero if math.isinf(radius) else self.multiplier(mu, lo, hi, zero)
                if new != mu:
                    mu, rows = new, slice(None)
            try:
                rows = self.exchange(rows, mu, best)
            except _PivotingFailed:
                if mu >= self.mu_tol:
                    raise
                zero, mu, rows, unsettled = self.mu_tol, self.mu_tol, slice(None), 0
                continue
            if rows.size:
                unsettled += 1
                if unsettled == _HOLD_AFTER:
                    best[:] = r + 1
                continue
            # The faces are optimal at mu: U(mu) is exact.
            unsettled, rows = 0, slice(None)
            best[:] = r + 1
            dist = _norm(self.u - c)
            if mu == zero and (math.isinf(radius) or dist <= radius):
                return self.u.copy()
            # The distance carries the rounding of U - C as well.
            rounding = 4.0 * _EPS * (_norm(self.u) + _norm(c))
            if abs(dist - radius) <= _RADIUS_TOL * radius + rounding:
                return self.u.copy()
            if dist > radius:
                lo, zero = mu, None
            else:
                hi, inside = mu, self.u.copy()
            if hi - lo <= self.mu_tol + 4.0 * _EPS * hi and inside is not None:
                return inside
        raise _PivotingFailed("round cap")


def solve_block_qp(
    q: QuadraticBlockSubproblem,
    feasible: BoxBallFeasibleSet,
    start: np.ndarray | None = None,
    tol: float = CERTIFICATE_TOL,
    max_iters: int = 500,
) -> BlockSolveResult:
    """Exact minimization of ``q`` over box ∩ ball, certified by one projected-gradient step.

    The solve starts at ``feasible.center``, the block's previous value:
    in the box, at distance 0 from the center, and its own projection. The
    exact minimizer (see :class:`_ExactBlockSolve`), or the center when
    pivoting fails, takes one projected-gradient step ``P(U - grad/L)``
    through :func:`project_box_ball`, with ``L`` from
    :func:`lipschitz_estimate`, and the stepped point is returned with the
    step's fixed-point residual ``||U - P(U - grad/L)||_F``; ``iterations``
    is always 1. ``converged`` is true only when the exact solve succeeded
    and that residual is at most ``tol * (1 + ||P(U - grad/L)||_F)``. The
    result never has a larger objective than the center, which keeps every
    outer sweep monotone: when the stepped point is worse, the center is
    returned with its own fixed-point residual, and ``converged`` is true
    only when the exact solve succeeded and that residual passes the test
    (a tie at the optimum, up to rounding).

    The exact solve takes blocks of at most :data:`MAX_RANK` (62) columns;
    a wider block raises ``ValueError``. ``start``, ``tol`` and
    ``max_iters`` stay because the benchmark's ``bench/kernels.py`` passes
    them: a ``start`` other than the center in value raises ``ValueError``,
    and ``max_iters`` is not read.
    """
    center = feasible.center
    if start is not None and not np.array_equal(start, center):
        raise ValueError("start must be the center of the feasible set, where every block solve starts")
    if q.gram.shape[0] > MAX_RANK:
        raise ValueError(
            f"block has {q.gram.shape[0]} columns; the exact block solve takes at most {MAX_RANK}"
        )

    def _project(y: np.ndarray) -> np.ndarray:
        return project_box_ball(y, feasible).point

    step = 1.0 / lipschitz_estimate(q)
    try:
        u, exact = _ExactBlockSolve(q, feasible).solve(), True
    except _PivotingFailed:
        u, exact = center, False
    grad = q.gradient(u)
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite gradient at the certifying step")
    stepped = _project(u - step * grad)
    if not np.isfinite(stepped).all():
        raise FloatingPointError("non-finite point after the certifying step")
    residual = _norm(u - stepped)
    converged = exact and residual <= tol * (1.0 + _norm(stepped))

    # Descent contract: never return a point worse than the center. The
    # residual is then the center's, so it describes the point returned,
    # and the solve converged only when that residual certifies the center:
    # an exact point that ties with an optimal center up to rounding.
    if q.objective(stepped) > q.objective(center):
        stepped = center.copy()
        residual = _norm(center - _project(center - step * q.gradient(center)))
        converged = exact and residual <= tol * (1.0 + _norm(center))
    return BlockSolveResult(stepped, residual, 1, converged)
