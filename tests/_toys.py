"""Tiny block problems used across the driver and acceptance tests."""

import numpy as np

from drbcd.subsolver import QuadraticBlockSubproblem


class SeparableQuadratic:
    """f(U_1..U_m) = sum_i ||U_i - T_i||_F^2 over a shared box."""

    def __init__(self, targets, box=(0.0, 10.0)):
        self.targets = [np.atleast_2d(np.asarray(t, dtype=np.float64)) for t in targets]
        self.box = box

    @property
    def num_blocks(self):
        return len(self.targets)

    def objective(self, blocks):
        return float(
            sum(np.sum((np.asarray(b) - t) ** 2) for b, t in zip(blocks, self.targets))
        )

    def block_subproblem(self, blocks, i):
        t = self.targets[i]
        return QuadraticBlockSubproblem(
            gram=np.eye(t.shape[1]), linear=t, constant=float(np.sum(t**2))
        )

    def block_feasible_box(self, i):
        return self.box

    def full_gradient(self, blocks):
        return [2.0 * (np.asarray(b) - t) for b, t in zip(blocks, self.targets)]


class BilinearScalar:
    """f(x, y) = (x*y - 1)^2 on a box, blocks are 1x1 matrices."""

    def __init__(self, box=(0.0, 2.0)):
        self.box = box

    num_blocks = 2

    def objective(self, blocks):
        x, y = float(blocks[0][0, 0]), float(blocks[1][0, 0])
        return (x * y - 1.0) ** 2

    def block_subproblem(self, blocks, i):
        other = float(blocks[1 - i][0, 0])
        return QuadraticBlockSubproblem(
            gram=np.array([[other**2]]), linear=np.array([[other]]), constant=1.0
        )

    def block_feasible_box(self, i):
        return self.box

    def full_gradient(self, blocks):
        x, y = float(blocks[0][0, 0]), float(blocks[1][0, 0])
        common = 2.0 * (x * y - 1.0)
        return [np.array([[common * y]]), np.array([[common * x]])]


class LinearOnBox:
    """f(u) = <g, u> + offset over a box, as a degenerate quadratic block."""

    def __init__(self, slope, box=(0.0, 1.0), offset=0.0):
        self.slope = np.atleast_2d(np.asarray(slope, dtype=np.float64))
        self.box = box
        self.offset = offset

    num_blocks = 1

    def objective(self, blocks):
        return float(np.sum(self.slope * blocks[0]) + self.offset)

    def block_subproblem(self, blocks, i):
        r = self.slope.shape[1]
        return QuadraticBlockSubproblem(
            gram=np.zeros((r, r)), linear=-self.slope / 2.0, constant=self.offset
        )

    def block_feasible_box(self, i):
        return self.box

    def full_gradient(self, blocks):
        return [self.slope.copy()]


class NonFiniteAway(SeparableQuadratic):
    """A separable quadratic whose objective reads ``value`` (NaN or an
    infinity) wherever the first block's first entry exceeds ``edge``."""

    def __init__(self, targets, value, edge, box=(0.0, 10.0)):
        super().__init__(targets, box)
        self.value, self.edge = value, edge

    def objective(self, blocks):
        if float(np.asarray(blocks[0])[0, 0]) > self.edge:
            return self.value
        return super().objective(blocks)
