"""Diminishing-radius weight schedules.

A schedule supplies the per-sweep weight ``w_n`` in ``(0, 1]`` and the block
search radius ``c' * w_n``. The convergence guarantee of the radius-restricted
block descent needs the weights to be non-summable but square-summable. For
the ``power_log`` family ``n**(-beta) / log(n + log_offset)`` both hold
exactly when ``beta`` lies in ``[0.5, 1]``: the sum diverges for ``beta <=
1``, and the squared log divisor keeps the square sum finite down to ``beta
= 1/2``. The ``infinite`` kind, plain unrestricted descent, has an infinite
radius.

``log_offset`` guards the log divisor, which would vanish at ``n = 1``
without it. Weights are clamped at 1 so the declared ``(0, 1]`` range holds
at small ``n``. Logarithms are natural throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RadiusSchedule"]

KINDS = ("power_log", "infinite")


@dataclass(frozen=True)
class RadiusSchedule:
    """Weight sequence ``w_n`` and search radius ``c' * w_n``.

    kind:
        ``power_log``  w_n = min(1, n**(-beta) / log(n + log_offset))
        ``infinite``   radius(n) = +inf for all n (plain unrestricted descent)

    ``power_log`` meets the paper's weight hypotheses (non-summable,
    square-summable) exactly for ``beta`` in ``[0.5, 1]``; ``infinite`` is
    not square-summable.
    """

    kind: str = "power_log"
    beta: float = 1.0
    c_prime: float = 1e5
    log_offset: int = 1

    def __post_init__(self):
        # An integer beta would make ``n ** (-beta)`` an integer power.
        object.__setattr__(self, "beta", float(self.beta))
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "power_log" and not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if not self.c_prime > 0.0:
            raise ValueError(f"c_prime must be positive, got {self.c_prime}")
        if self.log_offset < 1:
            raise ValueError(f"log_offset must be a positive integer, got {self.log_offset}")

    def weight(self, n):
        """Weight ``w_n`` for sweep ``n >= 1``; accepts scalars or arrays."""
        arr = np.asarray(n)
        if np.any(arr < 1):
            raise ValueError("sweep index n must be >= 1")
        if self.kind == "power_log":
            w = np.minimum(
                1.0, arr ** (-self.beta) / np.log(arr + float(self.log_offset))
            )
        else:  # infinite: weights are a formality, the radius never binds
            w = np.ones(arr.shape)
        return float(w) if np.isscalar(n) else w

    def radius(self, n):
        """Search radius ``c' * w_n``; ``+inf`` for the infinite kind."""
        return (math.inf if self.kind == "infinite" else self.c_prime) * self.weight(n)
