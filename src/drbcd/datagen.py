"""Deterministic synthetic tensors for benchmarking.

Generation uses numpy's Philox bit generator, a counter-based generator with
published constants, so a given ``(seed, spec)`` pair produces bitwise
identical tensors on every platform.

Two families:

* :func:`synthetic_lowrank` builds an exactly rank-``r`` nonnegative tensor
  from uniform ``[0, 1]`` loading matrices (optionally with clamped additive
  noise), so the noiseless best rank-``r`` error is exactly zero.
* :func:`sparse_surrogate` builds a mostly-zero tensor whose mean absolute
  entry is rescaled to a target value, standing in for sparse count-like
  data such as tf-idf tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factorization import FactorModel
from .tensors import cp_reconstruct, frobenius_norm

__all__ = ["SynthSpec", "synthetic_lowrank", "sparse_surrogate"]


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for the synthetic generators.

    ``density`` and ``target_mean_abs`` only apply to the sparse surrogate.
    """

    dims: tuple[int, ...]
    rank: int
    seed: int = 0
    noise_level: float = 0.0
    density: float = 1.0
    target_mean_abs: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError(f"dims must be positive integers, got {self.dims}")
        if not 1 <= self.rank <= min(self.dims):
            raise ValueError(
                f"rank must lie in [1, min(dims)] = [1, {min(self.dims)}], got {self.rank}"
            )
        if self.noise_level < 0.0:
            raise ValueError(f"noise_level must be nonnegative, got {self.noise_level}")
        if not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must lie in (0, 1], got {self.density}")
        if self.target_mean_abs is not None and self.target_mean_abs <= 0.0:
            raise ValueError(
                f"target_mean_abs must be positive, got {self.target_mean_abs}"
            )


def synthetic_lowrank(spec: SynthSpec) -> tuple[np.ndarray, FactorModel]:
    """Exactly low-rank nonnegative tensor plus its generating model.

    Loading matrices have i.i.d. uniform ``[0, 1]`` entries. A positive
    ``noise_level`` adds Gaussian noise scaled to
    ``noise_level * ||X||_F / sqrt(X.size)`` per entry, clamped at zero to
    keep the tensor nonnegative.
    """
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    factors = [rng.random((d, spec.rank)) for d in spec.dims]
    x = cp_reconstruct(factors, np.ones((spec.rank, 1)))[..., 0]
    if spec.noise_level > 0.0:
        sigma = spec.noise_level * frobenius_norm(x) / np.sqrt(x.size)
        x = np.maximum(x + sigma * rng.standard_normal(x.shape), 0.0)
    return np.ascontiguousarray(x), FactorModel(factors=factors)


def sparse_surrogate(spec: SynthSpec) -> np.ndarray:
    """Sparse nonnegative tensor with a prescribed mean absolute entry.

    Each entry is nonzero with probability ``density``; nonzero magnitudes
    start uniform on ``[0, 1)`` and the whole tensor is rescaled so the mean
    absolute value hits ``target_mean_abs`` exactly (well inside any relative
    tolerance). Deterministic per seed.
    """
    if spec.target_mean_abs is None:
        raise ValueError("sparse_surrogate requires target_mean_abs")
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    mask = rng.random(spec.dims) < spec.density
    values = rng.random(spec.dims)
    x = np.where(mask, values, 0.0)
    mean = float(np.mean(np.abs(x)))
    if mean == 0.0:
        raise ValueError(
            "surrogate came out identically zero; increase density or dims"
        )
    return np.ascontiguousarray(x * (spec.target_mean_abs / mean))
