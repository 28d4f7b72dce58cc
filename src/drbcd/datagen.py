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

Each generator builds its tensor in one buffer, the result, and holds no
other tensor-sized array: the uniform draws that decide the surrogate's
nonzeros are taken, and the low-rank family's noise is added, in chunks of
:data:`CHUNK` entries. Chunking keeps the stream: ``random`` and
``standard_normal`` consume the generator's output entry by entry, in C
order, so draws of ``n`` and then ``m`` entries are the first ``n + m``
entries of one draw of ``n + m``, bit for bit. A tensor is therefore the
same for every chunk size, and the same as one whole-tensor draw.

Each tensor is returned read-only, together with the array that owns its
memory, so that :class:`drbcd.factorization.NtfProblem` shares it instead of
copying it; a caller who wants to modify one takes a ``.copy()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .factorization import FactorModel
from .tensors import SLAB_BYTES, _read_only, cp_reconstruct, frobenius_norm

__all__ = ["SynthSpec", "synthetic_lowrank", "sparse_surrogate"]

# Entries per chunk of draws: the float64 draws of one chunk fill a slab.
CHUNK = SLAB_BYTES // 8


def _chunks(size: int):
    """Consecutive ``(start, stop)`` ranges of at most :data:`CHUNK` entries covering ``range(size)``."""
    for start in range(0, size, CHUNK):
        yield start, min(start + CHUNK, size)


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for the synthetic generators.

    ``rank`` and ``noise_level`` only apply to the low-rank family, which
    checks the rank against ``dims``; ``density`` and ``target_mean_abs``
    only apply to the sparse surrogate.
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
    keep the tensor nonnegative; it is added chunk by chunk, in place.
    """
    if not 1 <= spec.rank <= min(spec.dims):
        raise ValueError(
            f"rank must lie in [1, min(dims)] = [1, {min(spec.dims)}], got {spec.rank}"
        )
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    factors = [rng.random((d, spec.rank)) for d in spec.dims]
    x = cp_reconstruct(factors, np.ones((spec.rank, 1))).reshape(spec.dims)
    if spec.noise_level > 0.0:
        sigma = spec.noise_level * frobenius_norm(x) / np.sqrt(x.size)
        flat = x.reshape(-1)
        for start, stop in _chunks(flat.size):
            part = flat[start:stop]
            part += sigma * rng.standard_normal(stop - start)
            np.maximum(part, 0.0, out=part)
    return _read_only(x), FactorModel(factors=factors)


def sparse_surrogate(spec: SynthSpec) -> np.ndarray:
    """Sparse nonnegative tensor with a prescribed mean absolute entry.

    Each entry is nonzero with probability ``density``; nonzero magnitudes
    start uniform on ``[0, 1)`` and the whole tensor is rescaled so the mean
    absolute value hits ``target_mean_abs`` exactly (well inside any relative
    tolerance). Deterministic per seed.

    One uniform draw per entry decides the nonzeros, then one more per entry
    gives the magnitudes. The first draws are taken in chunks into a boolean
    mask, the second straight into the result, which the mask then zeroes
    and the target rescales in place. The tensor is nonnegative by
    construction, so its mean is its mean absolute entry.
    """
    if spec.target_mean_abs is None:
        raise ValueError("sparse_surrogate requires target_mean_abs")
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    mask = np.empty(prod(spec.dims), dtype=bool)
    for start, stop in _chunks(mask.size):
        np.less(rng.random(stop - start), spec.density, out=mask[start:stop])
    x = rng.random(spec.dims)
    x *= mask.reshape(spec.dims)
    mean = float(np.mean(x))
    if mean == 0.0:
        raise ValueError(
            "surrogate came out identically zero; increase density or dims"
        )
    x *= spec.target_mean_abs / mean
    return _read_only(x)
