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

Each generator writes its tensor once, into one buffer, the result, and
holds no other tensor-sized array. The low-rank family multiplies the first
loading matrix by the Khatri-Rao product of the others, and adds its noise
in chunks. The surrogate takes its two uniform draws per entry, the one
that decides the nonzeros and the one that gives the magnitudes, in
lockstep chunks from two generators on one key (see
:func:`sparse_surrogate`). A chunk is a range of entries from
:func:`drbcd.tensors._row_slabs`, whose float64 draws fill one slab.
Chunking keeps the stream: ``random`` and ``standard_normal`` consume the
generator's output entry by entry, in C order, so draws of ``n`` and then
``m`` entries are the first ``n + m`` entries of one draw of ``n + m``, bit
for bit. A tensor is therefore the same for every chunk size, and the same
as one whole-tensor draw.

Each tensor is returned read-only, together with the array that owns its
memory, so that :class:`drbcd.factorization.NtfProblem` shares it instead of
copying it; a caller who wants to modify one takes a ``.copy()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .factorization import FactorModel
from .tensors import _khatri_rao_native, _read_only, _row_slabs, frobenius_norm

__all__ = ["SynthSpec", "synthetic_lowrank", "sparse_surrogate"]

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

    The tensor is ``U0 @ K.T``, reshaped, with ``K`` the Khatri-Rao product
    of the other loading matrices: the plain CP sum of rank-1 outer
    products, formed in one GEMM.
    """
    if not 1 <= spec.rank <= min(spec.dims):
        raise ValueError(
            f"rank must lie in [1, min(dims)] = [1, {min(spec.dims)}], got {spec.rank}"
        )
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    factors = [rng.random((d, spec.rank)) for d in spec.dims]
    # The chain starts from a row of ones, so that a one-mode tensor is
    # U0's row sums; times that row, U1 keeps its bits.
    chain = [np.ones((1, spec.rank))] + factors[1:]
    x = (factors[0] @ _khatri_rao_native(chain).T).reshape(spec.dims)
    if spec.noise_level > 0.0:
        sigma = spec.noise_level * frobenius_norm(x) / np.sqrt(x.size)
        flat = x.reshape(-1)
        for start, stop in _row_slabs(flat.size, flat.itemsize):
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

    One uniform draw per entry decides the nonzeros, an entry being nonzero
    where its draw is below ``density``, then one more per entry gives the
    magnitudes: the first ``N`` draws of the seed's stream, then the next
    ``N``, for ``N`` entries. Both are taken in lockstep chunks, with no
    tensor-sized mask: a second generator on the same key is moved past the
    first ``N`` draws (Philox advances by blocks of four draws, the rest are
    drawn and dropped). A chunk's first draws are taken into the result,
    compared with ``density``, and overwritten by its magnitudes, which the
    comparison then zeroes, all while the chunk is in cache. The mean and the
    rescale to the target are whole-tensor passes. The tensor is nonnegative
    by construction, so its mean is its mean absolute entry.
    """
    if spec.target_mean_abs is None:
        raise ValueError("sparse_surrogate requires target_mean_abs")
    size = prod(spec.dims)
    pattern = np.random.Generator(np.random.Philox(key=spec.seed))
    skipped = np.random.Philox(key=spec.seed)
    skipped.advance(size // 4)
    skipped.random_raw(size % 4)
    magnitudes = np.random.Generator(skipped)
    x = np.empty(spec.dims)
    flat = x.reshape(-1)
    for start, stop in _row_slabs(size, flat.itemsize):
        part = flat[start:stop]
        pattern.random(out=part)
        keep = part < spec.density
        magnitudes.random(out=part)
        part *= keep
    mean = float(np.mean(x))
    if mean == 0.0:
        raise ValueError(
            "surrogate came out identically zero; increase density or dims"
        )
    x *= spec.target_mean_abs / mean
    return _read_only(x)
