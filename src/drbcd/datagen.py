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
in chunks. The surrogate draws its pattern from one stream and its
magnitudes, one per nonzero, from a second (see :func:`sparse_surrogate`).
Below :data:`SPARSE_DENSITY` it forms no tensor at all: it searches the
pattern's draws chunk by chunk for the nonzeros, draws their magnitudes
and returns the coordinates, a :class:`drbcd.tensors.SparseTensor`. At or
above it, it draws the same chunks into the tensor. Chunks are ranges of
entries from :func:`drbcd.tensors._row_slabs`. Chunking keeps the stream:
``random`` and ``standard_normal`` consume the generator's output entry
by entry, in C order, so draws of ``n`` and then ``m`` entries are the
first ``n + m`` entries of one draw of ``n + m``, bit for bit. A tensor is
therefore the same for every chunk size, and the same as one whole-tensor
draw; so is a surrogate's coordinate form, whose ``dense()`` tensor has
those bits.

Each tensor, and each coordinate form's two lists, is returned read-only,
together with the array that owns its memory, so that
:class:`drbcd.factorization.NtfProblem` shares a tensor instead of copying
it; a caller who wants to modify one takes a ``.copy()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import fsum, prod

import numpy as np

from .factorization import FactorModel
from .tensors import SparseTensor, _khatri_rao_native, _read_only, _row_slabs, frobenius_norm

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


# Below this density :func:`sparse_surrogate` returns the coordinates of the
# nonzeros; at or above it, it fills the dense tensor. Median of 11
# alternating builds on one BLAS thread, on a shared 2-core host, in ms, and
# the ``tracemalloc`` peak in MB, of the coordinates / the dense fill; the
# generator alone, then with ``NtfProblem``:
#
#   density  90x500x100                          100x200x300
#            alone            with problem       alone             with problem
#   1%       33/47   0.8/36   53/73   1.9/38     68/81   1.1/48    53/73   2.6/50
#   2%       42/52   1.6/36   38/57   3.9/39     77/96   2.2/48    76/115  5.2/52
#   4%       52/60   3.3/36   64/73   7.8/42     83/93   4.3/48    106/128 10/56
#   5%       48/59   4.1/36   62/76   40/40      87/100  5.4/48    116/136 53/53
#   8%       70/76   6.5/36   88/92   42/42      108/117 8.6/48    124/139 56/56
#   10%      99/102  8.1/36   81/77   43/36      126/149 11/48     163/179 58/58
#   30%      132/134 24/36    165/161 58/36      236/245 32/48     301/253 77/48
#   100%     383/289 81/36    437/255 117/36     519/396 108/48    720/460 156/48
#
# The coordinates are faster up to 8% and tie near 10%. With the problem
# they hold far less below ``factorization.SPARSE_SHARE`` (5%), where it keeps a list, and
# as much up to 8%, where it forms the tensor from them; at 10% they held
# 43 against 36 MB on 90x500x100, and 3x the tensor at full density, which
# is why the dense fill stays. The dense fill's ``fsum`` is most of its time
# at full density (~0.18 s of 4.5M magnitudes).
SPARSE_DENSITY = 0.1


def sparse_surrogate(spec: SynthSpec) -> np.ndarray | SparseTensor:
    """Sparse nonnegative tensor with a prescribed mean absolute entry.

    Each entry is nonzero with probability ``density``; nonzero magnitudes
    start uniform on ``[0, 1)`` and the whole tensor is rescaled so the mean
    absolute value hits ``target_mean_abs`` to within a few units in the
    last place. Deterministic per seed.

    For ``N`` entries, the first ``N`` draws of ``Generator(Philox(key=seed))``
    decide the pattern: an entry is nonzero where its draw is below
    ``density``. A second stream, ``Generator(Philox(key=seed).jumped())``,
    gives the magnitudes, one draw per nonzero in ascending position order.
    Their mean over the whole tensor is ``math.fsum(magnitudes) / N``, which
    is correctly rounded whatever order the magnitudes are summed in, and
    every magnitude is multiplied by ``target_mean_abs`` over it. The tensor
    is nonnegative by construction, so its mean is its mean absolute entry.

    Below :data:`SPARSE_DENSITY` the result is a
    :class:`~drbcd.tensors.SparseTensor`, whose :meth:`~drbcd.tensors.SparseTensor.dense`
    is the tensor described, bit for bit, and no tensor-sized array is
    formed: the positions of the nonzeros (see :func:`_draws_below`), then
    one draw of the second stream for all of them. An entry whose magnitude
    is an exact zero is not listed.

    At or above it the result is the dense tensor, read-only, filled in the
    same chunks of the pattern's draws: a chunk's draws are taken into the
    result, its nonzeros take the second stream's next draws, and the rest of
    the chunk is zeroed. ``fsum`` runs over each chunk's magnitudes as they
    are drawn; the rescale is one whole-tensor pass. Both streams are drawn
    in order whatever the chunk size, so the two forms have the same bits.
    """
    if spec.target_mean_abs is None:
        raise ValueError("sparse_surrogate requires target_mean_abs")
    size = prod(spec.dims)
    pattern = np.random.Generator(np.random.Philox(key=spec.seed))
    magnitudes = np.random.Generator(np.random.Philox(key=spec.seed).jumped())
    if spec.density < SPARSE_DENSITY:
        positions = _draws_below(pattern, size, spec.density)
        values = magnitudes.random(positions.shape[0])
        values *= spec.target_mean_abs / _checked_mean(fsum(values) / size)
        listed = values != 0.0
        if not listed.all():
            positions, values = positions[listed], values[listed]
        return SparseTensor(spec.dims, _read_only(positions), _read_only(values))
    x = np.empty(spec.dims)
    flat = x.reshape(-1)

    def drawn():
        for start, stop in _pattern_chunks(size):
            part = flat[start:stop]
            pattern.random(out=part)
            keep = part < spec.density
            values = magnitudes.random(np.count_nonzero(keep))
            part.fill(0.0)
            part[keep] = values
            yield values.tolist()  # fsum reads a list ~2x faster than an array

    mean = fsum(chain.from_iterable(drawn())) / size
    x *= spec.target_mean_abs / _checked_mean(mean)
    return _read_only(x)


def _checked_mean(mean: float) -> float:
    if mean == 0.0:
        raise ValueError(
            "surrogate came out identically zero; increase density or dims"
        )
    return mean


def _pattern_chunks(size: int) -> list[tuple[int, int]]:
    """The chunks that the surrogate draws its pattern in: ranges of entries
    whose float64 draws fill an eighth of a slab, 64 KB.

    That stays below glibc's default 128 KB mmap threshold. A larger buffer
    is mapped, and freeing it raises that threshold, which keeps later
    temporaries on the heap: with chunks of a whole slab,
    ``surrogate_bound``'s ``peak_rss_mb`` read 0.25-0.48 MB above the dense
    fill's, and 0.12 MB below it with these. The draws took the same time
    with either chunk.
    """
    return _row_slabs(size, 64)


def _draws_below(generator: np.random.Generator, size: int, density: float) -> np.ndarray:
    """The positions, ascending, of the draws below ``density`` among the
    generator's next ``size``, drawn chunk by chunk into one buffer."""
    chunks = _pattern_chunks(size)
    draws = np.empty(chunks[0][1])  # the first chunk is a longest one
    found = []
    for start, stop in chunks:
        part = draws[: stop - start]
        generator.random(out=part)
        found.append(np.flatnonzero(part < density) + start)
    del draws, part
    return np.concatenate(found)
