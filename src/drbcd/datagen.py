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

The low-rank generator writes its tensor once, into one buffer, the
result, and holds no other tensor-sized array: it multiplies the first
loading matrix by the Khatri-Rao product of the others, block of rows by
block of rows, the blocks shared among the dense passes' threads (see
:func:`synthetic_lowrank`), and adds its noise in chunks, in the calling
thread. The surrogate forms no tensor at all: it searches its pattern's
draws chunk by chunk for the nonzeros, in one block of entries per pass
thread, draws their magnitudes, one per nonzero, from a second stream in
the calling thread and returns the coordinates, a
:class:`drbcd.tensors.SparseTensor` (see :func:`sparse_surrogate`).
Chunks are ranges of entries from :func:`drbcd.tensors._row_slabs`.
Chunking keeps the stream: ``random`` and ``standard_normal`` consume the
generator's output entry by entry, in C order, so draws of ``n`` and then
``m`` entries are the first ``n + m`` entries of one draw of ``n + m``, bit
for bit. A tensor is therefore the same for every chunk size, and the same
as one whole-tensor draw; so is a surrogate, whose ``dense()`` tensor has
those bits, and whose pattern blocks each start their own generator where
the one stream would be (see :func:`_draws_below`).

The low-rank tensor, and each of the surrogate's two lists, is returned
read-only, together with the array that owns its memory, so that
:class:`drbcd.factorization.NtfProblem` shares it instead of copying it; a
caller who wants to modify one takes a ``.copy()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, inf, prod

import numpy as np

from .factorization import FactorModel
from .tensors import (
    SparseTensor,
    _khatri_rao_native,
    _product_blocks,
    _read_only,
    _row_slabs,
    _scratch,
    _slab_map,
    frobenius_norm,
)

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
        if not 0.0 <= self.noise_level < inf:
            raise ValueError(f"noise_level must be finite and nonnegative, got {self.noise_level}")
        if not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must lie in (0, 1], got {self.density}")
        if self.target_mean_abs is not None and not 0.0 < self.target_mean_abs < inf:
            raise ValueError(
                f"target_mean_abs must be finite and positive, got {self.target_mean_abs}"
            )


def synthetic_lowrank(spec: SynthSpec) -> tuple[np.ndarray, FactorModel]:
    """Exactly low-rank nonnegative tensor plus its generating model.

    Loading matrices have i.i.d. uniform ``[0, 1]`` entries. A positive
    ``noise_level`` adds Gaussian noise scaled to
    ``noise_level * ||X||_F / sqrt(X.size)`` per entry, clamped at zero to
    keep the tensor nonnegative; it is added chunk by chunk, in place.

    The tensor is ``U0 @ K.T``, reshaped, with ``K`` the Khatri-Rao product
    of the other loading matrices: the plain CP sum of rank-1 outer
    products. Where it is large enough, the product is formed in row blocks
    of ``U0``, one GEMM each, shared among the dense passes' threads by
    :func:`drbcd.tensors._slab_map`; the blocks are sized by
    :func:`drbcd.tensors._product_blocks` so that each has the whole
    product's bits. Else it is one GEMM. The noise is drawn in the calling
    thread: ``standard_normal`` takes a varying number of draws per entry,
    so a chunk's place in the stream is known only once the chunks before
    it are drawn.
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
    k_t = _khatri_rao_native(chain).T
    x = np.empty((spec.dims[0], k_t.shape[1]))

    def fill(start: int, stop: int) -> None:
        np.matmul(factors[0][start:stop], k_t, out=x[start:stop])

    _slab_map(fill, _product_blocks(*x.shape))
    x = x.reshape(spec.dims)
    if spec.noise_level > 0.0:
        sigma = spec.noise_level * frobenius_norm(x) / np.sqrt(x.size)
        flat = x.reshape(-1)
        for start, stop in _row_slabs(flat.size, flat.itemsize):
            part = flat[start:stop]
            part += sigma * rng.standard_normal(stop - start)
            np.maximum(part, 0.0, out=part)
    return _read_only(x), FactorModel(factors=factors)


def sparse_surrogate(spec: SynthSpec) -> SparseTensor:
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

    The result is a :class:`~drbcd.tensors.SparseTensor` at every density,
    whose :meth:`~drbcd.tensors.SparseTensor.dense` is the tensor described,
    bit for bit, and no tensor-sized array is formed: the positions of the
    nonzeros, drawn in blocks shared among the pass threads (see
    :func:`_draws_below`), then one draw of the second stream for all of
    them. A magnitude of exactly 0 (probability 2**-53 a draw)
    stays listed; :class:`~drbcd.factorization.NtfProblem` drops listed
    zeros, and decides whether the data stays a list or becomes a tensor
    (``SPARSE_SHARE``).
    """
    if spec.target_mean_abs is None:
        raise ValueError("sparse_surrogate requires target_mean_abs")
    size = prod(spec.dims)
    magnitudes = np.random.Generator(np.random.Philox(key=spec.seed).jumped())
    positions = _draws_below(spec.seed, size, spec.density)
    values = magnitudes.random(positions.shape[0])
    mean = fsum(values) / size
    if mean == 0.0:
        raise ValueError(
            "surrogate came out identically zero; increase density or dims"
        )
    values *= spec.target_mean_abs / mean
    return SparseTensor(spec.dims, _read_only(positions), _read_only(values))


def _draws_below(seed: int, size: int, density: float) -> np.ndarray:
    """The positions, ascending, of the draws below ``density`` among the
    first ``size`` of ``Generator(Philox(key=seed))``.

    The entries are split into one block per thread of the dense passes:
    :func:`drbcd.tensors._product_blocks` of ``size // 4`` rows of 4
    entries, the last block ending at ``size``, so that every block starts
    on a multiple of 4. Philox gives four 64-bit outputs a counter step and
    ``random`` takes one a draw, so a block starting at entry ``start``
    draws from its own ``Philox(key=seed, counter=start // 4)``, the one
    stream advanced by ``start // 4`` steps, with its bits. The blocks are
    shared among threads by :func:`drbcd.tensors._slab_map`; each draws its
    entries chunk by chunk (see :func:`drbcd.tensors._row_slabs`) into its
    thread's ``"chunk"`` scratch (see :func:`drbcd.tensors._scratch`), and
    the caller joins every block's pieces once. At 90x500x100 on 2 cores, one BLAS thread, the
    draws took 14.2-15.5 ms, against 26.6-27.2 ms in one block and
    17.5-19.9 ms split into chunks of 64 KB, whose Python work, under the
    GIL, weighs more (medians of 15 calls, three rounds). A generator for
    every chunk of 8,192 entries, in place of one a block, was hardly
    faster than one block.
    """

    def block(start: int, stop: int) -> list[np.ndarray]:
        generator = np.random.Generator(np.random.Philox(key=seed, counter=start // 4))
        found = []
        for low, high in _row_slabs(stop - start, 8):
            part = _scratch("chunk", (high - low,))
            generator.random(out=part)
            found.append(np.flatnonzero(part < density) + (start + low))
        return found

    blocks = [(4 * low, 4 * high) for low, high in _product_blocks(size // 4, 4)]
    blocks[-1] = (blocks[-1][0], size)
    return np.concatenate([piece for found in _slab_map(block, blocks) for piece in found])
