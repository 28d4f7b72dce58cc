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
in chunks. The surrogate takes two uniform draws per entry, the one that
decides the nonzeros and the one that gives the magnitudes (see
:func:`sparse_surrogate`). Below :data:`SPARSE_DENSITY` it forms no tensor
at all: it searches the pattern's draws chunk by chunk for the nonzeros,
evaluates the magnitude stream at those alone, which Philox's counters
allow, and returns the coordinates, a :class:`drbcd.tensors.SparseTensor`.
At or above it, it draws both in lockstep chunks from two generators on
one key into the tensor. A chunk is a range of entries from
:func:`drbcd.tensors._row_slabs`, whose float64 draws fill one slab.
Chunking keeps the stream: ``random`` and ``standard_normal`` consume the
generator's output entry by entry, in C order, so draws of ``n`` and then
``m`` entries are the first ``n + m`` entries of one draw of ``n + m``, bit
for bit. A tensor is therefore the same for every chunk size, and the same
as one whole-tensor draw; so is a surrogate's coordinate form, whose
``dense()`` tensor has those bits.

Each tensor, and each coordinate form's two lists, is returned read-only,
together with the array that owns its memory, so that
:class:`drbcd.factorization.NtfProblem` shares a tensor instead of copying
it; a caller who wants to modify one takes a ``.copy()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from . import tensors
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


# Below this density :func:`sparse_surrogate` evaluates the magnitude stream
# at the nonzeros alone and returns their coordinates; at or above it, it
# fills the dense tensor with both streams. Median of 11 alternating builds
# on one BLAS thread, on a shared 2-core host (coordinates / dense, ms, the
# generator alone, then with ``NtfProblem``), at a density of 1%, 2%, 3%,
# 3.5%, 4% and 4.5%: on 90x500x100 61.7/101.2, 84.9/100.8, 104.6/115.1,
# 109.5/110.2, 116.5/111.7 and 115.6/105.4, then 64.1/111.7, 89.7/113.7,
# 112.5/136.2, 118.3/135.1, 126.8/135.5 and 127.2/132.2; on 100x200x300
# 91.9/151.2, 111.3/147.5, 134.8/154.7, 133.8/144.9, 144.6/148.0 and
# 173.1/167.2, then 95.2/166.0, 119.4/167.7, 146.6/177.7, 146.7/171.2,
# 159.7/179.7 and 192.1/205.9. A nonzero costs the coordinates ~0.4 us (its
# counter evaluation, its share of the pairwise sum, its place in the
# list), an entry costs the dense fill ~10 ns more (the second stream, the
# mean and the rescale), so the generators alone tie near 4%; the problem's
# search of the dense tensor keeps the coordinates ahead up to 4.5%.
SPARSE_DENSITY = 0.04


def sparse_surrogate(spec: SynthSpec) -> np.ndarray | SparseTensor:
    """Sparse nonnegative tensor with a prescribed mean absolute entry.

    Each entry is nonzero with probability ``density``; nonzero magnitudes
    start uniform on ``[0, 1)`` and the whole tensor is rescaled so the mean
    absolute value hits ``target_mean_abs`` exactly (well inside any relative
    tolerance). Deterministic per seed.

    One uniform draw per entry decides the nonzeros, an entry being nonzero
    where its draw is below ``density``, then one more per entry gives the
    magnitudes: the first ``N`` draws of the seed's stream, then the next
    ``N``, for ``N`` entries. The tensor is nonnegative by construction, so
    its mean is its mean absolute entry.

    Below :data:`SPARSE_DENSITY` the result is a
    :class:`~drbcd.tensors.SparseTensor`, whose :meth:`~drbcd.tensors.SparseTensor.dense`
    is the tensor described, bit for bit, and no tensor-sized array is
    formed. The pattern's draws are taken in chunks into one reused buffer
    and searched for the nonzeros. Philox is counter-based, so the
    magnitude of the entry at position ``p`` is evaluated on its own, as
    draw ``N + p`` of the stream (see :func:`_philox_uniform`), and the mean
    is numpy's pairwise sum of the tensor formed from the nonzeros alone
    (see :func:`_pairwise_sum`). An entry whose magnitude is an exact zero
    is not listed.

    At or above it the result is the dense tensor, read-only. Both draws are
    taken in lockstep chunks, with no tensor-sized mask: a second generator
    on the same key is moved past the first ``N`` draws (Philox advances by
    blocks of four draws, the rest are drawn and dropped). A chunk's first
    draws are taken into the result, compared with ``density``, and
    overwritten by its magnitudes, which the comparison then zeroes, all
    while the chunk is in cache. The mean and the rescale to the target are
    whole-tensor passes.
    """
    if spec.target_mean_abs is None:
        raise ValueError("sparse_surrogate requires target_mean_abs")
    if spec.density < SPARSE_DENSITY:
        return _sparse_surrogate_coordinates(spec)
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
    x *= spec.target_mean_abs / _checked_mean(float(np.mean(x)))
    return _read_only(x)


def _checked_mean(mean: float) -> float:
    if mean == 0.0:
        raise ValueError(
            "surrogate came out identically zero; increase density or dims"
        )
    return mean


def _sparse_surrogate_coordinates(spec: SynthSpec) -> SparseTensor:
    """:func:`sparse_surrogate` below :data:`SPARSE_DENSITY`: its nonzeros alone."""
    size = prod(spec.dims)
    pattern = np.random.Generator(np.random.Philox(key=spec.seed))
    positions = _draws_below(pattern, size, spec.density)
    values = _philox_uniform(pattern.bit_generator.state["state"]["key"], positions, size)
    values *= spec.target_mean_abs / _checked_mean(_pairwise_sum(positions, values, size) / size)
    listed = values != 0.0
    if not listed.all():
        positions, values = positions[listed], values[listed]
    return SparseTensor(spec.dims, _read_only(positions), _read_only(values))


def _draws_below(generator: np.random.Generator, size: int, density: float) -> np.ndarray:
    """The positions, ascending, of the draws below ``density`` among the
    generator's next ``size``, drawn in chunks into one buffer.

    A chunk is an eighth of a slab, 64 KB, so that the buffer stays below
    glibc's default 128 KB mmap threshold. A larger buffer is mapped, and
    freeing it raises that threshold, which keeps later temporaries on the
    heap: with chunks of a whole slab, ``surrogate_bound``'s ``peak_rss_mb``
    read 0.25-0.48 MB above the dense fill's, and 0.12 MB below it with
    these. The draws took the same time with either chunk.
    """
    slabs = _row_slabs(size, 64)
    draws = np.empty(slabs[0][1])  # the first slab is a longest one
    found = []
    for start, stop in slabs:
        part = draws[: stop - start]
        generator.random(out=part)
        found.append(np.flatnonzero(part < density) + start)
    del draws, part
    return np.concatenate(found)


# Philox4x64-10 as numpy's ``Philox`` runs it (Salmon et al. 2011, "Parallel
# random numbers: as easy as 1, 2, 3"): the round multipliers and the Weyl
# increments of the key.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)


def _mulhilo(m: int, x):
    """The high and the low word of the 128-bit product ``m * x``, per entry.

    From the four 32-bit partial products; no partial sum overflows.
    """
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    x_hi, x_lo = x >> _HALF, x & _LOW
    middle = (m_lo * x_lo) >> _HALF
    middle += m_hi * x_lo
    carry = middle & _LOW
    carry += m_lo * x_hi
    hi = m_hi * x_hi
    hi += middle >> _HALF
    hi += carry >> _HALF
    return hi, np.uint64(m) * x


def _philox_raw(key, offsets: np.ndarray) -> np.ndarray:
    """The raw 64-bit outputs at stream positions ``offsets`` of
    ``np.random.Philox`` with this two-word ``key`` and a zero counter.

    Output ``k`` is word ``k % 4`` of the block that Philox4x64-10 makes
    from the counter ``k // 4 + 1`` (the counter is raised before each
    block), so each is evaluated on its own; the counter's upper three
    words stay zero for every offset below ``2**63``. Words that are zero
    for every entry stay scalars, so the first two rounds multiply one word
    array each rather than two.
    """
    k0, k1 = (int(k) for k in key)
    offsets = offsets.astype(np.uint64)
    zero = np.uint64(0)
    c0, c1, c2, c3 = (offsets >> np.uint64(2)) + np.uint64(1), zero, zero, zero
    with np.errstate(over="ignore"):  # the scalar words wrap as the arrays do
        for r in range(_PHILOX_ROUNDS):
            round_key = (
                np.uint64((k0 + r * _PHILOX_W[0]) % 2**64),
                np.uint64((k1 + r * _PHILOX_W[1]) % 2**64),
            )
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ round_key[0], lo1, hi0 ^ c3 ^ round_key[1], lo0
    return np.choose((offsets & np.uint64(3)).astype(np.intp), (c0, c1, c2, c3))


def _philox_uniform(key, positions: np.ndarray, offset: int) -> np.ndarray:
    """``Generator(Philox(key)).random()``'s draws at stream positions
    ``offset + positions``.

    A draw is its raw output's top 53 bits times ``2**-53`` (numpy's
    ``next_double``). Taken over chunks of the positions whose words and
    temporaries fill about :data:`drbcd.tensors.SLAB_BYTES`.
    """
    out = np.empty(positions.shape)
    for start, stop in _row_slabs(positions.shape[0], _PHILOX_ENTRY_BYTES):
        raw = _philox_raw(key, positions[start:stop] + offset) >> np.uint64(11)
        np.multiply(raw, 2.0**-53, out=out[start:stop])
    return out


# Most bytes that :func:`_philox_raw` holds at once per offset: the four
# counter words and the products of two ``_mulhilo`` calls, 8 bytes each.
_PHILOX_ENTRY_BYTES = 8 * 16

# numpy's pairwise sum (``pairwise_sum`` in its ``loops_utils``) sums a run of
# at most this many entries in a leaf of its own; a longer run is split in two.
_PAIRWISE_BLOCK = 128


def _pairwise_sum(positions: np.ndarray, values: np.ndarray, size: int) -> float:
    """``np.add.reduce`` of the length-``size`` float64 array that is zero
    but for ``values`` at the ascending ``positions``, bit for bit, for
    nonnegative values; its cost follows the nonzeros, not ``size``.

    numpy sums a contiguous float64 array with one pairwise tree over all
    of it: a run of ``n`` entries is split at ``n // 2`` rounded down to a
    multiple of 8 until it has at most 128; such a leaf adds its entries in
    eight interleaved accumulators, combined as ``((r0 + r1) + (r2 + r3)) +
    ((r4 + r5) + (r6 + r7))``, and then adds the ``n % 8`` entries past them
    one by one (a run of fewer than 8 entries is added one by one from
    zero). A zero added to a nonnegative sum leaves it unchanged, bit for
    bit, so every accumulator is the sum of its nonzeros in order, and
    every node is the sum of the nonzero values of its two children, or of
    the one child that has any. The tree is split here where numpy splits
    it, skipping empty runs, until a run's leaves and nonzeros fit about
    :data:`drbcd.tensors.SLAB_BYTES` of scratch; such a run is summed by
    :func:`_pairwise_run`, over the layout of its length, which runs of one
    length share.
    """
    if positions.shape[0] == 0:
        return 0.0
    return _pairwise_split(positions, values, 0, size, {})


def _pairwise_split(positions, values, start: int, n: int, layouts: dict) -> float:
    if n <= _PAIRWISE_BLOCK or n + 64 * positions.shape[0] <= tensors.SLAB_BYTES:
        if n not in layouts:
            layouts[n] = _pairwise_layout(n)
        return _pairwise_run(positions - start, values, layouts[n])
    half = n // 2 - n // 2 % 8
    cut = int(np.searchsorted(positions, start + half))
    sums = [
        _pairwise_split(p, v, s, m, layouts)
        for p, v, s, m in (
            (positions[:cut], values[:cut], start, half),
            (positions[cut:], values[cut:], start + half, n - half),
        )
        if p.shape[0]
    ]
    return sums[0] + sums[1] if len(sums) == 2 else sums[0]


def _pairwise_layout(n: int):
    """numpy's pairwise tree over ``n`` entries, laid out level by level.

    Each level lists the children of the level above's split nodes, in
    pairs, in order. Returns the leaves' starts, ascending, with the length
    of the part each adds in accumulators; where each of them falls in the
    leaves listed level by level; and each level's masks of its split nodes
    and of its leaves.
    """
    starts, sizes = np.zeros(1, dtype=np.int64), np.array([n])
    leaf_starts, leaf_sizes, masks = [], [], []
    while starts.shape[0]:
        split = sizes > _PAIRWISE_BLOCK
        masks.append((split, ~split, np.count_nonzero(~split)))
        leaf_starts.append(starts[~split])
        leaf_sizes.append(sizes[~split])
        starts, sizes = starts[split], sizes[split]
        half = sizes // 2
        half -= half % 8
        starts = np.stack([starts, starts + half], axis=1).ravel()
        sizes = np.stack([half, sizes - half], axis=1).ravel()
    leaf_starts, leaf_sizes = np.concatenate(leaf_starts), np.concatenate(leaf_sizes)
    by_start = np.argsort(leaf_starts)
    return leaf_starts[by_start], leaf_sizes[by_start] // 8 * 8, by_start, masks


def _pairwise_run(offsets, values, layout) -> float:
    """numpy's pairwise sum over a run of entries (see :func:`_pairwise_sum`),
    from its nonzero ``values`` at the ascending ``offsets`` into the run.

    The leaves' accumulators and then their further entries are summed by
    ``np.bincount``, which adds its weights in the order given; then the
    nodes are valued from the bottom level up.
    """
    starts, unrolled_sizes, by_start, masks = layout
    leaves = starts.shape[0]
    leaf = np.searchsorted(starts, offsets, side="right") - 1
    within = offsets - starts[leaf]
    unrolled = within < unrolled_sizes[leaf]
    lanes = np.bincount(
        leaf[unrolled] * 8 + within[unrolled] % 8, weights=values[unrolled], minlength=8 * leaves
    ).reshape(leaves, 8).T
    accumulated = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
        (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
    )
    rest = ~unrolled
    leaf_values = np.empty(leaves)
    leaf_values[by_start] = np.bincount(
        np.concatenate([np.arange(leaves), leaf[rest]]),
        weights=np.concatenate([accumulated, values[rest]]),
        minlength=leaves,
    )
    below = np.empty(0)
    for split, is_leaf, leaf_count in reversed(masks):
        nodes = np.empty(split.shape[0])
        nodes[split] = below[0::2] + below[1::2]
        nodes[is_leaf] = leaf_values[leaves - leaf_count : leaves]
        leaves -= leaf_count
        below = nodes
    return float(below[0])
