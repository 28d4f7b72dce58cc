import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from drbcd import datagen, tensors
from drbcd.datagen import SynthSpec, sparse_surrogate, synthetic_lowrank
from drbcd.factorization import NtfProblem
from drbcd.tensors import SLAB_BYTES, SparseTensor, frobenius_norm

from _oracles import cp_reconstruct


def test_lowrank_paper_shape_and_nonnegativity():
    spec = SynthSpec(dims=(100, 200, 300), rank=5, seed=0)
    x, model = synthetic_lowrank(spec)
    assert x.shape == (100, 200, 300)
    assert x.min() >= 0.0
    assert [f.shape for f in model.factors] == [(100, 5), (200, 5), (300, 5)]


def test_lowrank_noiseless_ground_truth_is_global_optimum():
    spec = SynthSpec(dims=(8, 7, 6), rank=3, seed=1)
    x, model = synthetic_lowrank(spec)
    problem = NtfProblem(x, rank=3)
    assert problem.objective(model.to_blocks()) <= 1e-20


def test_lowrank_deterministic_per_seed():
    spec = SynthSpec(dims=(5, 6, 7), rank=2, seed=99, noise_level=0.1)
    x1, m1 = synthetic_lowrank(spec)
    x2, m2 = synthetic_lowrank(spec)
    assert_array_equal(x1, x2)
    for a, b in zip(m1.factors, m2.factors):
        assert_array_equal(a, b)
    x3, _ = synthetic_lowrank(SynthSpec(dims=(5, 6, 7), rank=2, seed=100, noise_level=0.1))
    assert not np.array_equal(x1, x3)


def test_lowrank_noise_clamped_nonnegative():
    spec = SynthSpec(dims=(10, 10, 10), rank=2, seed=2, noise_level=5.0)
    x, _ = synthetic_lowrank(spec)
    assert x.min() >= 0.0
    assert x.max() > 0.0


def test_surrogate_mean_abs_hits_target():
    spec = SynthSpec(
        dims=(30, 100, 50), rank=5, seed=3, density=0.01, target_mean_abs=0.00067
    )
    x = sparse_surrogate(spec).dense()
    realized = float(np.mean(np.abs(x)))
    assert abs(realized - 0.00067) / 0.00067 <= 0.05
    assert x.min() >= 0.0
    # Mostly zero at 1% density.
    assert np.count_nonzero(x) < 0.02 * x.size


def test_surrogate_full_density_has_no_zeros():
    spec = SynthSpec(dims=(20, 20, 20), rank=2, seed=4, density=1.0, target_mean_abs=0.5)
    x = sparse_surrogate(spec)
    assert np.count_nonzero(x) == x.size


def test_surrogate_deterministic():
    spec = SynthSpec(dims=(10, 10, 10), rank=2, seed=5, density=0.2, target_mean_abs=0.1)
    assert_array_equal(sparse_surrogate(spec), sparse_surrogate(spec))


def test_surrogate_requires_target():
    spec = SynthSpec(dims=(5, 5), rank=2, seed=0, density=0.5)
    with pytest.raises(ValueError, match="target_mean_abs"):
        sparse_surrogate(spec)


def test_spec_validation():
    with pytest.raises(ValueError, match="rank"):
        synthetic_lowrank(SynthSpec(dims=(3, 4), rank=5))
    with pytest.raises(ValueError, match="density"):
        SynthSpec(dims=(3, 4), rank=2, density=0.0)
    with pytest.raises(ValueError, match="dims"):
        SynthSpec(dims=(), rank=1)
    with pytest.raises(ValueError, match="noise"):
        SynthSpec(dims=(3, 4), rank=2, noise_level=-1.0)


def test_rank_is_checked_only_where_it_is_read():
    # The surrogate never reads the rank; the low-rank family needs one in
    # [1, min(dims)].
    spec = SynthSpec(dims=(5, 5, 5), rank=6, seed=0, density=0.5, target_mean_abs=0.1)
    assert sparse_surrogate(spec).shape == (5, 5, 5)
    for rank in (0, 6):
        with pytest.raises(ValueError, match=r"rank must lie in \[1, min\(dims\)\] = \[1, 5\]"):
            synthetic_lowrank(SynthSpec(dims=(5, 5, 5), rank=rank))


# ---------------------------------------------------------------------------
# One buffer per tensor, with the bits of the whole-tensor formulas


def reference_lowrank(spec):
    """The generator as one whole-tensor formula, with its temporaries."""
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    factors = [rng.random((d, spec.rank)) for d in spec.dims]
    x = cp_reconstruct(factors, np.ones((spec.rank, 1)))[..., 0]
    if spec.noise_level > 0.0:
        sigma = spec.noise_level * frobenius_norm(x) / np.sqrt(x.size)
        x = np.maximum(x + sigma * rng.standard_normal(x.shape), 0.0)
    return np.ascontiguousarray(x), factors


def reference_surrogate(spec):
    """The surrogate as one whole-tensor formula, with its temporaries."""
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    mask = rng.random(spec.dims) < spec.density
    values = rng.random(spec.dims)
    x = np.where(mask, values, 0.0)
    mean = float(np.mean(np.abs(x)))
    return np.ascontiguousarray(x * (spec.target_mean_abs / mean))


# Entries per chunk of the dense fill's draws: the float64 draws of one
# chunk fill a slab. The coordinate form draws its pattern in eighths of
# that, so a multiple of CHUNK is a multiple of its chunk too.
CHUNK = SLAB_BYTES // 8

# One to four modes; sizes below one chunk, one entry short of it, of
# exactly one and two chunks, and between multiples of it. The surrogate's
# second generator skips the first draws four at a time and then one at a
# time, so the sizes take every remainder modulo 4.
SHAPES = [
    (17, 29), (5, 13107), (256, 256), (65537, 2), (131075,), (300, 500), (2, 256, 256),
    (40, 50, 70), (8, 9, 10, 11), (6, 7, 8, 300),
]


def test_shapes_cover_the_chunk_boundaries():
    sizes = {int(np.prod(s)) for s in SHAPES}
    assert {CHUNK - 1, CHUNK, 2 * CHUNK} <= sizes
    assert any(n < CHUNK for n in sizes)
    assert any(n > CHUNK and n % CHUNK for n in sizes)
    assert {n % 4 for n in sizes} == {0, 1, 2, 3}
    assert {2, 3} <= {n % 4 for n in sizes if n > CHUNK and n % CHUNK}


# SHAPES at rank 2; then shapes on which OpenBLAS rounds ``U0 @ K.T``
# differently once ``K.T`` is a contiguous copy rather than the transposed
# view that both the generator and ``reference_lowrank`` multiply, at every
# rank up to 5 they allow, and the paper shape.
LOWRANK_CASES = [(dims, 2, 11) for dims in SHAPES] + [
    (dims, rank, 13 + rank)
    for dims in [(14, 44, 33), (14, 58, 51), (13, 15, 5, 4), (53, 252), (20, 25, 30)]
    for rank in range(1, min(5, min(dims)) + 1)
] + [((100, 200, 300), 5, 18)]


@pytest.mark.parametrize("dims, rank, seed", LOWRANK_CASES)
@pytest.mark.parametrize("noise_level", [0.0, 0.3])
def test_lowrank_has_the_bits_of_the_whole_tensor_formula(dims, rank, seed, noise_level):
    spec = SynthSpec(dims=dims, rank=rank, seed=seed, noise_level=noise_level)
    x, model = synthetic_lowrank(spec)
    expected, factors = reference_lowrank(spec)
    assert x.flags.c_contiguous and x.dtype == np.float64
    assert_array_equal(x, expected, strict=True)
    assert np.array_equal(np.signbit(x), np.signbit(expected))
    for got, want in zip(model.factors, factors):
        assert_array_equal(got, want, strict=True)


def dense_of(x):
    """A surrogate's tensor, checked against its coordinate form when it has one."""
    if not isinstance(x, SparseTensor):
        return x
    dense = x.dense()
    assert_array_equal(x.positions, np.flatnonzero(dense), strict=True)
    assert_array_equal(x.values, dense.ravel()[x.positions], strict=True)
    assert not (x.positions.flags.writeable or x.values.flags.writeable)
    return dense


@pytest.mark.parametrize("dims", SHAPES)
@pytest.mark.parametrize("density", [0.01, 0.3, 1.0])
@pytest.mark.parametrize("form", ["returned", "coordinates", "dense"])
def test_surrogate_has_the_bits_of_the_whole_tensor_formula(monkeypatch, dims, density, form):
    # The form the crossover picks, then each form at every density.
    if form != "returned":
        monkeypatch.setattr(datagen, "SPARSE_DENSITY", 2.0 if form == "coordinates" else 0.0)
    spec = SynthSpec(dims=dims, rank=2, seed=12, density=density, target_mean_abs=0.25)
    x = sparse_surrogate(spec)
    assert isinstance(x, SparseTensor) == (density < datagen.SPARSE_DENSITY)
    x = dense_of(x)
    expected = reference_surrogate(spec)
    assert x.flags.c_contiguous and x.dtype == np.float64
    assert_array_equal(x, expected, strict=True)
    assert not np.signbit(x).any()


def traced_peak(build):
    """``build()`` and the most bytes numpy held at once while it ran.

    ``build`` runs once untraced first, so that modules that numpy imports
    on a first call are not counted.
    """
    build()
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Sixteen chunks: what one chunk's draws hold beside the result is 1/16 of it.
PEAK_DIMS = (100, 100, 100)


def test_surrogate_is_built_in_its_own_buffer():
    # Below the crossover: the coordinate list and one slab of the counter
    # evaluation's words, and no tensor; the peak is about a twelfth of the
    # 8 MB tensor. Filling the tensor took 1.05x it, a tensor-sized mask
    # 1.125x, the whole-tensor formula about 3x.
    spec = SynthSpec(dims=PEAK_DIMS, rank=5, seed=13, density=0.01, target_mean_abs=0.00067)
    x, peak = traced_peak(lambda: sparse_surrogate(spec))
    assert isinstance(x, SparseTensor) and x.nbytes == 16 * x.values.size
    assert peak <= x.nbytes + SLAB_BYTES


def test_dense_surrogate_is_built_in_its_own_buffer():
    # At or above the crossover: the result and one chunk's boolean pattern,
    # both draws going into the result.
    spec = SynthSpec(dims=PEAK_DIMS, rank=5, seed=13, density=0.3, target_mean_abs=0.00067)
    x, peak = traced_peak(lambda: sparse_surrogate(spec))
    assert x.nbytes == 8 * 10**6
    assert peak <= 1.05 * x.nbytes


def test_sparse_problem_is_built_from_the_surrogate_without_a_tensor():
    # surrogate_bound's data: the problem's coordinate list (1.07 MB), the
    # generator's positions and values (two thirds of it) and the sort's
    # key, below two lists; the tensor alone would be 34 of them.
    spec = SynthSpec(dims=(90, 500, 100), rank=5, seed=16, density=0.01, target_mean_abs=0.00067)
    problem, peak = traced_peak(lambda: NtfProblem(sparse_surrogate(spec), 5))
    listed = sum(a.nbytes for a in problem._coo)
    assert listed == 24 * problem._coo[2].size
    assert peak <= 2 * listed


def test_noiseless_lowrank_holds_one_khatri_rao_product():
    # The result and the Khatri-Rao product of the last two factors, a
    # twentieth of it at rank 5 (10,000 x 5), and no second product times
    # an all-ones code.
    spec = SynthSpec(dims=PEAK_DIMS, rank=5, seed=14)
    (x, _), peak = traced_peak(lambda: synthetic_lowrank(spec))
    assert peak <= 1.06 * x.nbytes


def test_noisy_lowrank_adds_its_noise_in_place():
    # The result and the Khatri-Rao chain it is formed from, then one chunk's
    # noise at a time; the whole-tensor formula held about 3x the result.
    spec = SynthSpec(dims=PEAK_DIMS, rank=5, seed=14, noise_level=0.1)
    (x, _), peak = traced_peak(lambda: synthetic_lowrank(spec))
    assert peak <= 1.25 * x.nbytes


def test_generators_return_read_only_tensors_that_problems_share():
    dense, _ = synthetic_lowrank(SynthSpec(dims=(5, 6, 7), rank=2, seed=15, noise_level=0.1))
    sparse = sparse_surrogate(SynthSpec(dims=(5, 6, 7), rank=2, seed=15, density=0.3, target_mean_abs=0.25))
    for x in (dense, sparse):
        owner = x if x.base is None else x.base
        assert not x.flags.writeable and not owner.flags.writeable
        with pytest.raises(ValueError):
            x[0, 0, 0] = 1.0
    assert NtfProblem(dense, 2).data is dense


# ---------------------------------------------------------------------------
# What the coordinate form emulates of numpy: Philox's stream, evaluated at
# single positions, and the pairwise sum of ``np.add.reduce``. These fail
# if a numpy release changes either.

PHILOX_SEEDS = [0, 1, 2**63 + 7, 2**64 + 3, 2**128 - 1]


@pytest.mark.parametrize("seed", PHILOX_SEEDS)
def test_counter_draws_are_the_streams_draws(seed):
    # Every position of two pattern chunks and a few more: all four lanes of
    # each counter, and the ends of the chunks that the evaluation takes
    # together (_PHILOX_ENTRY_BYTES) and that the pattern is drawn in.
    n = 2 * CHUNK + 9
    key = np.random.Philox(key=seed).state["state"]["key"]
    raw = np.random.Philox(key=seed).random_raw(n)
    draws = np.random.Generator(np.random.Philox(key=seed)).random(n)
    every = np.arange(n)
    assert_array_equal(datagen._philox_raw(key, every), raw, strict=True)
    assert_array_equal(datagen._philox_uniform(key, every, 0), draws, strict=True)
    evaluated = SLAB_BYTES // datagen._PHILOX_ENTRY_BYTES
    ends = np.unique([k + d for k in (0, evaluated, CHUNK, 2 * CHUNK - 4) for d in range(-3, 5) if k + d >= 0])
    assert_array_equal(datagen._philox_uniform(key, ends, 3), draws[ends + 3], strict=True)
    # Far into the stream: Philox.advance moves the counter by blocks of four.
    far = np.random.Philox(key=seed)
    far.advance(2**40)
    assert_array_equal(datagen._philox_raw(key, 2**42 + np.arange(9)), far.random_raw(9), strict=True)


PAIRWISE_SIZES = (
    list(range(1, 10)) + [127, 128, 129, 135, 136, 137, 255, 256, 257]
    + list(range(1016, 1033)) + [65528, 65535, 65536, 65537, 65544]
)


def sparse_values(rng, size, density):
    """Nonnegative entries of wide range, so that a sum in another order
    rounds differently, and zero at ``1 - density`` of the positions."""
    a = rng.random(size) * 2.0 ** rng.integers(-40, 40, size)
    a[rng.random(size) >= density] = 0.0
    return a


def assert_pairwise_sum_is_numpys(a):
    positions = np.flatnonzero(a)
    values = a.ravel()[positions]
    total = datagen._pairwise_sum(positions, values, a.size)
    assert total == float(np.add.reduce(a, axis=None))
    assert total / a.size == float(np.mean(a))


@pytest.mark.parametrize("slab_bytes", [None, 2048])
@pytest.mark.parametrize("density", [0.01, 0.3, 1.0])
def test_pairwise_sum_is_numpys_at_every_split(monkeypatch, slab_bytes, density):
    # The tree's leaves and splits near 8, 128, 1,024 and 65,536 entries;
    # with small slabs, the runs summed apart are split many times over.
    if slab_bytes is not None:
        monkeypatch.setattr(tensors, "SLAB_BYTES", slab_bytes)
    rng = np.random.default_rng(17)
    for size in PAIRWISE_SIZES:
        assert_pairwise_sum_is_numpys(sparse_values(rng, size, density))


@pytest.mark.parametrize("dims", [(90, 500, 100), (100, 200, 300), (7, 13, 11, 5)])
@pytest.mark.parametrize("density", [0.01, 0.3, 1.0])
def test_pairwise_sum_is_numpys_on_whole_tensors(dims, density):
    rng = np.random.default_rng(18)
    assert_pairwise_sum_is_numpys(sparse_values(rng, int(np.prod(dims)), density).reshape(dims))


def test_pairwise_sum_of_no_nonzeros_is_zero():
    empty = np.zeros(0, dtype=np.int64)
    assert datagen._pairwise_sum(empty, np.zeros(0), 1000) == 0.0


def test_surrogate_at_the_crossover_takes_the_dense_fill(monkeypatch):
    spec = SynthSpec(dims=(6, 7, 8), rank=2, seed=19, density=0.25, target_mean_abs=0.5)
    monkeypatch.setattr(datagen, "SPARSE_DENSITY", 0.25)
    assert isinstance(sparse_surrogate(spec), np.ndarray)
    monkeypatch.setattr(datagen, "SPARSE_DENSITY", np.nextafter(0.25, 1.0))
    assert isinstance(sparse_surrogate(spec), SparseTensor)


@pytest.mark.parametrize("coordinates", [False, True])
def test_an_all_zero_surrogate_is_refused(monkeypatch, coordinates):
    monkeypatch.setattr(datagen, "SPARSE_DENSITY", 2.0 if coordinates else 0.0)
    spec = SynthSpec(dims=(2, 2), rank=1, seed=0, density=1e-9, target_mean_abs=0.5)
    with pytest.raises(ValueError, match="identically zero"):
        sparse_surrogate(spec)
