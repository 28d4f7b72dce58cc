import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from drbcd import tensors
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


@pytest.mark.parametrize("density", [0.01, 0.3, 1.0])
@pytest.mark.parametrize("coordinates", [False, True])
def test_surrogate_mean_abs_hits_target(density, coordinates):
    # The mean is fsum's, correctly rounded; the rescale and the division
    # by N round a few more times. Over the listed values, then over every
    # entry of the tensor they describe.
    spec = SynthSpec(
        dims=(30, 100, 50), rank=5, seed=3, density=density, target_mean_abs=0.00067
    )
    x = sparse_surrogate(spec)
    values = x.values if coordinates else x.dense().ravel()
    realized = math.fsum(values) / math.prod(spec.dims)
    assert abs(realized / 0.00067 - 1) <= 4 * np.finfo(float).eps
    assert values.min() >= 0.0
    # Mostly zero at 1% density: no more than twice the density's share.
    assert np.count_nonzero(values) < 2 * density * math.prod(spec.dims)


def test_surrogate_full_density_has_no_zeros():
    spec = SynthSpec(dims=(20, 20, 20), rank=2, seed=4, density=1.0, target_mean_abs=0.5)
    assert np.count_nonzero(sparse_surrogate(spec).values) == math.prod(spec.dims)


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
    size = math.prod(spec.dims)
    pattern = np.random.Generator(np.random.Philox(key=spec.seed)).random(size)
    positions = np.flatnonzero(pattern < spec.density)
    magnitudes = np.random.Generator(np.random.Philox(key=spec.seed).jumped()).random(positions.size)
    x = np.zeros(size)
    x[positions] = magnitudes
    x *= spec.target_mean_abs / (math.fsum(magnitudes) / size)
    return x.reshape(spec.dims)


# Entries per slab of float64 draws: the low-rank family adds its noise in
# chunks of SLAB; the surrogate draws its pattern in eighths of that, CHUNK.
SLAB = SLAB_BYTES // 8
CHUNK = SLAB // 8

# One to four modes; sizes below one chunk and one slab, one entry short of
# each, of exactly one and two of each, and between multiples of them.
SHAPES = [
    (17, 29), (8191,), (64, 128), (2, 64, 128), (5, 13107), (256, 256), (65537, 2),
    (131075,), (300, 500), (2, 256, 256), (40, 50, 70), (8, 9, 10, 11), (6, 7, 8, 300),
]


def test_shapes_cover_the_chunk_boundaries():
    sizes = {int(np.prod(s)) for s in SHAPES}
    for step in (CHUNK, SLAB):
        assert {step - 1, step, 2 * step} <= sizes
        assert any(n < step for n in sizes)
        assert any(n > step and n % step for n in sizes)


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


def slabs_of(x):
    """A surrogate's tensor as :func:`drbcd.tensors._dense_slabs` fills it,
    slab by slab, for NTF1 files and the objective's pass."""
    rows = [slab.copy() for _, _, slab in tensors._dense_slabs(x)]
    return np.concatenate(rows).reshape(x.shape)


@pytest.mark.parametrize("dims", SHAPES)
@pytest.mark.parametrize("density", [0.01, 0.3, 1.0])
@pytest.mark.parametrize("form", ["coordinates", "dense", "slabs"])
@pytest.mark.parametrize("slab_bytes", [None, 64 * 37])
def test_surrogate_has_the_bits_of_the_whole_tensor_formula(monkeypatch, dims, density, form, slab_bytes):
    # The coordinate lists against the formula's nonzeros, then the two
    # ways a tensor is formed from them: whole, and in row slabs; with the
    # package's slabs, then with pattern chunks of 37 draws.
    if slab_bytes is not None:
        monkeypatch.setattr(tensors, "SLAB_BYTES", slab_bytes)
    spec = SynthSpec(dims=dims, rank=2, seed=12, density=density, target_mean_abs=0.25)
    x = sparse_surrogate(spec)
    assert isinstance(x, SparseTensor) and x.shape == spec.dims
    assert not (x.positions.flags.writeable or x.values.flags.writeable)
    expected = reference_surrogate(spec)
    if form == "coordinates":
        assert_array_equal(x.positions, np.flatnonzero(expected).astype(np.int64), strict=True)
        assert_array_equal(x.values, expected.ravel()[x.positions], strict=True)
        return
    x = x.dense() if form == "dense" else slabs_of(x)
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
    # The coordinate list and one 64 KB chunk of the pattern's draws, and no
    # tensor; the peak is about a fortieth of the 8 MB tensor. Filling the
    # tensor took 1.05x it, a tensor-sized mask 1.125x, the whole-tensor
    # formula about 3x.
    spec = SynthSpec(dims=PEAK_DIMS, rank=5, seed=13, density=0.01, target_mean_abs=0.00067)
    x, peak = traced_peak(lambda: sparse_surrogate(spec))
    assert isinstance(x, SparseTensor) and x.nbytes == 16 * x.values.size
    assert peak <= x.nbytes + SLAB_BYTES // 8


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
    for x in (dense, sparse.positions, sparse.values):
        owner = x if x.base is None else x.base
        assert not x.flags.writeable and not owner.flags.writeable
        with pytest.raises(ValueError):
            x[(0,) * x.ndim] = 1.0
    assert NtfProblem(dense, 2).data is dense


def test_an_all_zero_surrogate_is_refused():
    spec = SynthSpec(dims=(2, 2), rank=1, seed=0, density=1e-9, target_mean_abs=0.5)
    with pytest.raises(ValueError, match="identically zero"):
        sparse_surrogate(spec)
