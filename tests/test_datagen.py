import numpy as np
import pytest
from numpy.testing import assert_array_equal

from drbcd.datagen import SynthSpec, sparse_surrogate, synthetic_lowrank
from drbcd.factorization import NtfProblem


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
    x = sparse_surrogate(spec)
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
        SynthSpec(dims=(3, 4), rank=5)
    with pytest.raises(ValueError, match="density"):
        SynthSpec(dims=(3, 4), rank=2, density=0.0)
    with pytest.raises(ValueError, match="dims"):
        SynthSpec(dims=(), rank=1)
    with pytest.raises(ValueError, match="noise"):
        SynthSpec(dims=(3, 4), rank=2, noise_level=-1.0)
