import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from drbcd.schedule import RadiusSchedule

# Analytic bounds on the full square sum of the power_log weights with
# log_offset = 1, whose clamped first weight is 1. For beta = 1 the tail from
# n = 2 lies below the integral of x**-2 from 1, which is 1; for beta = 1/2,
# keeping the log factor, below 2 / log 2 (substitute u = log(x + 1)).
SQUARE_SUM_BOUND = {1.0: 2.0, 0.5: 1.0 + 2.0 / math.log(2.0)}


def test_weight_clamped_at_one():
    s = RadiusSchedule(kind="power_log", beta=1.0, log_offset=1)
    # Raw value 1 / log(2) ~ 1.4427 exceeds one and is clamped.
    assert s.weight(1) == 1.0


def test_weight_power_log_formula():
    s = RadiusSchedule(kind="power_log", beta=0.5, log_offset=1)
    expected = 100.0**-0.5 / math.log(101.0)
    assert_allclose(s.weight(100), expected, rtol=1e-12)
    assert_allclose(s.weight(100), 0.021667, atol=5e-6)


def test_weight_rejects_zero_index():
    s = RadiusSchedule()
    with pytest.raises(ValueError):
        s.weight(0)
    with pytest.raises(ValueError):
        s.radius(0)


def test_radius_paper_scale_constant():
    s = RadiusSchedule(kind="power_log", beta=1.0, c_prime=1e5, log_offset=1)
    assert s.radius(1) == 1e5


def test_radius_infinite_sentinel():
    s = RadiusSchedule(kind="infinite")
    assert math.isinf(s.radius(1))
    assert math.isinf(s.radius(12345))
    radii = s.radius(np.array([1, 7, 12345]))
    assert radii.shape == (3,) and np.all(np.isposinf(radii))
    with pytest.raises(ValueError):
        s.radius(0)
    with pytest.raises(ValueError):
        s.radius(np.array([3, 0]))


@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_weights_monotone_and_in_range_up_to_1e6(beta):
    s = RadiusSchedule(kind="power_log", beta=beta, log_offset=1)
    n = np.arange(1, 1_000_001)
    w = s.weight(n)
    assert np.all(w > 0.0)
    assert np.all(w <= 1.0)
    assert np.all(np.diff(w) <= 0.0)


@pytest.mark.parametrize(
    "beta,decade_margin", [(0.5, 50.0), (1.0, 0.15)]
)
def test_partial_sums_diverge_while_squares_stay_bounded(beta, decade_margin):
    # The weight sums grow like 2 sqrt(N)/log N (beta = 1/2) and log log N
    # (beta = 1): unbounded, but far slower than any fixed doubling ratio.
    # Divergence evidence: the last decade still contributes a solid margin.
    s = RadiusSchedule(kind="power_log", beta=beta, log_offset=1)
    n_full = 1_000_000
    w = s.weight(np.arange(1, n_full + 1))
    full, decade = float(np.sum(w)), float(np.sum(w[: n_full // 10]))
    assert full > decade + decade_margin
    # Square sums remain below the analytic bound.
    assert float(np.sum(w * w)) < SQUARE_SUM_BOUND[beta]


def test_square_sum_bound_beta_one_crude_value():
    # Clamped weights give w_1 = 1 and sum_{n>=2} w_n^2 <= integral of x^-2 = 1.
    s = RadiusSchedule(kind="power_log", beta=1.0, log_offset=1)
    n = np.arange(1, 101)
    w = s.weight(n)
    assert w[0] == 1.0
    assert np.all(w[1:] <= 1.0 / n[1:])
    assert float(np.sum(w * w)) < SQUARE_SUM_BOUND[1.0]


def test_square_sum_partial_increasing_and_bounded_beta_half():
    s = RadiusSchedule(kind="power_log", beta=0.5, log_offset=1)
    previous = 0.0
    for horizon in (10, 1_000, 100_000, 1_000_000):
        w = s.weight(np.arange(1, horizon + 1))
        partial = float(np.sum(w * w))
        assert partial > previous
        assert partial < SQUARE_SUM_BOUND[0.5]
        previous = partial


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        RadiusSchedule(kind="nope")
    with pytest.raises(ValueError):
        RadiusSchedule(beta=0.0)
    with pytest.raises(ValueError):
        RadiusSchedule(beta=1.5)
    with pytest.raises(ValueError):
        RadiusSchedule(c_prime=0.0)
    # A comparison with NaN is false, so "refuse if c_prime <= 0" let it in.
    with pytest.raises(ValueError, match="c_prime must be positive, got nan"):
        RadiusSchedule(c_prime=math.nan)
    with pytest.raises(ValueError):
        RadiusSchedule(log_offset=0)
    with pytest.raises(ValueError):
        RadiusSchedule(kind="constant")


def test_weight_vectorized_matches_scalar():
    s = RadiusSchedule(kind="power_log", beta=0.7, log_offset=2)
    n = np.array([1, 2, 10, 500])
    vec = s.weight(n)
    assert_allclose(vec, [s.weight(int(k)) for k in n], rtol=1e-15)


def test_integer_beta_gives_the_float_schedule_bit_for_bit():
    # An integer beta once made ``n ** (-beta)`` an integer power, which
    # numpy refuses on the first weight.
    as_int = RadiusSchedule(kind="power_log", beta=1, c_prime=3.0)
    as_float = RadiusSchedule(kind="power_log", beta=1.0, c_prime=3.0)
    n = np.arange(1, 1001)
    assert as_int.weight(n).tobytes() == as_float.weight(n).tobytes()
    assert as_int.radius(n).tobytes() == as_float.radius(n).tobytes()
    for k in (1, 2, 3, 1000):
        assert as_int.weight(k) == as_float.weight(k)
        assert as_int.radius(k) == as_float.radius(k)
