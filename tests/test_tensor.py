import numpy as np
import pytest

from crittuner.tensor import RngStream


def test_zero_std_is_exact_mean():
    t = RngStream(7).normal([4], 0.0, 0.0)
    assert t.shape == (4,)
    assert np.all(t == 0.0)


def test_negative_std_rejected():
    with pytest.raises(ValueError):
        RngStream(0).normal([3], 0.0, -1.0)


def test_determinism_same_seed_stream():
    a = RngStream(42, 3).normal([32, 5], 1.0, 2.0)
    b = RngStream(42, 3).normal([32, 5], 1.0, 2.0)
    assert a.dtype == np.float64
    assert np.array_equal(a, b)


def test_streams_differ_and_children_are_stable():
    base = RngStream(42, 0).normal([64])
    other = RngStream(42, 1).normal([64])
    assert not np.array_equal(base, other)
    c1 = RngStream(42, 0).child(5).normal([64])
    c2 = RngStream(42, 0).child(5).normal([64])
    c3 = RngStream(42, 0).child(6).normal([64])
    assert np.array_equal(c1, c2)
    assert not np.array_equal(c1, c3)


def test_counter_advances():
    rng = RngStream(1)
    rng.normal((3, 4))
    rng.normal(5)
    assert rng.counter == 17


def test_gaussian_moments_large_sample():
    # CLT bounds: |mean| <= 4 std / sqrt(n), |var - std^2| <= 5 std^2 / sqrt(n)
    n = 10 ** 6
    t = RngStream(2024).normal([n])
    assert abs(t.mean()) <= 4.0 / np.sqrt(n)
    assert abs(t.var() - 1.0) <= 5.0 / np.sqrt(n)
    assert abs(t.mean()) < 3e-3
    assert abs(t.var() - 1.0) < 1e-2


def test_split_gives_independent_lanes():
    draws = [RngStream(9).child(i + 1).normal([16]) for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(draws[i], draws[j])
