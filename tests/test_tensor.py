import os
import platform
import subprocess
import sys
from pathlib import Path

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


_FAULT_SCRIPT = """
import resource
from crittuner.blocks import AuxScalars, init_params, run_network
from crittuner.presets import relu_mlp
from crittuner.tensor import RngStream
spec = relu_mlp(10, 500, 2 ** 0.5)
rng = RngStream(0)
params = init_params(spec, rng.child(1))
aux = AuxScalars.ones(spec)
x = rng.child(2).normal([4, 500])
for _ in range(3):
    run_network(spec, params, aux, x)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    run_network(spec, params, aux, x)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="allocator policy is glibc-only")
def test_forward_pass_reuses_freed_heap():
    # A fresh process: a long-lived one may already reuse its heap by chance.
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert float(out.stdout) < 50
