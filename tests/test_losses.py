import math

import numpy as np
import pytest

from crittuner.blocks import AuxScalars, init_params, run_network
from crittuner.losses import jkl, jll, jsl, kernel_profile
from crittuner.presets import relu_mlp
from crittuner.tensor import RngStream


def test_jll_values():
    assert jll([1.0, 1.0, 1.0]).total == 0.0
    assert jll([math.e]).total == pytest.approx(0.5, rel=1e-14)
    assert jll([math.e, 1.0 / math.e]).total == pytest.approx(1.0, rel=1e-14)


def test_jll_rejects_nonpositive():
    with pytest.raises(ValueError):
        jll([1.0, 0.0])
    with pytest.raises(ValueError):
        jll([-2.0])


def test_jsl_values():
    assert jsl([1.0, 1.0]).total == 0.0
    assert jsl([2.0]).total == pytest.approx(0.5)
    assert jsl([3.0, 0.0]).total == pytest.approx(2.5)


def test_jkl_values():
    assert jkl([1.0, 1.0], [2.0, 2.0, 2.0], 0.7).total == 0.0
    expected = 0.25 * math.log(4.0) ** 2
    assert jkl([1.0], [1.0, 4.0], 0.5).total == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        jkl([1.0], [1.0, -1.0], 0.5)
    with pytest.raises(ValueError):
        jkl([1.0], [1.0], 0.5)   # kernel count must be pairs + 1


def test_total_is_sum_of_terms():
    rng = RngStream(0)
    js = np.exp(rng.normal(40, 0.0, 1.0))
    for lv in (jll(js), jsl(js)):
        assert lv.total == pytest.approx(math.fsum(lv.terms), rel=1e-12)


def test_log_symmetry_jll_but_not_jsl():
    rng = RngStream(1)
    js = np.exp(rng.normal(10, 0.0, 0.5))
    assert jll(js).total == pytest.approx(jll(1.0 / js).total, rel=1e-12)
    assert jsl(js).total != pytest.approx(jsl(1.0 / js).total)


def test_additivity_under_concatenation():
    a = [1.5, 0.7]
    b = [2.0, 1.0, 0.4]
    assert jll(a + b).total == pytest.approx(jll(a).total + jll(b).total, rel=1e-14)
    assert jsl(a + b).total == pytest.approx(jsl(a).total + jsl(b).total, rel=1e-14)


def test_zero_iff_critical():
    assert jll([1.0] * 5).total == 0.0
    assert jll([1.0001] + [1.0] * 4).total > 0.0
    assert jsl([1.0] * 3).total == 0.0
    assert jkl([1.0], [3.0, 3.0], 2.0).total == 0.0
    assert jkl([1.0], [3.0, 3.1], 2.0).total > 0.0


def test_kernel_profile_matches_definition():
    spec = relu_mlp(3, 20, 1.0)
    rng = RngStream(2)
    x = rng.child(1).normal((6, 20))
    state = run_network(spec, init_params(spec, rng.child(2)), AuxScalars.ones(spec), x)
    ks = kernel_profile(state)
    assert len(ks) == 4
    assert ks[0] == pytest.approx(float((x * x).mean()), rel=1e-12)
    assert np.all(ks >= 0)


def test_loss_partials_match_central_differences():
    rng = RngStream(3)
    js = np.exp(rng.normal(4, 0.0, 0.5))
    ks = np.exp(rng.normal(5, 0.0, 0.5))
    cases = [(jll, (js,), 0), (jsl, (js,), 0), (lambda j, k: jkl(j, k, 0.7), (js, ks), 0),
             (lambda j, k: jkl(j, k, 0.7), (js, ks), 1)]
    h = 1e-6
    for fn, args, slot in cases:
        lv = fn(*args)
        got = lv.dj if slot == 0 else lv.dk
        for n in range(len(args[slot])):
            up, down = [a.copy() for a in args], [a.copy() for a in args]
            up[slot][n] *= 1.0 + h
            down[slot][n] *= 1.0 - h
            numeric = (fn(*up).total - fn(*down).total) / (2.0 * h * args[slot][n])
            assert got[n] == pytest.approx(numeric, rel=1e-6, abs=1e-9)
    assert jll(js).dk is None and jsl(js).dk is None
    # kernel partials sum to zero: scaling every kernel leaves jkl unchanged
    assert float(np.sum(jkl(js, ks, 0.7).dk * ks)) == pytest.approx(0.0, abs=1e-12)
