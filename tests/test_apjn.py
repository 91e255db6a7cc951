import zlib

import numpy as np
import pytest

from crittuner.apjn import (
    ResourceBudgetError,
    _basis,
    apjn_profile,
    estimate_apjn,
    estimate_segment,
    exact_apjn,
    factorization_residual,
    profile_pairs,
)
from crittuner.blocks import (
    AuxScalars,
    NetworkSpec,
    activation,
    batchnorm,
    dense,
    init_params,
    jvp_segment,
    run_network,
    vjp_segment,
)
from crittuner.presets import conv_bn_relu_stack, linear_mlp, mlp, prebn_residual_mlp, relu_mlp
from crittuner.tensor import RngStream

SQRT2 = np.sqrt(2.0)


def _mlp_setup(spec, seed, batch):
    rng = RngStream(seed)
    x = rng.child(1).normal((batch, *spec.input_shape))
    params = init_params(spec, rng.child(2))
    return x, params, AuxScalars.ones(spec), rng


def test_linear_dense_mean_is_sigma_sq():
    # E ||W||_F^2 / N = sigma_w^2 for fan_in = fan_out = N
    spec = linear_mlp(1, 200, 1.7)
    vals = []
    for s in range(50):
        x, params, aux, _ = _mlp_setup(spec, 100 + s, 2)
        vals.append(exact_apjn(spec, params, aux, x, 0, 1))
    assert abs(np.mean(vals) / 1.7 ** 2 - 1.0) < 0.05


def test_relu_dense_at_sqrt2_is_one():
    spec = relu_mlp(1, 500, SQRT2)
    vals = []
    for s in range(20):
        x, params, aux, _ = _mlp_setup(spec, 200 + s, 8)
        vals.append(exact_apjn(spec, params, aux, x, 0, 1))
    assert abs(np.mean(vals) - 1.0) < 0.03


def test_identity_segment_is_exactly_one():
    spec = NetworkSpec((activation("linear", boundary=True),), (32,))
    x, params, aux, _ = _mlp_setup(spec, 3, 4)
    assert exact_apjn(spec, params, aux, x, 0, 1) == pytest.approx(1.0, abs=1e-14)


def test_identity_probe_terms_are_chi_square():
    n, n_v = 64, 200
    spec = NetworkSpec((activation("linear", boundary=True),), (n,))
    x, params, aux, rng = _mlp_setup(spec, 4, 5)
    state = run_network(spec, params, aux, x)
    value, stderr, terms = estimate_segment(state, 0, 1, n_v, rng.child(3),
                                            probe_mode="output")
    # each term is ||v||^2 / n for its probe vector
    assert np.all(terms > 0)
    assert abs(value - 1.0) < 5 * np.sqrt(2.0 / (n * n_v))
    assert abs(stderr / np.sqrt(2.0 / (n * n_v)) - 1.0) < 0.4


def test_estimator_unbiased_against_exact():
    spec = relu_mlp(3, 64, SQRT2, 0.3)
    x, params, aux, rng = _mlp_setup(spec, 5, 8)
    state = run_network(spec, params, aux, x)
    exact = exact_apjn(spec, params, aux, x, 1, 2, state=state)
    for mode in ("output", "input"):
        stream = rng.child(zlib.crc32(mode.encode()) % 100)
        val, err, _ = estimate_segment(state, 1, 2, 800, stream, probe_mode=mode)
        assert abs(val - exact) <= 3 * err, mode


def test_estimator_stderr_scaling():
    spec = relu_mlp(2, 64, SQRT2)
    x, params, aux, rng = _mlp_setup(spec, 6, 8)
    state = run_network(spec, params, aux, x)
    e50, e100 = [], []
    for rep in range(30):
        _, s50, _ = estimate_segment(state, 0, 1, 50, rng.child(2 * rep))
        _, s100, _ = estimate_segment(state, 0, 1, 100, rng.child(2 * rep + 1))
        e50.append(s50)
        e100.append(s100)
    ratio = np.mean(e50) / np.mean(e100)
    assert abs(ratio / SQRT2 - 1.0) < 0.2


def test_estimate_requires_probes():
    spec = relu_mlp(1, 8, 1.0)
    x, params, aux, rng = _mlp_setup(spec, 7, 2)
    with pytest.raises(ValueError):
        estimate_apjn(spec, params, aux, x, 0, 0, rng)


def test_no_batchnorm_batch_independence():
    spec = relu_mlp(2, 300, SQRT2)
    vals = {b: [] for b in (1, 8)}
    for s in range(12):
        rng = RngStream(900 + s)
        params = init_params(spec, rng.child(2))
        aux = AuxScalars.ones(spec)
        for b in vals:
            x = rng.child(b).normal((b, 300))
            vals[b].append(exact_apjn(spec, params, aux, x, 1, 2))
    m1, m8 = np.mean(vals[1]), np.mean(vals[8])
    assert abs(m1 - m8) < 0.05


def test_permutation_invariance():
    spec = relu_mlp(3, 40, 1.3, 0.2)
    x, params, aux, _ = _mlp_setup(spec, 8, 4)
    perm = RngStream(9).integers(0, 10 ** 9, 40).argsort()
    p2 = [dict(p) for p in params]
    p2[2]["W"] = params[2]["W"][perm]          # permute boundary-2 neurons
    p2[2]["b"] = params[2]["b"][perm]
    p2[4]["W"] = params[4]["W"][:, perm]
    for (l0, l1) in [(0, 1), (1, 2), (2, 3), (0, 3)]:
        a = exact_apjn(spec, params, aux, x, l0, l1)
        b = exact_apjn(spec, p2, aux, x, l0, l1)
        assert a == pytest.approx(b, rel=1e-12)


def test_budget_error_advises_estimator():
    spec = prebn_residual_mlp(2, 64, 1.0)
    x, params, aux, _ = _mlp_setup(spec, 10, 16)
    with pytest.raises(ResourceBudgetError, match="estimate"):
        exact_apjn(spec, params, aux, x, 0, 1, max_entries=1000)


def test_exact_handles_batchnorm_cross_terms():
    # small enough to fit the budget: estimator must agree with exact
    spec = prebn_residual_mlp(2, 10, 1.2, 0.4, mu=0.5)
    x, params, aux, rng = _mlp_setup(spec, 11, 6)
    state = run_network(spec, params, aux, x)
    exact = exact_apjn(spec, params, aux, x, 0, 1, state=state)
    val, err, _ = estimate_segment(state, 0, 1, 3000, rng.child(1), probe_mode="input")
    assert abs(val - exact) <= 3 * err
    val2, err2, _ = estimate_segment(state, 0, 1, 400, rng.child(2), probe_mode="output")
    assert abs(val2 - exact) <= 3 * err2


def test_profile_pair_arithmetic():
    spec = relu_mlp(4, 10, 1.0)   # boundaries 0..4
    assert profile_pairs(spec, 2) == [(0, 2), (2, 4)]
    assert profile_pairs(spec, 4) == [(0, 4)]
    assert profile_pairs(spec, 3) == [(0, 3), (3, 4)]
    with pytest.raises(ValueError):
        profile_pairs(spec, 0)


def test_profile_k1_near_critical():
    # deep-layer norms fluctuate ~ 1/sqrt(width) per draw (batch samples
    # align with depth), so width 200 with 20 draws warrants a 8% band
    spec = relu_mlp(10, 200, SQRT2)
    x, params, aux, rng = _mlp_setup(spec, 12, 8)
    report = apjn_profile(spec, params, aux, x, 1, method="exact",
                          n_param_samples=20, rng=rng.child(5))
    assert len(report.pairs) == 10
    assert np.all(np.abs(report.values() - 1.0) < 0.08)
    assert all(p.method == "exact" and p.stderr is None for p in report.pairs)


def test_profile_full_depth_product():
    spec = relu_mlp(6, 300, SQRT2)
    x, params, aux, rng = _mlp_setup(spec, 13, 4)
    report = apjn_profile(spec, params, aux, x, spec.n_boundaries - 1,
                          method="exact", n_param_samples=10, rng=rng.child(5))
    assert len(report.pairs) == 1
    assert abs(report.pairs[0].value - 1.0) < 0.15


def test_profile_estimate_has_stderr_and_csv():
    spec = relu_mlp(2, 32, 1.0)
    x, params, aux, rng = _mlp_setup(spec, 14, 4)
    report = apjn_profile(spec, params, aux, x, 1, method="estimate", n_v=32,
                          rng=rng.child(5))
    assert all(p.method == "estimated" and p.stderr is not None for p in report.pairs)
    rows = report.csv_rows()
    assert rows[0].startswith("l0,l,value,stderr")
    assert len(rows) == 3


def test_factorization_exact_for_deterministic_identity():
    spec = linear_mlp(3, 6, 1.0)
    x, params, aux, _ = _mlp_setup(spec, 15, 2)
    for i in (0, 2, 4):
        params[i]["W"] = np.eye(6)
        params[i]["b"][:] = 0.0
    assert factorization_residual(spec, params, aux, x, 0) == pytest.approx(0.0, abs=1e-14)


def test_factorization_small_at_width():
    spec = relu_mlp(3, 400, SQRT2)
    x, params, aux, _ = _mlp_setup(spec, 16, 4)
    assert factorization_residual(spec, params, aux, x, 0) < 0.08


def _eye_sweep_apjn(state, l0, l1):
    """Reference for exact_apjn: the whole identity of the narrower side in
    stacks of 128 C-contiguous rows, each broadcast over the batch (or
    placed at one sample where batch norm couples the segment), pushed
    through every block of the segment."""
    spec = state.spec
    d0, d1 = spec.boundary_dim(l0), spec.boundary_dim(l1)
    forward = d0 <= d1
    n, bsz = (d0 if forward else d1), state.batch_size
    eye = np.eye(n)
    if spec.segment_has_batchnorm(l0, l1):
        rows = np.zeros((bsz * n, bsz, n))
        rows[np.arange(bsz * n), np.arange(bsz * n) // n] = np.tile(eye, (bsz, 1))
    else:
        rows = np.broadcast_to(eye[:, None, :], (n, bsz, n))
    sweep = jvp_segment if forward else vjp_segment
    ssq = 0.0
    for c0 in range(0, rows.shape[0], 128):
        out = sweep(state, l0, l1, rows[c0:c0 + 128].copy())
        ssq += float(np.sum(out * out))
    return ssq / (bsz * d1)


def _bit_identity_state(spec, batch):
    rng = RngStream(31)
    params = init_params(spec, rng.child(1))
    aux = AuxScalars.ones(spec, "all")
    for n, key in enumerate(aux.keys()):
        aux.values[key] = 0.8 + 0.07 * n   # exercise non-unit scalars
    x = rng.child(2).normal((batch, *spec.input_shape))
    return spec, params, aux, x, run_network(spec, params, aux, x)


def _assert_bit_identical(spec, params, aux, x, state, starts):
    for (l0, l1), start in starts.items():
        assert _basis(state, l0, l1, through_first=True)[1] == start, (l0, l1)
        got = exact_apjn(spec, params, aux, x, l0, l1, state=state)
        assert got == _eye_sweep_apjn(state, l0, l1), (l0, l1)


@pytest.mark.parametrize("batch", [1, 4, 16])
@pytest.mark.parametrize("width", [130, 300])
@pytest.mark.parametrize("act", ["relu", "gelu", "tanh"])
def test_exact_dense_first_bases_are_bit_identical(act, width, batch):
    # the dense block's weight rows stand in for its JVP of the identity
    spec = mlp(2, width, 1.3, 0.3, act=act)
    _assert_bit_identical(*_bit_identity_state(spec, batch),
                          {(0, 1): 1, (1, 2): 1, (0, 2): 1})


# per checked pair, the block the basis enters at: 1 where a dense block
# opens the segment, 0 where the whole segment is swept
OTHER_SEGMENTS = {
    # batch norm couples the samples: weight rows placed per sample
    "dense-bn": (NetworkSpec((dense(130, 1.2, 0.3), batchnorm(),
                              activation("relu", boundary=True),
                              dense(130, 1.1), activation("tanh", boundary=True)), (130,)),
                 {(0, 1): 1, (1, 2): 1, (0, 2): 1}),
    "bn-first": (NetworkSpec((batchnorm(), dense(130, 1.2, 0.3),
                              activation("gelu", boundary=True)), (130,)), {(0, 1): 0}),
    "res-open": (prebn_residual_mlp(2, 130, 1.2, 0.3, mu=0.7), {(0, 1): 0, (0, 2): 0}),
    "conv": (conv_bn_relu_stack((3, 4), 1.3, 0.2, image=(2, 5, 5)), {(0, 1): 0, (1, 2): 0}),
    # wider input: the basis is pulled back from the output side
    "reverse": (mlp(1, 130, 1.3, 0.3, in_dim=300), {(0, 1): 0}),
}


@pytest.mark.parametrize("name", sorted(OTHER_SEGMENTS))
def test_exact_bases_of_other_segments_are_bit_identical(name):
    spec, starts = OTHER_SEGMENTS[name]
    _assert_bit_identical(*_bit_identity_state(spec, 4), starts)
