from dataclasses import replace

import numpy as np
import pytest

from crittuner import apjn
from crittuner.apjn import (
    ResourceBudgetError,
    _basis,
    _probes,
    apjn_profile,
    estimate_segment,
    exact_apjn,
    factorization_residual,
    measure_pairs,
    profile_pairs,
)
from crittuner.blocks import (
    OPS,
    AuxScalars,
    NetworkSpec,
    activation,
    affine_norm,
    avg_pool,
    batchnorm,
    conv2d,
    dense,
    flatten_block,
    init_params,
    jvp_segment,
    layer_scale,
    patch_embed,
    run_network,
    vjp_segment,
)
from crittuner.config import DataConfig
from crittuner.data import make_batch
from crittuner.presets import conv_bn_relu_stack, linear_mlp, mlp, prebn_residual_mlp, relu_mlp
from crittuner.tensor import RngStream

SQRT2 = np.sqrt(2.0)


def _mlp_setup(spec, seed, batch):
    rng = RngStream(seed)
    x = rng.child(1).normal((batch, *spec.input_shape))
    params = init_params(spec, rng.child(2))
    return x, params, AuxScalars.ones(spec), rng


def _state(spec, seed, batch):
    x, params, aux, rng = _mlp_setup(spec, seed, batch)
    return run_network(spec, params, aux, x), rng


def test_linear_dense_mean_is_sigma_sq():
    # E ||W||_F^2 / N = sigma_w^2 for fan_in = fan_out = N
    spec = linear_mlp(1, 200, 1.7)
    vals = []
    for s in range(50):
        vals.append(exact_apjn(_state(spec, 100 + s, 2)[0], 0, 1))
    assert abs(np.mean(vals) / 1.7 ** 2 - 1.0) < 0.05


def test_relu_dense_at_sqrt2_is_one():
    spec = relu_mlp(1, 500, SQRT2)
    vals = []
    for s in range(20):
        vals.append(exact_apjn(_state(spec, 200 + s, 8)[0], 0, 1))
    assert abs(np.mean(vals) - 1.0) < 0.03


def test_identity_segment_is_exactly_one():
    spec = NetworkSpec((activation("linear", boundary=True),), (32,))
    assert exact_apjn(_state(spec, 3, 4)[0], 0, 1) == pytest.approx(1.0, abs=1e-14)


def test_identity_probe_terms_are_chi_square():
    n, n_v = 64, 200
    spec = NetworkSpec((activation("linear", boundary=True),), (n,))
    state, rng = _state(spec, 4, 5)
    # each probe's term is ||v||^2 / n for its probe vector
    value, stderr = estimate_segment(state, 0, 1, n_v, rng.child(3))
    assert abs(value - 1.0) < 5 * np.sqrt(2.0 / (n * n_v))
    assert abs(stderr / np.sqrt(2.0 / (n * n_v)) - 1.0) < 0.4


def test_estimator_unbiased_against_exact():
    spec = relu_mlp(3, 64, SQRT2, 0.3)
    state, rng = _state(spec, 5, 8)
    exact = exact_apjn(state, 1, 2)
    val, err = estimate_segment(state, 1, 2, 800, rng.child(34))
    assert abs(val - exact) <= 3 * err


def test_estimator_stderr_scaling():
    spec = relu_mlp(2, 64, SQRT2)
    state, rng = _state(spec, 6, 8)
    e50, e100 = [], []
    for rep in range(30):
        _, s50 = estimate_segment(state, 0, 1, 50, rng.child(2 * rep))
        _, s100 = estimate_segment(state, 0, 1, 100, rng.child(2 * rep + 1))
        e50.append(s50)
        e100.append(s100)
    ratio = np.mean(e50) / np.mean(e100)
    assert abs(ratio / SQRT2 - 1.0) < 0.2


def test_estimate_requires_probes():
    spec = relu_mlp(1, 8, 1.0)
    state, rng = _state(spec, 7, 2)
    with pytest.raises(ValueError):
        estimate_segment(state, 0, 1, 0, rng)


def test_no_batchnorm_batch_independence():
    spec = relu_mlp(2, 300, SQRT2)
    vals = {b: [] for b in (1, 8)}
    for s in range(12):
        rng = RngStream(900 + s)
        params = init_params(spec, rng.child(2))
        aux = AuxScalars.ones(spec)
        for b in vals:
            x = rng.child(b).normal((b, 300))
            vals[b].append(exact_apjn(run_network(spec, params, aux, x), 1, 2))
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
    state, state2 = run_network(spec, params, aux, x), run_network(spec, p2, aux, x)
    for (l0, l1) in [(0, 1), (1, 2), (2, 3), (0, 3)]:
        a = exact_apjn(state, l0, l1)
        b = exact_apjn(state2, l0, l1)
        assert a == pytest.approx(b, rel=1e-12)


def test_budget_error_advises_estimator():
    spec = prebn_residual_mlp(2, 64, 1.0)
    state, _ = _state(spec, 10, 16)
    with pytest.raises(ResourceBudgetError, match="estimate_segment"):
        exact_apjn(state, 0, 1, max_entries=1000)


def test_non_finite_boundaries_measure_nan():
    # sigma_w = 1e6 overflows the float64 range about halfway up the stack;
    # the ReLU mask reads NaN as inactive, so a sweep there would give 0.0
    blocks = sum(((dense(20, 1e6), activation("relu", boundary=True)) for _ in range(60)), ())
    spec = NetworkSpec(blocks, (20,))
    rng = RngStream(3)
    x = make_batch(DataConfig(batch=4), spec.input_shape, rng.child(1))
    with np.errstate(all="ignore"):
        state = run_network(spec, init_params(spec, rng.child(2)), AuxScalars.ones(spec), x)
        exact = [exact_apjn(state, l, l + 1) for l in range(60)]
        estimated = [estimate_segment(state, l, l + 1, 2, rng.child(3 + l)) for l in range(60)]
    assert np.all(np.isfinite(exact[:52]))
    assert np.all(np.isnan(exact[52:]))
    assert np.all(np.isfinite(estimated[:52]))
    assert np.all(np.isnan(estimated[52:]))


def test_exact_handles_batchnorm_cross_terms():
    # small enough to fit the budget: estimator must agree with exact
    spec = prebn_residual_mlp(2, 10, 1.2, 0.4, mu=0.5)
    state, rng = _state(spec, 11, 6)
    exact = exact_apjn(state, 0, 1)
    val, err = estimate_segment(state, 0, 1, 3000, rng.child(1))
    assert abs(val - exact) <= 3 * err


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
    state = run_network(spec, params, aux, x)
    assert factorization_residual(state, 0) == pytest.approx(0.0, abs=1e-14)


def test_factorization_small_at_width():
    spec = relu_mlp(3, 400, SQRT2)
    assert factorization_residual(_state(spec, 16, 4)[0], 0) < 0.08


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


def _basis_sweep_apjn(state, l0, l1):
    """The basis sweep that exact norms and their gradients use: the
    ``_probes`` stacks at ``n_v = 0`` pushed through the segment from the
    block they enter at."""
    forward, start, stacks = _probes(state, l0, l1, 0, None)
    ssq = 0.0
    for t in stacks:
        if forward:
            out = jvp_segment(state, l0, l1, t, start=start)
        else:
            out = vjp_segment(state, l0, l1, t)
        ssq += float(np.sum(out * out))
    return ssq / (state.batch_size * state.spec.boundary_dim(l1))


def _bit_identity_state(spec, batch):
    rng = RngStream(31)
    params = init_params(spec, rng.child(1))
    aux = AuxScalars.ones(spec, "all")
    for n, key in enumerate(aux.keys()):
        aux.values[key] = 0.8 + 0.07 * n   # exercise non-unit scalars
    x = rng.child(2).normal((batch, *spec.input_shape))
    return run_network(spec, params, aux, x)


def _one_row(state, l0, l1):
    """Whether the exact basis of the pair is one row pushed forward from
    the output of its first block."""
    forward, start, stacks = _basis(state, l0, l1)
    stacks = list(stacks)
    return forward and start == 1 and len(stacks) == 1 and stacks[0].shape[0] == 1


def _assert_bit_identical(state, starts, one_row=()):
    # exact_apjn is the basis sweep bit for bit; the basis sweep is the
    # identity sweep bit for bit, or, on the ``one_row`` pairs, within 1e-12
    for (l0, l1), start in starts.items():
        assert _basis(state, l0, l1)[1] == start, (l0, l1)
        assert _probes(state, l0, l1, 0, None)[1] == start, (l0, l1)
        assert _one_row(state, l0, l1) == ((l0, l1) in one_row), (l0, l1)
        swept = _basis_sweep_apjn(state, l0, l1)
        assert exact_apjn(state, l0, l1) == swept, (l0, l1)
        want = _eye_sweep_apjn(state, l0, l1)
        if (l0, l1) in one_row:
            assert swept == pytest.approx(want, rel=1e-12, abs=0), (l0, l1)
        else:
            assert swept == want, (l0, l1)


@pytest.mark.parametrize("batch", [1, 4, 16])
@pytest.mark.parametrize("width", [130, 300])
@pytest.mark.parametrize("act", ["relu", "gelu", "tanh"])
def test_exact_dense_first_bases_are_bit_identical(act, width, batch):
    # the dense block's weight rows stand in for its JVP of the identity; a
    # one-pair segment needs one row
    spec = mlp(2, width, 1.3, 0.3, act=act)
    _assert_bit_identical(_bit_identity_state(spec, batch),
                          {(0, 1): 1, (1, 2): 1, (0, 2): 1}, {(0, 1), (1, 2)})


# per checked pair, the block the basis enters at (1 where a dense block
# opens the segment or the basis is one row, 0 where the whole segment is
# swept), and the pairs whose basis is one row
OTHER_SEGMENTS = {
    # batch norm couples the samples: weight rows placed per sample
    "dense-bn": (NetworkSpec((dense(130, 1.2, 0.3), batchnorm(),
                              activation("relu", boundary=True),
                              dense(130, 1.1), activation("tanh", boundary=True)), (130,)),
                 {(0, 1): 1, (1, 2): 1, (0, 2): 1}, {(1, 2)}),
    "bn-first": (NetworkSpec((batchnorm(), dense(130, 1.2, 0.3),
                              activation("gelu", boundary=True)), (130,)), {(0, 1): 0}, set()),
    "res-open": (prebn_residual_mlp(2, 130, 1.2, 0.3, mu=0.7), {(0, 1): 0, (0, 2): 0}, set()),
    "conv": (conv_bn_relu_stack((3, 4), 1.3, 0.2, image=(2, 5, 5)), {(0, 1): 0, (1, 2): 0},
             set()),
    # wider input: the identity basis would be pulled back from the output
    # side; the one row is pushed forward whichever side is narrower
    "reverse": (mlp(1, 130, 1.3, 0.3, in_dim=300), {(0, 1): 1}, {(0, 1)}),
}


@pytest.mark.parametrize("name", sorted(OTHER_SEGMENTS))
def test_exact_bases_of_other_segments_are_bit_identical(name):
    spec, starts, one_row = OTHER_SEGMENTS[name]
    _assert_bit_identical(_bit_identity_state(spec, 4), starts, one_row)


def _count_sweeps(monkeypatch, stacks=None):
    """Per lower boundary, how many stacks ``apjn`` sweeps from now on; with a
    ``stacks`` list, each sweep's direction, row count and entry block are
    appended to it."""
    counts = {}

    def sweeper(fn):
        def sweep(state, b0, b1, stack, tape=None, **kwargs):
            counts[b0] = counts.get(b0, 0) + 1
            if stacks is not None:
                stacks.append((fn.__name__, stack.shape[0], kwargs.get("start", 0)))
            return fn(state, b0, b1, stack, tape, **kwargs)
        return sweep

    monkeypatch.setattr(apjn, "jvp_segment", sweeper(jvp_segment))
    monkeypatch.setattr(apjn, "vjp_segment", sweeper(vjp_segment))
    return counts


# a weight block of each kind, and what may follow it in a one-row segment
WEIGHT_BLOCKS = {
    "dense": ((5,), lambda: dense(7, 1.3, 0.4)),
    "dense-tokens": ((3, 5), lambda: dense(6, 1.2, 0.3)),
    "dense-axis1": ((4, 5), lambda: dense(6, 1.2, 0.3, axis=1)),
    "conv-p0-s1": ((2, 6, 6), lambda: conv2d(3, 3, 1.1, 0.2)),
    "conv-p1-s1": ((2, 6, 6), lambda: conv2d(3, 3, 1.1, 0.2, padding=1)),
    "conv-p0-s2": ((2, 6, 6), lambda: conv2d(3, 3, 1.1, 0.2, stride=2)),
    "conv-p1-s2": ((2, 6, 6), lambda: conv2d(3, 3, 1.1, 0.2, stride=2, padding=1)),
    "patch": ((2, 6, 6), lambda: patch_embed(3, 5, 1.0, 0.2)),
}
FOLLOWERS = {
    "none": (),
    "relu": (activation("relu"),),
    "gelu": (activation("gelu"),),
    "tanh": (activation("tanh"),),
    "affine": (affine_norm(1.3, 0.2),),
    "lscale": (layer_scale(0.6),),
    "tanh-affine-lscale": (activation("tanh"), affine_norm(0.9, -0.1), layer_scale(1.4)),
}


def _one_segment(blocks, input_shape):
    return NetworkSpec((*blocks[:-1], replace(blocks[-1], boundary=True)), input_shape)


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("follow", sorted(FOLLOWERS))
@pytest.mark.parametrize("weight", sorted(WEIGHT_BLOCKS))
def test_sweep_free_norm_matches_identity_sweep(weight, follow, batch, monkeypatch):
    shape, make = WEIGHT_BLOCKS[weight]
    state = _bit_identity_state(_one_segment((make(), *FOLLOWERS[follow]), shape), batch)
    want = _eye_sweep_apjn(state, 0, 1)
    stacks = []
    sweeps = _count_sweeps(monkeypatch, stacks)
    assert exact_apjn(state, 0, 1) == pytest.approx(want, rel=1e-12, abs=0)
    # one forward sweep of one row, entering after the weight block
    assert sweeps == {0: 1}
    assert stacks == [("jvp_segment", 1, 1)]


# every one-row segment, and a two-pair tanh MLP, where the cotangent of
# the upper pair on its input reaches the lower pair's scalars through the
# pullback's ``extra`` cotangents
ONE_ROW_GRADIENT_CASES = [
    *(pytest.param(weight, follow, batch, id=f"{weight}-{follow}-{batch}")
      for weight in sorted(WEIGHT_BLOCKS) for follow in sorted(FOLLOWERS) for batch in (1, 4)),
    pytest.param(None, None, 4, id="tanh-mlp-4"),
]


@pytest.mark.parametrize("weight, follow, batch", ONE_ROW_GRADIENT_CASES)
def test_one_row_gradient_matches_basis_gradient(weight, follow, batch, monkeypatch):
    # the one row tapes the partials the whole identity basis tapes: each is
    # a per-coordinate sum over basis rows, which the row holds elementwise
    if weight is None:
        spec = mlp(2, 9, 1.3, 0.3, act="tanh")
    else:
        shape, make = WEIGHT_BLOCKS[weight]
        spec = _one_segment((make(), *FOLLOWERS[follow]), shape)
    state = _bit_identity_state(spec, batch)
    pairs = range(spec.n_boundaries - 1)

    def dj(j):
        return 1.0 + j * j

    assert all(_one_row(state, l, l + 1) for l in pairs)
    js, _, got = measure_pairs(state, 0, None, dj, {})
    # without row norms every segment falls back to the identity basis
    for op in OPS.values():
        monkeypatch.setattr(type(op), "row_sq", lambda self, blk, cache: None)
    assert not any(_one_row(state, l, l + 1) for l in pairs)
    want_js, _, want = measure_pairs(state, 0, None, dj, {})
    assert js == pytest.approx(want_js, rel=1e-12, abs=0)
    assert set(got) == set(want)
    scale = max(abs(v) for v in want.values())
    assert max(abs(got[k] - want[k]) for k in want) <= 1e-12 * scale, (got, want)


# segments whose basis is not one row; each side is narrower than one
# 128-row stack, so exact_apjn sweeps once
SWEPT_SEGMENTS = {
    "batchnorm": _one_segment((dense(6, 1.2, 0.3), batchnorm(), activation("relu")), (5,)),
    "residual": prebn_residual_mlp(1, 6, 1.2, 0.3, mu=0.7),
    "two-weight-blocks": _one_segment((dense(6, 1.2), activation("relu"), dense(6, 1.1)), (5,)),
    "leading-pointwise": _one_segment((affine_norm(1.3), dense(6, 1.2)), (5,)),
    "pool": _one_segment((conv2d(3, 3, 1.1), avg_pool()), (2, 5, 5)),
    "flatten": _one_segment((conv2d(3, 3, 1.1), flatten_block()), (2, 5, 5)),
}


@pytest.mark.parametrize("name", sorted(SWEPT_SEGMENTS))
def test_other_segments_still_sweep(name, monkeypatch):
    state = _bit_identity_state(SWEPT_SEGMENTS[name], 4)
    want = _eye_sweep_apjn(state, 0, 1)
    sweeps = _count_sweeps(monkeypatch)
    assert exact_apjn(state, 0, 1) == want
    assert sweeps == {0: 1}


# per-pair sweep counts: exact_apjn and measure_pairs without dj at n_v = 0
# ("exact"), measure_pairs with dj at n_v = 0 ("exact-dj"), and measure_pairs
# at n_v = 2 with and without dj ("probes"); a one-row basis is one sweep
# with or without dj, and so are the stacked probe rows of a pair without
# batch norm, which sweeps one probe at a time
SWEEP_COUNTS = {
    "relu-mlp": (relu_mlp(3, 200, SQRT2, 0.1),
                 {"exact": {0: 1, 1: 1, 2: 1}, "exact-dj": {0: 1, 1: 1, 2: 1},
                  "probes": {0: 1, 1: 1, 2: 1}}),
    "conv-relu": (NetworkSpec((conv2d(4, 3, 1.4, 0.1, padding=1), activation("relu", boundary=True),
                               conv2d(5, 3, 1.4, 0.1, stride=2),
                               activation("relu", boundary=True)), (4, 6, 6)),
                  {"exact": {0: 1, 1: 1}, "exact-dj": {0: 1, 1: 1}, "probes": {0: 1, 1: 1}}),
    "conv-bn": (conv_bn_relu_stack((3, 4), 1.3, 0.2, image=(2, 5, 5)),
                {"exact": {0: 2, 1: 3}, "exact-dj": {0: 2, 1: 3}, "probes": {0: 2, 1: 2}}),
}


@pytest.mark.parametrize("name", sorted(SWEEP_COUNTS))
def test_sweep_counts_per_pair(name, monkeypatch):
    spec, want = SWEEP_COUNTS[name]
    state = _bit_identity_state(spec, 4)
    top = spec.n_boundaries - 1
    sweeps = _count_sweeps(monkeypatch)

    def counted(measure):
        measure()
        got = dict(sweeps)
        sweeps.clear()
        return got

    assert counted(lambda: [exact_apjn(state, l, l + 1) for l in range(top)]) == want["exact"]
    assert counted(lambda: measure_pairs(state, 0, None)) == want["exact"]
    assert counted(lambda: measure_pairs(state, 0, None, lambda j: 1.0, {})) == want["exact-dj"]
    for dj in (None, lambda j: 1.0):
        assert counted(lambda: measure_pairs(state, 2, RngStream(3), dj)) == want["probes"]


def test_budget_covers_sweep_free_segments():
    # the budget does not exempt a segment whose basis is one row, so "auto"
    # picks the estimator where the Jacobian would not fit
    spec = relu_mlp(1, 40, SQRT2)
    x, params, aux, rng = _mlp_setup(spec, 17, 4)
    state = run_network(spec, params, aux, x)
    assert _one_row(state, 0, 1)
    with pytest.raises(ResourceBudgetError, match="estimate_segment"):
        exact_apjn(state, 0, 1, max_entries=40 * 40 - 1)
    report = apjn_profile(spec, params, aux, x, 1, method="auto", n_v=4,
                          rng=rng.child(5), max_entries=40 * 40 - 1)
    assert [p.method for p in report.pairs] == ["estimated"]
    report = apjn_profile(spec, params, aux, x, 1, method="auto", rng=rng.child(5),
                          max_entries=40 * 40)
    assert [p.method for p in report.pairs] == ["exact"]


# one pair that batch norm couples, (0, 1), and one it does not, (1, 2)
STACKED = NetworkSpec((dense(12, 1.2, 0.3), batchnorm(), activation("relu", boundary=True),
                       dense(10, 1.1), activation("tanh", boundary=True)), (9,))


def _per_probe_terms(state, l0, l1, n_v, rng):
    """Reference for the probe terms: each probe drawn by its own call, as a
    Gaussian tangent on l0 where batch norm couples the segment, else as a
    Gaussian row on l1, and swept alone."""
    spec, bsz = state.spec, state.batch_size
    d0, d1 = spec.boundary_dim(l0), spec.boundary_dim(l1)
    terms = []
    for _ in range(n_v):
        if spec.segment_has_batchnorm(l0, l1):
            out = jvp_segment(state, l0, l1, rng.normal((1, bsz, d0)))
        else:
            out = vjp_segment(state, l0, l1, np.broadcast_to(rng.normal(d1), (1, bsz, d1)).copy())
        terms.append(float(np.sum(out * out)) / (bsz * d1))
    return np.array(terms)


@pytest.mark.parametrize("with_dj", [False, True], ids=["no-dj", "dj"])
@pytest.mark.parametrize("n_v", [1, 2, 5, 130])
def test_probe_rows_are_stacked_per_pair(n_v, with_dj, monkeypatch):
    # a pair without batch norm pulls all its probe rows back in stacks of at
    # most 128; a coupled pair pushes one tangent forward per sweep; both draw
    # what a per-probe loop draws, and give its terms
    state = _bit_identity_state(STACKED, 4)
    refs = {l: RngStream(5).child(l) for l in (0, 1)}
    want = {l: _per_probe_terms(state, l, l + 1, n_v, refs[l]) for l in (0, 1)}

    streams, terms, log = {}, {}, []
    child, real_terms = RngStream.child, apjn._terms

    def recorded_child(self, tag):
        streams[tag] = child(self, tag)
        return streams[tag]

    def recorded_terms(state, l0, l1, *args, **kwargs):
        terms[l0] = real_terms(state, l0, l1, *args, **kwargs)
        return terms[l0]

    def sweeper(fn):
        def sweep(state, b0, b1, stack, tape=None, **kwargs):
            log.append((b0, fn.__name__, stack.shape[0]))
            return fn(state, b0, b1, stack, tape, **kwargs)
        return sweep

    monkeypatch.setattr(RngStream, "child", recorded_child)
    monkeypatch.setattr(apjn, "_terms", recorded_terms)
    monkeypatch.setattr(apjn, "jvp_segment", sweeper(jvp_segment))
    monkeypatch.setattr(apjn, "vjp_segment", sweeper(vjp_segment))
    js, errs, grads = measure_pairs(state, n_v, RngStream(5), (lambda j: 1.0 + j * j) if with_dj
                                    else None)
    assert (grads is not None) == with_dj
    n_stacks = -(-n_v // 128)
    assert [rows for b0, name, rows in log if b0 == 1 and name == "vjp_segment"] == \
        [min(128, n_v - 128 * c) for c in range(n_stacks)]
    assert [rows for b0, name, rows in log if b0 == 0 and name == "jvp_segment"] == [1] * n_v
    assert len(log) == n_v + n_stacks
    for l in (0, 1):
        assert streams[l].counter == refs[l].counter, l
        assert terms[l] == pytest.approx(want[l], rel=1e-12, abs=0), l
        assert js[l] == pytest.approx(want[l].mean(), rel=1e-12, abs=0), l
        if n_v == 1:
            assert np.isnan(errs[l])
        else:
            assert errs[l] == pytest.approx(want[l].std(ddof=1) / np.sqrt(n_v), rel=1e-9), l


def test_measure_pairs_stderr_follows_estimate_segment():
    # exact norms carry stderr 0.0, a single probe NaN, and n_v >= 2 probes
    # the stderr estimate_segment gives, bit for bit
    state = _bit_identity_state(STACKED, 4)
    _, errs, _ = measure_pairs(state, 0, None)
    assert errs.tolist() == [0.0, 0.0]
    _, errs, _ = measure_pairs(state, 1, RngStream(5))
    assert np.all(np.isnan(errs))
    js, errs, _ = measure_pairs(state, 3, RngStream(5))
    for l in (0, 1):
        value, stderr = estimate_segment(state, l, l + 1, 3, RngStream(5).child(l))
        assert (js[l], errs[l]) == (value, stderr)
        assert stderr > 0
