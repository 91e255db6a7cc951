"""JVP/VJP and scalar-gradient correctness against numeric differentiation.

The oracle is plain central differencing of the forward map between two
boundaries; the adjoint identity <g, J u> == <J^T g, u> then pins the VJP
to the verified JVP. Every block kind is covered, including the
cross-sample structure of batch normalization. The tuner's exact scalar
gradients are checked the same way, against central differences of its
loss under common random numbers.
"""

import zlib
from functools import partial

import numpy as np
import pytest

from crittuner import apjn, tuner
from crittuner.apjn import _probes, _row_stacks
from crittuner.blocks import (
    ACTIVATIONS,
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
    residual_close,
    residual_open,
    run_network,
    segment_inputs,
    vjp_segment,
)
from crittuner.presets import prebn_residual_mlp, resmlp_toy
from crittuner.tensor import RngStream


def _segment_map(spec, params, aux, x, b0, b1):
    def f(v_flat):
        xb = v_flat.reshape(x.shape[0], *spec.boundary_shape(b0)) if b0 == 0 else None
        # only b0 == 0 supported by the numeric oracle: perturb the input
        state = run_network(spec, params, aux, xb)
        return state.boundary(b1).copy()
    return f


def _numeric_jvp(spec, params, aux, x, b1, u, h=1e-6):
    f = _segment_map(spec, params, aux, x, 0, b1)
    flat = x.reshape(x.shape[0], -1)
    return (f((flat + h * u).ravel()) - f((flat - h * u).ravel())) / (2 * h)


CASES = {
    "dense": NetworkSpec((dense(7, 1.3, 0.5), activation("tanh", boundary=True)), (5,)),
    "gelu": NetworkSpec((dense(6, 1.1), activation("gelu", boundary=True)), (6,)),
    "relu": NetworkSpec((dense(6, 1.1), activation("relu", boundary=True)), (6,)),
    "batchnorm": NetworkSpec((batchnorm(), dense(5, 1.0, boundary=True)), (5,)),
    "affine_scale": NetworkSpec((affine_norm(), layer_scale(0.4, boundary=True)), (8,)),
    "residual": prebn_residual_mlp(2, 6, 1.2, 0.3, mu=0.8),
    "conv": NetworkSpec((conv2d(3, 3, 1.0, padding=1), batchnorm(),
                         activation("relu", boundary=True),
                         conv2d(4, 3, 1.0, stride=2), flatten_block(boundary=True)),
                        (2, 6, 6)),
    "pool": NetworkSpec((conv2d(3, 3, 1.0), avg_pool(boundary=True)), (2, 5, 5)),
    "patch": NetworkSpec((patch_embed(3, 5, 1.0, 0.2, boundary=True),), (2, 6, 6)),
    "resmlp": resmlp_toy(1, 6, 1.2, 0.3, mu=0.9, eps_ls=0.5, image=(2, 6, 6), patch=3,
                         hidden_mult=2),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_jvp_matches_numeric_and_vjp_is_adjoint(name):
    spec = CASES[name]
    rng = RngStream(zlib.crc32(name.encode()) % 1000)
    params = init_params(spec, rng.child(1))
    aux = AuxScalars.ones(spec, "all")
    for n, key in enumerate(aux.keys()):
        aux.values[key] = 0.8 + 0.07 * n   # exercise non-unit scalars
    bsz = 4
    x = rng.child(2).normal((bsz, *spec.input_shape))
    state = run_network(spec, params, aux, x)
    b1 = spec.n_boundaries - 1
    d0, d1 = spec.boundary_dim(0), spec.boundary_dim(b1)

    u = rng.child(3).normal((1, bsz, d0))
    jv = jvp_segment(state, 0, b1, u)[0]
    nv = _numeric_jvp(spec, params, aux, x, b1, u[0])
    assert np.allclose(jv, nv, rtol=1e-5, atol=1e-7), name

    g = rng.child(4).normal((1, bsz, d1))
    vj = vjp_segment(state, 0, b1, g)[0]
    lhs = float(np.sum(g[0] * jv))
    rhs = float(np.sum(vj * u[0]))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)), name


def test_interior_segment_traversal():
    spec = prebn_residual_mlp(3, 6, 1.1, 0.2, mu=1.0)
    rng = RngStream(17)
    params = init_params(spec, rng.child(1))
    aux = AuxScalars.ones(spec)
    x = rng.child(2).normal((5, 6))
    state = run_network(spec, params, aux, x)
    u = rng.child(3).normal((2, 5, 6))
    # chained one-block pushes equal the two-block push
    mid = jvp_segment(state, 1, 2, u)
    full = jvp_segment(state, 1, 3, u)
    assert np.allclose(jvp_segment(state, 2, 3, mid), full, rtol=1e-12)


def test_stacked_probes_match_loop():
    spec = CASES["batchnorm"]
    rng = RngStream(23)
    params = init_params(spec, rng.child(1))
    aux = AuxScalars.ones(spec)
    x = rng.child(2).normal((6, 5))
    state = run_network(spec, params, aux, x)
    u = rng.child(3).normal((4, 6, 5))
    stacked = jvp_segment(state, 0, 1, u)
    for s in range(4):
        single = jvp_segment(state, 0, 1, u[s:s + 1])
        assert np.allclose(stacked[s], single[0], rtol=1e-13)


def _replayed_inputs(state, b0, b1):
    """The block inputs of the (b0, b1) segment that their derivative rules
    read, recomputed by a forward replay from the activation at b0."""
    spec = state.spec
    x = state.boundary(b0).reshape(state.batch_size, *spec.boundary_shape(b0))
    inputs, skip = [], []
    for i in spec.segment(b0, b1):
        blk = spec.blocks[i]
        op = OPS[blk.kind]
        inputs.append(x if op.reads_input(blk) else None)
        x, _ = op.forward(blk, state.params[i], partial(state.aux.get, i), x, skip)
    return inputs


def test_kept_block_inputs_equal_a_forward_replay():
    # the gradient reads block inputs off the forward pass; a replay from
    # each segment's lower boundary gives the very same arrays
    kept = 0
    for name, spec in CASES.items():
        rng = RngStream(zlib.crc32(name.encode()) % 1000)
        aux = AuxScalars.ones(spec, "all")
        for n, key in enumerate(aux.keys()):
            aux.values[key] = 0.8 + 0.07 * n
        x = rng.child(2).normal((4, *spec.input_shape))
        state = run_network(spec, init_params(spec, rng.child(1)), aux, x)
        for b0 in range(spec.n_boundaries - 1):
            for b1 in range(b0 + 1, spec.n_boundaries):
                got, want = segment_inputs(state, b0, b1), _replayed_inputs(state, b0, b1)
                assert len(got) == len(want), (name, b0, b1)
                for k, (a, b) in enumerate(zip(got, want)):
                    assert (a is None) == (b is None), (name, b0, b1, k)
                    if a is not None:
                        assert a.shape == b.shape and bool(np.all(a == b)), (name, b0, b1, k)
        kept += sum(a is not None for a in state.inputs)
    assert kept > 0   # some interior block input is kept, not only boundaries


def test_every_block_kind_has_a_case():
    covered = {blk.kind for spec in CASES.values() for blk in spec.blocks}
    assert set(OPS) <= covered, sorted(set(OPS) - covered)


@pytest.mark.parametrize("act", ["gelu", "tanh"])
def test_activation_second_derivative_matches_numeric(act):
    _, df, d2f = ACTIVATIONS[act]
    x = np.linspace(-4.0, 4.0, 81)
    h = 1e-6
    assert np.allclose(d2f(x), (df(x + h) - df(x - h)) / (2 * h), rtol=1e-6, atol=1e-8)


def _fd_grad(spec, params, aux, x, cfg, rng, h=1e-5):
    """Central differences of the tuner's loss in each scalar, a -> a (1 +/- h),
    with common random numbers: the same batch, parameter draw and probe
    stream on both sides of every perturbation."""
    base = aux.as_vector()
    grads = {}
    for n, key in enumerate(aux.keys()):
        losses = []
        for sign in (1.0, -1.0):
            vec = base.copy()
            vec[n] = base[n] * (1.0 + sign * h)
            shifted = AuxScalars(dict(zip(aux.keys(), vec)))
            js, _, ks, _ = tuner._measure(spec, params, shifted, x, cfg, rng, False)
            losses.append(tuner._loss_of(cfg, js, ks))
        grads[key] = (losses[0] - losses[1]) / (2.0 * base[n] * h)
    return grads


# lower boundaries of the CASES pairs that are one weight block followed only
# by diagonal blocks, whose exact basis is one row
SWEEP_FREE_PAIRS = {"dense": {0}, "gelu": {0}, "relu": {0}, "patch": {0}, "resmlp": {0}}


@pytest.mark.parametrize("n_v", [0, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_measure_pairs_without_dj_tapes_nothing(name, n_v, monkeypatch):
    # the norms and their stderrs are those of the taped pass and of the
    # single-pair functions, bit for bit; no sweep is taped and nothing is
    # pulled back
    spec = CASES[name]
    rng = RngStream(zlib.crc32(name.encode()) % 1000)
    aux = AuxScalars.ones(spec, "all")
    for n, key in enumerate(aux.keys()):
        aux.values[key] = 0.8 + 0.07 * n
    x = rng.child(2).normal((4, *spec.input_shape))
    state = run_network(spec, init_params(spec, rng.child(1)), aux, x)
    probes = rng.child(3) if n_v else None
    taped, taped_errs, taped_grads = apjn.measure_pairs(state, n_v, probes, lambda j: 1.0, {})
    assert taped_grads is not None
    one_by_one = np.array([(apjn.exact_apjn(state, l, l + 1), 0.0) if n_v == 0 else
                           apjn.estimate_segment(state, l, l + 1, n_v, probes.child(l))
                           for l in range(spec.n_boundaries - 1)])
    one_by_one, one_by_one_errs = one_by_one[:, 0].copy(), one_by_one[:, 1].copy()

    log = []   # (b0, b1, taped, sweep, rows, start) per sweep

    def sweeper(fn):
        def sweep(state, b0, b1, stack, tape=None, **kwargs):
            log.append((b0, b1, tape is not None, fn.__name__, stack.shape[0],
                        kwargs.get("start", 0)))
            return fn(state, b0, b1, stack, tape, **kwargs)
        return sweep

    def no_pullback(*args):
        raise AssertionError("pullback without a gradient")

    monkeypatch.setattr(apjn, "jvp_segment", sweeper(jvp_segment))
    monkeypatch.setattr(apjn, "vjp_segment", sweeper(vjp_segment))
    monkeypatch.setattr(apjn, "pullback_segment", no_pullback)
    js, errs, grads = apjn.measure_pairs(state, n_v, probes)
    assert grads is None
    assert js.tobytes() == taped.tobytes() == one_by_one.tobytes(), (js, taped, one_by_one)
    assert errs.tobytes() == taped_errs.tobytes() == one_by_one_errs.tobytes()
    # every pair is swept; at n_v = 0 a one-row pair once, forward, with one
    # row entering after its weight block
    assert {b0 for b0, *_ in log} == set(range(spec.n_boundaries - 1))
    assert not any(taped for _, _, taped, *_ in log), log
    if n_v == 0:
        for b0 in SWEEP_FREE_PAIRS.get(name, set()):
            assert [s[3:] for s in log if s[0] == b0] == [("jvp_segment", 1, 1)], (b0, log)


def _probes_on(side):
    """A stand-in for :func:`crittuner.apjn._probes` that draws its probes on
    ``side`` for every segment, in the order and from the stream that
    ``_probes`` draws that side from: Gaussian tangents on the lower boundary,
    one sweep each ("input"), or Gaussian rows on the upper one, stacked
    ("output"). Across batch norm each output row is placed at one sample
    at a time, probe-major, so that a probe's rows are consecutive, as
    ``_terms`` reads them. The exact basis is left to ``_probes``."""
    def probes(state, l0, l1, n_v, rng):
        if n_v == 0:
            return _probes(state, l0, l1, n_v, rng)
        spec, bsz = state.spec, state.batch_size
        if side == "input":
            d0 = spec.boundary_dim(l0)
            return True, 0, (rng.normal((1, bsz, d0)) for _ in range(n_v))
        rows = rng.normal((n_v, spec.boundary_dim(l1)))
        if not spec.segment_has_batchnorm(l0, l1):
            return False, 0, _row_stacks(rows.__getitem__, n_v, bsz, False)
        stack = np.zeros((n_v * bsz, bsz, rows.shape[1]))
        stack[np.arange(n_v * bsz), np.arange(n_v * bsz) % bsz] = np.repeat(rows, bsz, axis=0)
        return False, 0, [stack]
    return probes


# n_v = 0 sweeps the exact basis; n_v = 2 draws probes, named by the side
# they enter. The tuner draws input tangents where batch norm couples a pair
# and output rows elsewhere; the other side is drawn by _probes_on, so the
# taped gradient is checked in both sweep directions on every network.
GRADIENT_CASES = [pytest.param(name, loss, probes, id=f"{name}-{loss}-{probes}")
                  for name in sorted(CASES)
                  for loss in ("jkl", "jll", "jsl")
                  for probes in ("exact", "input", "output")]


@pytest.mark.parametrize("name, loss, probes", GRADIENT_CASES)
def test_exact_gradient_matches_central_differences(name, loss, probes, monkeypatch):
    spec = CASES[name]
    rng = RngStream(zlib.crc32(name.encode()) % 1000)
    params = init_params(spec, rng.child(1))
    aux = AuxScalars.ones(spec, "all")
    for n, key in enumerate(aux.keys()):
        aux.values[key] = 0.8 + 0.07 * n   # exercise non-unit scalars
    x = rng.child(2).normal((4, *spec.input_shape))
    n_v = 0 if probes == "exact" else 2
    cfg = tuner.TuneConfig(loss=loss, lam=0.5 if loss == "jkl" else 0.0, eta=0.1, n_v=n_v)
    if n_v and probes == ("input" if spec.has_batchnorm else "output"):
        # coupled pairs tape forward input probes, the others reverse output probes
        state = run_network(spec, params, aux, x)
        for l in range(spec.n_boundaries - 1):
            forward, _, _ = _probes(state, l, l + 1, n_v, rng.child(3).child(l))
            assert forward == spec.segment_has_batchnorm(l, l + 1), (name, l)
    elif n_v:
        monkeypatch.setattr(apjn, "_probes", _probes_on(probes))
    exact = tuner.grad_aux(spec, params, aux, x, cfg, rng.child(3))
    numeric = _fd_grad(spec, params, aux, x, cfg, rng.child(3))
    assert set(exact) == set(numeric)
    scale = max(abs(v) for v in numeric.values())
    worst = max(abs(exact[k] - numeric[k]) for k in numeric)
    assert worst <= 1e-5 * scale, (name, loss, probes, worst / scale)
