"""JVP/VJP and scalar-gradient correctness against numeric differentiation.

The oracle is plain central differencing of the forward map between two
boundaries; the adjoint identity <g, J u> == <J^T g, u> then pins the VJP
to the verified JVP. Every block kind is covered, including the
cross-sample structure of batch normalization. The tuner's exact scalar
gradients are checked the same way, against central differences of its
loss under common random numbers.
"""

import zlib

import numpy as np
import pytest

from crittuner import tuner
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
    pairs = tuner._pair_list(spec, cfg.span)
    base = aux.as_vector()
    grads = {}
    for n, key in enumerate(aux.keys()):
        losses = []
        for sign in (1.0, -1.0):
            vec = base.copy()
            vec[n] = base[n] * (1.0 + sign * h)
            shifted = AuxScalars(dict(zip(aux.keys(), vec)))
            _, js, ks = tuner._measure(spec, params, shifted, x, cfg, pairs, rng)
            losses.append(tuner._loss_of(cfg, js, ks))
        grads[key] = (losses[0] - losses[1]) / (2.0 * base[n] * h)
    return grads


PROBES = {"exact": dict(n_v=0), "output": dict(n_v=2, probe_mode="output"),
          "input": dict(n_v=2, probe_mode="input")}


@pytest.mark.parametrize("probes", sorted(PROBES))
@pytest.mark.parametrize("loss", ["jll", "jsl", "jkl"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_gradient_matches_central_differences(name, loss, probes):
    # output probes are broadcast rows, or one-hot per sample across batch norm
    spec = CASES[name]
    rng = RngStream(zlib.crc32(name.encode()) % 1000)
    params = init_params(spec, rng.child(1))
    aux = AuxScalars.ones(spec, "all")
    for n, key in enumerate(aux.keys()):
        aux.values[key] = 0.8 + 0.07 * n   # exercise non-unit scalars
    x = rng.child(2).normal((4, *spec.input_shape))
    cfg = tuner.TuneConfig(loss=loss, lam=0.5 if loss == "jkl" else 0.0, eta=0.1,
                           **PROBES[probes])
    exact = tuner.grad_aux(spec, params, aux, x, cfg, rng.child(3))
    numeric = _fd_grad(spec, params, aux, x, cfg, rng.child(3))
    assert set(exact) == set(numeric)
    scale = max(abs(v) for v in numeric.values())
    worst = max(abs(exact[k] - numeric[k]) for k in numeric)
    assert worst <= 1e-5 * scale, (name, loss, probes, worst / scale)
