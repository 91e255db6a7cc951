import threading

import numpy as np
import pytest
from scipy.special import ndtr

from crittuner import blocks
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
    gelu,
    init_params,
    layer_scale,
    normalize_unit_second_moment,
    patch_embed,
    residual_close,
    residual_open,
    run_network,
    scale_params,
)
from crittuner.presets import conv_bn_relu_stack, prebn_residual_mlp, relu_mlp, resmlp_toy
from crittuner.tensor import RngStream


def test_spec_shape_propagation_and_boundaries():
    spec = relu_mlp(3, 10, 1.0, in_dim=7)
    assert spec.input_shape == (7,)
    assert [spec.boundary_dim(b) for b in range(spec.n_boundaries)] == [7, 10, 10, 10]
    assert spec.L == 2
    assert spec.blocks[0].fan_in == 7


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        NetworkSpec((dense(0, 1.0),), (5,))
    with pytest.raises(ValueError):
        NetworkSpec((dense(5, -1.0),), (5,))
    with pytest.raises(ValueError):
        NetworkSpec((residual_close(1.0),), (5,))
    with pytest.raises(ValueError):
        NetworkSpec((residual_open(), dense(4, 1.0)), (5,))  # unclosed
    with pytest.raises(ValueError):
        NetworkSpec((residual_open(), dense(5, 1.0, boundary=True),
                     residual_close(1.0)), (5,))  # boundary inside branch
    with pytest.raises(ValueError):
        NetworkSpec((activation("swish"),), (5,))


def test_init_params_weight_variance():
    spec = NetworkSpec((dense(100, np.sqrt(2.0)),), (100,))
    params = init_params(spec, RngStream(0))
    w = params[0]["W"]
    assert w.shape == (100, 100)
    assert abs(w.var() * 100 / 2.0 - 1.0) < 0.1


def test_init_params_zero_bias_and_identity_affine():
    spec = NetworkSpec((dense(50, 1.0, 0.0), affine_norm(), layer_scale(0.25)), (50,))
    params = init_params(spec, RngStream(3))
    assert np.all(params[0]["b"] == 0.0)
    assert np.all(params[1]["alpha"] == 1.0)
    assert np.all(params[1]["beta"] == 0.0)
    assert np.all(params[2]["scale"] == 0.25)


DRAW_SPECS = {
    "relu_mlp": lambda: relu_mlp(4, 30, 1.5, 0.1),
    "conv_bn_relu_stack": lambda: conv_bn_relu_stack((4, 6, 6), 1.5, 0.1, image=(3, 6, 6)),
    "resmlp_toy": lambda: resmlp_toy(2, 8, 1.4, 0.1, image=(3, 8, 8), patch=2),
    "prebn_residual_mlp": lambda: prebn_residual_mlp(3, 20, 1.5, 0.1),
}


def _record_draw_threads(monkeypatch) -> set:
    """Wrap every kind's init so the ids of the threads that call it are kept."""
    used = set()
    for op in OPS.values():
        def init(blk, rng, orig=op.init):
            used.add(threading.get_ident())
            return orig(blk, rng)
        monkeypatch.setattr(op, "init", init)
    return used


def _threaded(monkeypatch, cores=3):
    """Draw every network on ``cores`` threads, however small and whatever
    this machine has."""
    monkeypatch.setattr(blocks, "_THREADED_DRAWS", 0)
    monkeypatch.setattr(blocks, "_cores", lambda: cores)


@pytest.mark.parametrize("name", sorted(DRAW_SPECS))
def test_init_params_concurrent_draw_equals_block_by_block(name, monkeypatch):
    # blocks are drawn on several threads, each from its own child stream, so
    # the result must equal drawing them one after another in block order
    spec = DRAW_SPECS[name]()
    rng = RngStream(5).child(2)
    _threaded(monkeypatch)
    used = _record_draw_threads(monkeypatch)
    before = threading.active_count()
    params = init_params(spec, rng)
    assert threading.active_count() == before
    assert 1 <= len(used) <= 3
    assert rng.counter == 0
    serial = [OPS[b.kind].init(b, rng.child(i)) for i, b in enumerate(spec.blocks)]
    assert len(params) == len(serial)
    for got, want in zip(params, serial):
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key])


@pytest.mark.parametrize("name", sorted(DRAW_SPECS))
def test_init_params_error_in_one_block_reaches_caller(name, monkeypatch):
    spec = DRAW_SPECS[name]()
    failing = spec.blocks[-1]
    op = OPS[failing.kind]

    def init(blk, rng, orig=op.init):
        if blk is failing:
            raise RuntimeError("draw failed")
        return orig(blk, rng)

    _threaded(monkeypatch)
    monkeypatch.setattr(op, "init", init)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="draw failed"):
        init_params(spec, RngStream(5))
    assert threading.active_count() == before


@pytest.mark.parametrize("name", sorted(DRAW_SPECS))
def test_op_draws_counts_the_normals_init_draws(name):
    spec = DRAW_SPECS[name]()
    for i, blk in enumerate(spec.blocks):
        rng = RngStream(5).child(i)
        OPS[blk.kind].init(blk, rng)
        assert OPS[blk.kind].draws(blk) == rng.counter


def test_init_params_draws_in_calling_thread_on_one_core(monkeypatch):
    spec = relu_mlp(4, 300, 1.5, 0.1)  # past the threshold
    assert sum(OPS[b.kind].draws(b) for b in spec.blocks) >= blocks._THREADED_DRAWS
    monkeypatch.setattr(blocks, "_cores", lambda: 1)
    used = _record_draw_threads(monkeypatch)
    init_params(spec, RngStream(5))
    assert used == {threading.get_ident()}


@pytest.mark.parametrize("name", sorted(DRAW_SPECS))
def test_init_params_draws_small_networks_in_calling_thread(name, monkeypatch):
    # the toy nets' set-up draws a few thousand normals; a helper thread
    # would cost more than it saves
    spec = DRAW_SPECS[name]()
    monkeypatch.setattr(blocks, "_cores", lambda: 3)
    used = _record_draw_threads(monkeypatch)
    init_params(spec, RngStream(5))
    assert used == {threading.get_ident()}


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_init_params_starts_one_helper_per_further_core(cores, monkeypatch):
    spec = relu_mlp(4, 300, 1.5, 0.1)
    monkeypatch.setattr(blocks, "_cores", lambda: cores)
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Thread)
    before = threading.active_count()
    init_params(spec, RngStream(5))
    assert threading.active_count() == before
    assert len(started) == cores - 1
    assert not any(t.is_alive() for t in started)


def test_forward_identity_dense_injection():
    spec = NetworkSpec((dense(6, 1.0, 0.0), activation("linear", boundary=True)), (6,))
    params = init_params(spec, RngStream(0))
    params[0]["W"] = np.eye(6)
    params[0]["b"][:] = 0.0
    x = RngStream(1).normal((3, 6))
    acts = run_network(spec, params, AuxScalars.ones(spec), x)
    assert np.allclose(acts.boundaries[-1], x)


def test_relu_values_and_zero_derivative_convention():
    spec = NetworkSpec((activation("relu", boundary=True),), (3,))
    acts = run_network(spec, init_params(spec, RngStream(0)), AuxScalars.ones(spec),
                       np.array([[-1.0, 2.0, 0.0]]))
    assert np.array_equal(acts.boundaries[-1], np.array([[0.0, 2.0, 0.0]]))


def test_gelu_exact_values():
    assert gelu(np.array([0.0]))[0] == 0.0
    assert abs(gelu(np.array([10.0]))[0] - 10.0) < 1e-8
    for x in (0.5, 1.0, 2.0):
        lhs = gelu(np.array([-x]))[0]
        rhs = -x + gelu(np.array([x]))[0]
        assert abs(lhs - rhs) < 1e-14
    x = np.array([0.3, -1.2])
    assert np.allclose(gelu(x), x * ndtr(x))


def test_batchnorm_statistics():
    spec = NetworkSpec((batchnorm(boundary=True),), (40,))
    x = RngStream(5).normal((16, 40), 3.0, 2.5)
    acts = run_network(spec, init_params(spec, RngStream(0)), AuxScalars.ones(spec), x)
    y = acts.boundaries[-1]
    assert np.max(np.abs(y.mean(axis=0))) < 1e-12
    assert np.max(np.abs(y.var(axis=0) - 1.0)) < 1e-4  # eps-shifted variance
    spec0 = NetworkSpec((batchnorm(eps=0.0, boundary=True),), (40,))
    y0 = run_network(spec0, init_params(spec0, RngStream(0)), AuxScalars.ones(spec0),
                     x).boundaries[-1]
    assert np.max(np.abs(y0.var(axis=0) - 1.0)) < 1e-10


def test_batchnorm_needs_two_samples():
    spec = NetworkSpec((batchnorm(),), (4,))
    with pytest.raises(ValueError):
        run_network(spec, init_params(spec, RngStream(0)), AuxScalars.ones(spec),
                    np.ones((1, 4)))


def test_batch_shape_mismatch_rejected():
    spec = relu_mlp(1, 4, 1.0)
    with pytest.raises(ValueError):
        run_network(spec, init_params(spec, RngStream(0)), AuxScalars.ones(spec),
                    np.ones((2, 5)))


def test_pure_skip_path_is_identity():
    # branch zeroed via aux = 0 on W and b, mu = 1
    spec = prebn_residual_mlp(2, 12, 1.5, 0.5, mu=1.0)
    params = init_params(spec, RngStream(1))
    aux = AuxScalars.ones(spec)
    for (i, g) in aux.keys():
        aux.values[(i, g)] = 1e-300
    x = RngStream(2).normal((4, 12))
    acts = run_network(spec, params, aux, x)
    assert np.allclose(acts.boundaries[-1], x.reshape(4, -1), atol=1e-290)


def test_twin_equivalence_bit_exact():
    spec = resmlp_toy(2, 8, 1.3, 0.4, mu=0.7, eps_ls=0.3, image=(3, 8, 8), patch=4)
    params = init_params(spec, RngStream(7))
    aux = AuxScalars.ones(spec, "all")
    for n, key in enumerate(aux.keys()):
        aux.values[key] = 0.5 + 0.1 * n
    x = RngStream(8).normal((3, 3, 8, 8))
    a = run_network(spec, params, aux, x)
    b = run_network(spec, scale_params(spec, params, aux), AuxScalars.ones(spec, "all"), x)
    for ba, bb in zip(a.boundaries, b.boundaries):
        assert np.array_equal(ba, bb)


def test_relu_homogeneity():
    # scaling one layer's weight scalar by c scales downstream activations by c
    spec = relu_mlp(3, 20, 1.2)
    params = init_params(spec, RngStream(11))
    x = RngStream(12).normal((5, 20))
    base = run_network(spec, params, AuxScalars.ones(spec), x)
    aux = AuxScalars.ones(spec)
    c = 3.7
    aux.values[(2, "W")] = c  # second dense block
    scaled = run_network(spec, params, aux, x)
    assert np.allclose(scaled.boundaries[1], base.boundaries[1], rtol=1e-12)
    for b in (2, 3):
        assert np.allclose(scaled.boundaries[b], c * base.boundaries[b], rtol=1e-12)


def test_centering_projector_idempotent():
    # applying the batch-centering map twice equals applying it once
    x = RngStream(3).normal((9, 6), 1.0, 2.0)
    once = x - x.mean(axis=0)
    twice = once - once.mean(axis=0)
    assert np.allclose(once, twice, atol=1e-14)


def test_resmlp_block_identity_at_zero_scale_unit_skip():
    spec = resmlp_toy(2, 8, 1.0, mu=1.0, eps_ls=0.0, image=(3, 8, 8), patch=4)
    params = init_params(spec, RngStream(4))
    x = RngStream(5).normal((2, 3, 8, 8))
    acts = run_network(spec, params, AuxScalars.ones(spec), x)
    # embeddings (boundary 1) pass through both blocks untouched
    assert np.allclose(acts.boundaries[2], acts.boundaries[1], atol=1e-15)
    assert np.allclose(acts.boundaries[3], acts.boundaries[1], atol=1e-15)


def test_normalize_unit_second_moment():
    x = RngStream(6).normal((7, 3, 5, 5), 2.0, 3.0)
    y = normalize_unit_second_moment(x)
    m = (y.reshape(7, -1) ** 2).mean(axis=1)
    assert np.allclose(m, 1.0, atol=1e-12)


def test_boundary_count_matches_depth():
    spec = prebn_residual_mlp(5, 8, 1.0)
    x = RngStream(0).normal((3, 8))
    acts = run_network(spec, init_params(spec, RngStream(1)), AuxScalars.ones(spec), x)
    assert len(acts.boundaries) == spec.L + 2 == 6


def test_conv_and_pool_shapes():
    spec = NetworkSpec(
        (conv2d(4, 3, 1.0, padding=1), batchnorm(), activation("relu", boundary=True),
         conv2d(6, 3, 1.0, stride=2), activation("relu", boundary=True),
         avg_pool(), flatten_block(boundary=True)),
        (2, 8, 8))
    assert spec.boundary_shape(1) == (4, 8, 8)
    assert spec.boundary_shape(2) == (6, 3, 3)
    assert spec.boundary_shape(3) == (6,)
    x = RngStream(1).normal((3, 2, 8, 8))
    acts = run_network(spec, init_params(spec, RngStream(2)), AuxScalars.ones(spec), x)
    assert acts.boundaries[-1].shape == (3, 6)


def test_patch_embed_shape_and_fan_in():
    spec = NetworkSpec((patch_embed(4, 16, 1.0, boundary=True),), (3, 16, 16))
    assert spec.blocks[0].fan_in == 48
    assert spec.boundary_shape(1) == (16, 16)
