import math

import numpy as np
import pytest

from crittuner import apjn, blocks, tuner
from crittuner.apjn import exact_apjn
from crittuner.blocks import (
    AuxScalars,
    NetworkSpec,
    activation,
    dense,
    init_params,
    run_network,
    vjp_segment,
)
from crittuner.config import DataConfig
from crittuner.data import make_batch
from crittuner.presets import conv_bn_relu_stack, linear_mlp, relu_mlp, resmlp_toy
from crittuner.tensor import RngStream
from crittuner.tuner import (
    DivergenceError,
    TuneConfig,
    eta_bound,
    eta_one_step,
    eta_zero,
    grad_aux,
    tune,
)

SQRT2 = math.sqrt(2.0)


def _setup(spec, seed, batch):
    rng = RngStream(seed)
    x = rng.child(1).normal((batch, *spec.input_shape))
    params = init_params(spec, rng.child(2))
    return x, params, rng


# -- closed-form rates ---------------------------------------------------------

def test_eta_bound_values():
    assert eta_bound([2.0], 2.0, loss="jll") == pytest.approx(0.4226, abs=2e-4)
    assert eta_bound([2.0], 2.0, loss="jsl") == pytest.approx(0.1464, abs=2e-4)
    assert eta_bound([1.0], 2.0, loss="jll") == pytest.approx(0.25, rel=1e-9)
    with pytest.raises(ValueError):
        eta_bound([0.0], 1.0)


def test_eta_bound_is_min_over_layers():
    b2 = eta_bound([2.0], 1.5, loss="jll")
    b4 = eta_bound([4.0], 1.5, loss="jll")
    assert eta_bound([2.0, 4.0], 1.5, loss="jll") == pytest.approx(min(b2, b4))


def test_eta_one_step_values():
    assert eta_one_step(2.0, 2.0, "jll") == pytest.approx(0.2113, abs=1e-4)
    assert eta_one_step(2.0, 2.0, "jsl") == pytest.approx(0.0732, abs=1e-4)
    assert eta_one_step(1.0, 2.0, "jll") == pytest.approx(1.0 / 8.0)


def test_eta_zero_values_and_consistency():
    assert eta_zero(1.0, 2.0, "jll") == pytest.approx(0.4226, abs=1e-4)
    assert eta_zero(1.0, 2.0, "jsl") == pytest.approx(4.0 / (8.0 * (SQRT2 + 2.0)), rel=1e-12)
    # matches the stability bound evaluated at J(0) = (a sigma_w)^2 / 2
    assert eta_zero(1.0, 2.0, "jll") == pytest.approx(eta_bound([2.0], 2.0, loss="jll"))
    with pytest.raises(ValueError):
        eta_zero(1.0, SQRT2, "jll")


def test_eta_zero_scaling_regimes():
    r = eta_zero(1.0, 8.0, "jsl") / eta_zero(1.0, 4.0, "jsl")
    assert abs(r / 2.0 ** -4 - 1.0) < 0.2
    r = eta_zero(1.0, 8.0, "jll") / eta_zero(1.0, 64.0, "jll")
    assert abs(r / (math.log(64.0) / math.log(8.0)) - 1.0) < 0.2


# -- gradients -----------------------------------------------------------------

def test_exact_gradient_matches_relu_closed_form():
    spec = relu_mlp(4, 80, 2.0)
    x, params, rng = _setup(spec, 3, 8)
    aux = AuxScalars.ones(spec, groups={"W"})
    cfg_ex = TuneConfig(loss="jll", eta=0.1, n_v=4)
    cfg_an = TuneConfig(loss="jll", eta=0.1, n_v=4, grad_mode="analytic-relu")
    assert cfg_ex.grad_mode == "exact"
    g_ex = grad_aux(spec, params, aux, x, cfg_ex, rng.child(7))
    g_an = grad_aux(spec, params, aux, x, cfg_an, rng.child(7))
    assert set(g_ex) == set(g_an)
    for key, ga in g_an.items():
        assert g_ex[key] == pytest.approx(ga, rel=1e-9), key


def test_bias_scalars_receive_no_analytic_update():
    spec = relu_mlp(3, 40, 2.0, 0.5)
    x, params, rng = _setup(spec, 4, 6)
    aux = AuxScalars.ones(spec)
    cfg = TuneConfig(loss="jll", eta=0.1, n_v=2, grad_mode="analytic-relu")
    grads = grad_aux(spec, params, aux, x, cfg, rng.child(5))
    assert all(v == 0.0 for (i, g), v in grads.items() if g == "b")


def test_gradient_near_zero_at_criticality():
    # at criticality the gradient is set by finite-width norm scatter only;
    # well off criticality it is an order of magnitude larger
    x = None
    spec = relu_mlp(4, 300, SQRT2)
    x, params, rng = _setup(spec, 5, 8)
    aux = AuxScalars.ones(spec, groups={"W"})
    cfg = TuneConfig(loss="jll", eta=0.1, n_v=0)
    grads = grad_aux(spec, params, aux, x, cfg, rng.child(6))
    at_crit = max(abs(v) for v in grads.values())
    spec2 = relu_mlp(4, 300, 2.0)
    params2 = init_params(spec2, RngStream(5).child(2))
    grads2 = grad_aux(spec2, params2, aux, x, cfg, rng.child(6))
    off_crit = max(abs(v) for v in grads2.values())
    assert at_crit < 0.35
    assert off_crit > 1.0


def test_jsl_analytic_gradient():
    spec = relu_mlp(2, 60, 2.0)
    x, params, rng = _setup(spec, 6, 4)
    aux = AuxScalars.ones(spec, groups={"W"})
    cfg = TuneConfig(loss="jsl", eta=0.1, n_v=0, grad_mode="analytic-relu")
    grads = grad_aux(spec, params, aux, x, cfg, rng.child(2))
    j0 = exact_apjn(run_network(spec, params, aux, x), 0, 1)
    assert grads[(0, "W")] == pytest.approx(2.0 * j0 * (j0 - 1.0), rel=1e-10)


# -- the loop ------------------------------------------------------------------

def test_config_rejects_unknown_probe_mode_and_aux_groups():
    # the probe side follows each segment; there is no probe_mode to set
    with pytest.raises(TypeError, match="probe_mode"):
        TuneConfig(eta=0.1, probe_mode="input")
    with pytest.raises(ValueError, match="'default', 'all', 'none'"):
        TuneConfig(eta=0.1, aux_groups="alpha")
    assert TuneConfig(eta=0.1, aux_groups={"W"}).aux_groups == {"W"}
    with pytest.raises(ValueError, match="lam"):
        TuneConfig(loss="jkl", lam=-1.0, eta=0.1)
    for safety in (0.0, -0.5):
        with pytest.raises(ValueError, match="bound_safety"):
            TuneConfig(eta=0.1, bound_safety=safety)
    with pytest.raises(ValueError, match="grad mode"):
        TuneConfig(eta=0.1, grad_mode="finite-difference")


@pytest.mark.parametrize("field", ["eta", "lam", "bound_safety", "eps"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_settings(field, value):
    # comparisons with NaN are False, so "<= 0" checks alone let NaN through;
    # eps may be inf (stop at once), but not NaN
    if field == "eps" and value == math.inf:
        assert TuneConfig(eta=0.1, eps=value).eps == math.inf
        return
    with pytest.raises(ValueError, match=f"^{field} must be"):
        TuneConfig(**{"eta": 0.1, field: value})
    if field == "eta":  # checked under every schedule
        with pytest.raises(ValueError, match="^eta must be finite"):
            TuneConfig(eta=value, schedule="relu-bound")


@pytest.mark.parametrize("n_v", [0, 1, 3])
@pytest.mark.parametrize("grad_mode", ["exact", "analytic-relu"])
def test_trace_keeps_each_steps_stderr(n_v, grad_mode):
    # every step keeps the per-pair stderr of the measurement its norms came
    # from: 0.0 for exact norms, NaN for one probe
    spec = relu_mlp(3, 20, 1.7)
    x, params, rng = _setup(spec, 8, 4)
    cfg = TuneConfig(loss="jll", eta=0.05, t_max=2, n_v=n_v, grad_mode=grad_mode)
    res = tune(spec, params, x, cfg, rng.child(3))
    assert len(res.trace.steps) == 3
    for step in res.trace.steps:
        assert step.stderr.shape == step.js.shape
        if n_v == 0:
            assert np.all(step.stderr == 0.0)
        elif n_v == 1:
            assert np.all(np.isnan(step.stderr))
        else:
            assert np.all(step.stderr > 0)
    aux = AuxScalars.ones(spec, cfg.aux_groups)
    js, errs, _, _ = tuner._measure(spec, params, aux, x, cfg, rng.child(3).child(0), False)
    first = res.trace.steps[0]
    assert first.js.tobytes() == js.tobytes() and first.stderr.tobytes() == errs.tobytes()


def test_fresh_batch_gradient_uses_the_step_batch():
    spec = relu_mlp(2, 20, 2.0)
    x, params, rng = _setup(spec, 15, 6)
    provider = lambda t: RngStream(99).child(t).normal(x.shape)
    base = dict(loss="jll", eta=0.1, t_max=1, n_v=2)
    fresh = tune(spec, params, x, TuneConfig(**base, fresh_batch=True), rng.child(3),
                 batch_provider=provider)
    fixed = tune(spec, params, provider(0), TuneConfig(**base), rng.child(3))
    assert np.array_equal(fresh.trace.steps[1].aux, fixed.trace.steps[1].aux)


def test_one_step_schedule_reaches_band():
    spec = relu_mlp(6, 300, 2.0)
    x, params, rng = _setup(spec, 7, 16)
    cfg = TuneConfig(loss="jll", schedule="one-step", t_max=1, n_v=0,
                     grad_mode="analytic-relu")
    res = tune(spec, params, x, cfg, rng.child(3))
    assert np.all(np.abs(res.trace.steps[-1].js - 1.0) < 0.05)


def test_critical_net_exits_immediately():
    spec = relu_mlp(3, 100, SQRT2)
    x, params, rng = _setup(spec, 8, 8)
    # epsilon above the resting loss of a near-critical instance
    cfg = TuneConfig(loss="jll", eta=0.1, t_max=50, eps=0.05, n_v=0)
    res = tune(spec, params, x, cfg, rng.child(3))
    assert res.steps_used == 0
    assert res.converged
    assert np.all(res.trace.steps[0].aux == 1.0)


def test_divergence_raises_with_trace():
    # a huge rate slams every scalar to the clamp ceiling; the forward pass
    # then overflows at depth and the log loss leaves its domain
    spec = relu_mlp(70, 8, 0.3)
    x, params, rng = _setup(spec, 9, 4)
    cfg = TuneConfig(loss="jll", eta=1e6, t_max=5, n_v=0, grad_mode="analytic-relu")
    with pytest.raises(DivergenceError) as exc_info:
        np.seterr(all="ignore")
        try:
            tune(spec, params, x, cfg, rng.child(3))
        finally:
            np.seterr(all="warn")
    assert len(exc_info.value.trace.steps) >= 1
    assert np.isfinite(exc_info.value.trace.steps[0].loss)


def _record_sweeps(monkeypatch):
    """Log each forward pass the tuner starts, as ("run",), and each segment
    sweep, as ("sweep", b0, b1, taped, rows, start)."""
    log = []

    def run(*args, **kwargs):
        log.append(("run",))
        return blocks.run_network(*args, **kwargs)

    def sweeper(fn):
        def sweep(state, b0, b1, stack, tape=None, **kwargs):
            log.append(("sweep", b0, b1, tape is not None, stack.shape[0],
                        kwargs.get("start", 0)))
            return fn(state, b0, b1, stack, tape, **kwargs)
        return sweep

    monkeypatch.setattr(tuner, "run_network", run)
    monkeypatch.setattr(apjn, "jvp_segment", sweeper(blocks.jvp_segment))
    monkeypatch.setattr(apjn, "vjp_segment", sweeper(blocks.vjp_segment))
    return log


def _sweeps_per_step(log):
    """Per forward pass, its sweeps as (b0, b1, taped, rows)."""
    steps = []
    for event in log:
        if event[0] == "run":
            steps.append([])
        else:
            steps[-1].append(event[1:5])
    return steps


@pytest.mark.parametrize("name", ["conv-bn", "resmlp", "relu-analytic"])
def test_exact_tune_sweeps_each_probe_once(name, monkeypatch):
    # a step that takes an exact gradient tapes and reverses the sweeps of
    # its own measurement; the last step, and every closed-form step, only
    # measures
    grad_mode = "exact"
    if name == "conv-bn":
        spec, loss = conv_bn_relu_stack((3, 4, 4), 1.5, image=(2, 5, 5)), "jkl"
    elif name == "resmlp":
        spec, loss = resmlp_toy(1, 6, 1.2, mu=0.9, eps_ls=0.5, image=(2, 6, 6), patch=3,
                                hidden_mult=2), "jll"
    else:
        spec, loss, grad_mode = relu_mlp(3, 8, 1.7), "jll", "analytic-relu"
    x, params, rng = _setup(spec, 16, 4)
    cfg = TuneConfig(loss=loss, lam=0.05 if loss == "jkl" else 0.0, eta=0.01, t_max=2,
                     n_v=2, grad_mode=grad_mode, aux_groups="all")
    log = _record_sweeps(monkeypatch)
    res = tune(spec, params, x, cfg, rng.child(3))
    assert res.steps_used == 2
    steps = _sweeps_per_step(log)
    n_pairs = spec.n_boundaries - 1
    assert len(steps) == 3
    for t, sweeps in enumerate(steps):
        # per pair, one sweep of all n_v probe rows, or n_v one-row sweeps
        # where batch norm couples the pair
        want = [(l, rows) for l in range(n_pairs)
                for rows in ([1] * cfg.n_v if spec.segment_has_batchnorm(l, l + 1) else [cfg.n_v])]
        assert sorted((b0, rows) for b0, _, _, rows in sweeps) == want, (t, sweeps)
        gradient_step = grad_mode == "exact" and t < cfg.t_max
        assert all(taped == gradient_step for _, _, taped, _ in sweeps), (t, sweeps)


def _overflowing_stack():
    # sigma_w = 1e6 overflows the float64 range about halfway up the stack
    spec = NetworkSpec(sum(((dense(20, 1e6), activation("relu", boundary=True))
                            for _ in range(60)), ()), (20,))
    rng = RngStream(3)
    x = make_batch(DataConfig(batch=4), spec.input_shape, rng.child(1))
    return spec, x, init_params(spec, rng.child(2)), rng


@pytest.mark.parametrize("n_v", [0, 2])
def test_exact_tune_on_non_finite_boundaries_stops_at_step_zero(n_v, monkeypatch):
    spec, x, params, rng = _overflowing_stack()
    cfg = TuneConfig(loss="jll", eta=0.1, t_max=3, n_v=n_v)
    log = _record_sweeps(monkeypatch)
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError, match="^initial loss non-finite$") as exc_info:
            tune(spec, params, x, cfg, rng.child(3))
    steps = exc_info.value.trace.steps
    assert len(steps) == 1
    assert np.all(np.isfinite(steps[0].js[:52]))
    assert np.all(np.isnan(steps[0].js[52:]))
    # the non-finite pairs are never swept; at n_v = 0 each finite one (one
    # dense block and a ReLU) is swept once, one row entering after the dense
    sweeps = [event for event in log if event[0] == "sweep"]
    assert {event[1] for event in sweeps} == set(range(52)), sweeps
    if n_v == 0:
        assert len(sweeps) == 52 and all(event[4:] == (1, 1) for event in sweeps), sweeps


@pytest.mark.parametrize("n_v", [0, 2])
def test_exact_gradient_of_non_finite_boundaries_diverges(n_v):
    spec, x, params, rng = _overflowing_stack()
    cfg = TuneConfig(loss="jll", eta=0.1, n_v=n_v)
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError, match="^loss non-finite$"):
            grad_aux(spec, params, AuxScalars.ones(spec), x, cfg, rng.child(3))


@pytest.mark.parametrize("n_v", [0, 2])
def test_exact_divergence_raises_with_trace(n_v):
    # the exact-gradient twin of test_divergence_raises_with_trace: a huge
    # rate slams the scalars to the clamp ceiling, the forward pass then
    # overflows at depth and the log loss leaves its domain at a later step
    spec = relu_mlp(70, 8, 0.3)
    x, params, rng = _setup(spec, 9, 4)
    cfg = TuneConfig(loss="jll", eta=1e6, t_max=5, n_v=n_v)
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError) as exc_info:
            tune(spec, params, x, cfg, rng.child(3))
    steps = exc_info.value.trace.steps
    assert len(steps) >= 2
    assert str(exc_info.value) == f"loss diverged at step {steps[-1].t}"
    assert np.isfinite(steps[0].loss)
    assert steps[-1].loss == float("inf")
    assert not np.all(np.isfinite(steps[-1].js) & (steps[-1].js > 0))


def test_monotone_contraction_under_bound():
    spec = relu_mlp(5, 200, 2.4)
    x, params, rng = _setup(spec, 10, 8)
    cfg = TuneConfig(loss="jll", schedule="relu-bound", bound_safety=0.8, t_max=25,
                     n_v=0, grad_mode="analytic-relu")
    res = tune(spec, params, x, cfg, rng.child(3))
    dev = np.abs(np.sqrt(res.trace.js_matrix) - 1.0)
    assert np.all(dev[1:] <= dev[:-1] + 1e-9)


def test_return_mode_equivalence():
    # the returned network, scalars folded in, equals the twin network run
    # with the scalars of the trace's last step
    spec = relu_mlp(3, 60, 2.0, 0.3)
    x, params, rng = _setup(spec, 11, 8)
    res = tune(spec, params, x, TuneConfig(loss="jll", eta=0.15, t_max=10, n_v=2),
               rng.child(3))
    assert all(v == 1.0 for v in res.aux.values.values())
    last = AuxScalars(dict(zip(res.trace.aux_keys, res.trace.steps[-1].aux)))
    a = run_network(res.spec, res.params, res.aux, x)
    b = run_network(spec, params, last, x)
    for ba, bb in zip(a.boundaries, b.boundaries):
        assert np.allclose(ba, bb, rtol=1e-12)
    # and the folded spec's sigmas reflect the tuned scalars
    assert res.spec.blocks[0].sigma_w == pytest.approx(2.0 * last.get(0, "W"), rel=1e-12)


def test_layer_independence_relu():
    spec = relu_mlp(4, 200, 2.0)
    x, params, rng = _setup(spec, 12, 8)
    aux = AuxScalars.ones(spec)
    state = run_network(spec, params, aux, x)
    before = [exact_apjn(state, l, l + 1) for l in range(4)]
    aux.values[(2, "W")] = 0.5   # rescale only the second pair's weights
    state2 = run_network(spec, params, aux, x)
    after = [exact_apjn(state2, l, l + 1) for l in range(4)]
    assert after[1] == pytest.approx(0.25 * before[1], rel=1e-12)
    for l in (0, 2, 3):
        assert after[l] == pytest.approx(before[l], rel=1e-12)


def test_trace_csv_layout():
    spec = relu_mlp(2, 30, 2.0)
    x, params, rng = _setup(spec, 13, 4)
    cfg = TuneConfig(loss="jll", eta=0.1, t_max=3, n_v=2)
    res = tune(spec, params, x, cfg, rng.child(3))
    rows = res.trace.csv_rows()
    header = rows[0].split(",")
    assert header[:2] == ["t", "loss"]
    assert header[-1] == "eta"
    assert len(rows) == 1 + len(res.trace.steps)
    assert all(len(r.split(",")) == len(header) for r in rows[1:])


def test_gradient_flow_ratio_improves_after_tuning():
    # bias gradients under a quadratic probe loss carry the bare backward
    # product of block norms (no forward-magnitude factor), so off
    # criticality the first/last ratio explodes and tuning repairs it
    depth = 12
    spec = relu_mlp(depth, 60, 3.0)
    x, params, rng = _setup(spec, 14, 8)

    def ratio(spec_, params_, aux_):
        state = run_network(spec_, params_, aux_, x)
        top = spec_.n_boundaries - 1
        out = state.boundary(top)

        def bias_grad(k):
            # gradient of 0.5 * sum(out^2) w.r.t. the bias of dense block 2k
            # (all scalars 1): the cotangent at boundary k+1 through the ReLU
            c = out if k + 1 == top else vjp_segment(state, k + 1, top, out[None])[0]
            return ((state.boundary(k + 1) > 0) * c).sum(axis=0)

        return (float(np.linalg.norm(bias_grad(0)))
                / float(np.linalg.norm(bias_grad(depth - 1))))

    before = ratio(spec, params, AuxScalars.ones(spec))
    cfg = TuneConfig(loss="jll", eta=0.05, t_max=60, n_v=0, grad_mode="analytic-relu")
    res = tune(spec, params, x, cfg, rng.child(3))
    after = ratio(res.spec, res.params, res.aux)
    assert not (0.1 <= before <= 10.0)
    assert 0.1 <= after <= 10.0
