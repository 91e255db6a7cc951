"""SGD on the twin network's auxiliary scalars.

Each step measures the per-pair Jacobian norms (and kernels, for the
kernel-augmented loss) on a fixed parameter draw, forms the loss, steps the
scalars down its gradient, and logs everything. Gradients are either exact
or, for ReLU stacks, the closed form ``2 log(J) / a`` per layer. The exact
gradient is that of the measured estimator itself: same forward pass, same
probe vectors, same losses and kernels, differentiated through one taped
sweep per probe and one pullback through the network
(:func:`crittuner.apjn.scalar_gradient`).

Also here: the closed-form learning rates for ReLU stacks - the per-layer
rate that reaches criticality in one step, the time-t stability bound, and
the t=0 maximum-rate estimate - for both the log and square losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .apjn import estimate_segment, exact_apjn, scalar_gradient
from .blocks import (
    OPS,
    AuxScalars,
    ForwardState,
    NetworkSpec,
    ParamSet,
    resolve_aux_groups,
    run_network,
    scale_params,
    scale_spec_sigmas,
)
from .losses import LossValue, jkl, jll, jsl, kernel_profile
from .tensor import Array, RngStream

AUX_CLAMP = (1e-6, 1e6)


class DivergenceError(RuntimeError):
    """Loss became non-finite; carries the trace up to the failure."""

    def __init__(self, message: str, trace: "TuneTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass
class TuneConfig:
    loss: str = "jll"                  # jll | jsl | jkl
    lam: float = 0.0                   # kernel weight for jkl
    eta: float | None = None           # required for the constant schedule
    schedule: str = "constant"         # constant | relu-bound | one-step
    bound_safety: float = 0.9          # fraction of the stability bound used
    t_max: int = 100
    eps: float = 0.0                   # stop once loss <= eps
    n_v: int = 2                       # probes per pair; 0 -> exact norms
    probe_mode: str = "auto"
    grad_mode: str = "exact"           # exact | analytic-relu
    return_mode: str = "scale-sigmas"  # scale-sigmas | freeze-aux
    aux_groups: object = "default"     # see AuxScalars.ones
    span: str = "include-io"           # include-io | interior-only
    fresh_batch: bool = False
    aux_clamp: tuple = AUX_CLAMP

    def __post_init__(self):
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.loss not in ("jll", "jsl", "jkl"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.schedule not in ("constant", "relu-bound", "one-step"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.schedule == "constant":
            if self.eta is None or self.eta <= 0:
                raise ValueError("constant schedule needs eta > 0")
        if self.grad_mode not in ("exact", "analytic-relu"):
            raise ValueError(f"unknown grad mode {self.grad_mode!r}")
        if self.return_mode not in ("scale-sigmas", "freeze-aux"):
            raise ValueError(f"unknown return mode {self.return_mode!r}")
        if self.span not in ("include-io", "interior-only"):
            raise ValueError(f"unknown span {self.span!r}")
        if self.n_v < 0:
            raise ValueError("n_v must be >= 0")
        if self.probe_mode not in ("auto", "output", "input"):
            raise ValueError(f"unknown probe mode {self.probe_mode!r}")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.bound_safety <= 0:
            raise ValueError("bound_safety must be > 0")
        lo, hi = self.aux_clamp
        if not 0 < lo < hi:
            raise ValueError(f"aux_clamp needs 0 < lo < hi, got {self.aux_clamp}")
        resolve_aux_groups(self.aux_groups)


@dataclass
class TuneStep:
    t: int
    loss: float
    js: np.ndarray
    aux: np.ndarray
    eta: float


@dataclass
class TuneTrace:
    pair_lo: int
    aux_keys: list
    steps: list = field(default_factory=list)

    def append(self, step: TuneStep):
        if self.steps and step.t <= self.steps[-1].t:
            raise ValueError("steps must be strictly increasing in t")
        self.steps.append(step)

    @property
    def losses(self) -> np.ndarray:
        return np.array([s.loss for s in self.steps])

    @property
    def js_matrix(self) -> np.ndarray:
        return np.array([s.js for s in self.steps])

    def csv_rows(self) -> list[str]:
        n_pairs = len(self.steps[0].js) if self.steps else 0
        jcols = [f"J_{self.pair_lo + i}" for i in range(n_pairs)]
        acols = [f"a_{i}_{g}" for (i, g) in self.aux_keys]
        rows = [",".join(["t", "loss"] + jcols + acols + ["eta"])]
        for s in self.steps:
            cells = [str(s.t), f"{s.loss:.12g}"]
            cells += [f"{v:.12g}" for v in s.js]
            cells += [f"{v:.12g}" for v in s.aux]
            cells.append(f"{s.eta:.12g}")
            rows.append(",".join(cells))
        return rows


@dataclass
class TuneResult:
    spec: NetworkSpec
    params: ParamSet
    aux: AuxScalars
    trace: TuneTrace
    converged: bool
    steps_used: int


# --------------------------------------------------------------------------
# measurement plumbing
# --------------------------------------------------------------------------

def _pair_list(spec: NetworkSpec, span: str) -> list[int]:
    lo = 0 if span == "include-io" else 1
    top = spec.n_boundaries - 1
    if lo >= top:
        raise ValueError("network has no tunable pairs in the chosen span")
    return list(range(lo, top))


def _measure(spec, params, aux, batch, cfg: TuneConfig, pairs, rng: RngStream):
    """Forward state, per-pair norms and kernels. Pair l draws its probes
    from ``rng.child(l)``, so the exact gradient can draw the very probes
    this measurement used from the same ``rng``."""
    state = run_network(spec, params, aux, batch)
    js = np.empty(len(pairs))
    for n, l in enumerate(pairs):
        if cfg.n_v == 0:
            js[n] = exact_apjn(spec, params, aux, batch, l, l + 1, state=state)
        else:
            js[n], _, _ = estimate_segment(state, l, l + 1, cfg.n_v, rng.child(l),
                                           probe_mode=cfg.probe_mode)
    ks = kernel_profile(state.activations)[pairs[0]:pairs[-1] + 2]
    return state, js, ks


def _loss(cfg: TuneConfig, js: np.ndarray, ks: np.ndarray) -> LossValue | None:
    """The loss, or None when the measurement left its domain (overflowed
    activations yield zero or non-finite norms; log losses cannot price
    those, which the loop reports as divergence)."""
    if not np.all(np.isfinite(js)):
        return None
    try:
        if cfg.loss == "jll":
            return jll(js)
        if cfg.loss == "jsl":
            return jsl(js)
        if not np.all(np.isfinite(ks)):
            return None
        return jkl(js, ks, cfg.lam)
    except ValueError:
        return None


def _loss_of(cfg: TuneConfig, js: np.ndarray, ks: np.ndarray) -> float:
    value = _loss(cfg, js, ks)
    return float("inf") if value is None else value.total


def _pair_weight_blocks(spec: NetworkSpec, pairs) -> dict[int, int]:
    """pair -> index of its single weight-bearing block (analytic mode)."""
    owner: dict[int, int] = {}
    for l in pairs:
        weighted = [i for i in spec.segment(l, l + 1)
                    if "W" in OPS[spec.blocks[i].kind].groups]
        if len(weighted) == 1:
            owner[l] = weighted[0]
    return owner


def grad_aux(spec: NetworkSpec, params: ParamSet, aux: AuxScalars, batch: Array,
             cfg: TuneConfig, rng: RngStream, *, js: np.ndarray | None = None,
             trace: TuneTrace | None = None, state: ForwardState | None = None) -> dict:
    """Gradient of the configured loss w.r.t. every tunable scalar.

    ``rng`` is the stream the norms are measured with; ``js`` and ``state``
    may pass in that measurement's norms and forward state, which must
    belong to ``aux`` and ``batch``. Exact mode differentiates the loss of
    that measurement: the same probes, kernels and loss. Analytic mode uses
    the ReLU closed form: the weight scalar of the block generating pair l
    gets ``2 log(J_l) / a`` (times ``1 + lam`` for the kernel-augmented
    loss at sigma_b = 0) and bias scalars get zero.
    """
    pairs = _pair_list(spec, cfg.span)
    if js is None:
        state, js, _ = _measure(spec, params, aux, batch, cfg, pairs, rng)
    if cfg.grad_mode == "analytic-relu":
        if not np.all(np.isfinite(js) & (js > 0)):
            raise DivergenceError("measured norms left the positive domain",
                                  trace or TuneTrace(pairs[0], aux.keys()))
        return _grad_analytic(spec, aux, cfg, pairs, js)
    if state is None:
        state = run_network(spec, params, aux, batch)
    ks = kernel_profile(state.activations)[pairs[0]:pairs[-1] + 2]
    loss = _loss(cfg, js, ks)
    if loss is None:
        raise DivergenceError("loss non-finite", trace or TuneTrace(pairs[0], aux.keys()))
    terms = {l: (float(loss.dj[n]), rng.child(l) if cfg.n_v else None)
             for n, l in enumerate(pairs)}
    kernels = {} if loss.dk is None else {pairs[0] + n: float(v) for n, v in enumerate(loss.dk)}
    grads = scalar_gradient(state, terms, kernels, cfg.n_v, probe_mode=cfg.probe_mode)
    for key, value in grads.items():
        if not math.isfinite(value):
            raise DivergenceError(f"gradient non-finite at {key}",
                                  trace or TuneTrace(pairs[0], aux.keys()))
    return grads


def _grad_analytic(spec: NetworkSpec, aux: AuxScalars, cfg: TuneConfig, pairs, js):
    if cfg.loss == "jkl":
        sigmas_b = [b.sigma_b for b in spec.blocks if "W" in OPS[b.kind].groups]
        if any(s != 0 for s in sigmas_b):
            raise ValueError("analytic gradients for the kernel loss need sigma_b = 0")
    owners = _pair_weight_blocks(spec, pairs)
    block_of = {blk: l for l, blk in owners.items()}
    jmap = {l: js[n] for n, l in enumerate(pairs)}
    grads = {}
    for (i, g) in aux.keys():
        if g != "W" or i not in block_of:
            grads[(i, g)] = 0.0
            continue
        jl = jmap[block_of[i]]
        a = aux.get(i, "W")
        if cfg.loss == "jsl":
            grads[(i, g)] = (2.0 * jl / a) * (jl - 1.0)
        else:
            scale = 1.0 + cfg.lam if cfg.loss == "jkl" else 1.0
            grads[(i, g)] = scale * 2.0 * math.log(jl) / a
    return grads


# --------------------------------------------------------------------------
# the tuning loop
# --------------------------------------------------------------------------

def tune(spec: NetworkSpec, params: ParamSet, batch: Array, cfg: TuneConfig,
         rng: RngStream, *, batch_provider: Callable | None = None) -> TuneResult:
    """Run the scalar-tuning loop until the loss drops below ``eps`` or
    ``t_max`` steps elapse.

    The parameter draw is fixed throughout; the batch too, unless
    ``fresh_batch`` and a ``batch_provider(t)`` are given: then step t
    measures and takes its gradient on ``batch_provider(t)``, called once
    per step. On exit the scalars are folded into the returned model:
    either into the sigmas and parameters ("scale-sigmas") or kept as
    frozen multipliers ("freeze-aux"). A non-finite loss raises
    :class:`DivergenceError` carrying the partial trace.
    """
    pairs = _pair_list(spec, cfg.span)
    aux = AuxScalars.ones(spec, cfg.aux_groups)
    keys = aux.keys()
    if not keys:
        raise ValueError("no tunable scalars for the chosen aux groups")
    trace = TuneTrace(pairs[0], keys)
    owners = _pair_weight_blocks(spec, pairs)
    sigma_of_pair = {l: spec.blocks[i].sigma_w for l, i in owners.items()}

    def measure(t: int, aux_now: AuxScalars):
        # step t's batch, stream and forward state, reused by its gradient
        step_batch = batch_provider(t) if cfg.fresh_batch and batch_provider is not None else batch
        step_rng = rng.child(t)
        state, js, ks = _measure(spec, params, aux_now, step_batch, cfg, pairs, step_rng)
        return step_batch, step_rng, state, js, ks

    def need_pair_sigmas():
        missing = [l for l in pairs if l not in sigma_of_pair]
        if missing:
            raise ValueError(f"schedule needs one weight block per pair; pairs {missing} differ")

    t = 0
    step_batch, step_rng, state, js, ks = measure(t, aux)
    loss = _loss_of(cfg, js, ks)
    trace.append(TuneStep(t, loss, js.copy(), aux.as_vector(), 0.0))
    if not math.isfinite(loss):
        raise DivergenceError("initial loss non-finite", trace)

    while t < cfg.t_max and loss > cfg.eps:
        grads = grad_aux(spec, params, aux, step_batch, cfg, step_rng,
                         js=js, trace=trace, state=state)
        if cfg.schedule == "constant":
            eta_used = cfg.eta
            rates = {key: cfg.eta for key in keys}
        elif cfg.schedule == "relu-bound":
            need_pair_sigmas()
            bounds = [eta_bound([js[n]], sigma_of_pair[l], loss=cfg.loss if cfg.loss != "jkl" else "jll")
                      for n, l in enumerate(pairs)]
            eta_used = cfg.bound_safety * min(bounds)
            rates = {key: eta_used for key in keys}
        else:  # one-step, per layer
            need_pair_sigmas()
            rates = {}
            per_pair = {}
            for n, l in enumerate(pairs):
                per_pair[l] = eta_one_step(js[n], sigma_of_pair[l],
                                           loss=cfg.loss if cfg.loss != "jkl" else "jll")
            block_of = {blk: l for l, blk in owners.items()}
            for key in keys:
                i, _ = key
                rates[key] = per_pair.get(block_of.get(i, -1), 0.0)
            eta_used = min(per_pair.values())
        new_vals = {key: aux.get(*key) - rates[key] * grads.get(key, 0.0) for key in keys}
        aux = AuxScalars(new_vals).clamped(*cfg.aux_clamp)
        t += 1
        state = None  # hold one forward state at a time
        step_batch, step_rng, state, js, ks = measure(t, aux)
        loss = _loss_of(cfg, js, ks)
        if not math.isfinite(loss):
            trace.append(TuneStep(t, float("inf"), js.copy(), aux.as_vector(), eta_used))
            raise DivergenceError(f"loss diverged at step {t}", trace)
        trace.append(TuneStep(t, loss, js.copy(), aux.as_vector(), eta_used))

    state = None  # nor keep it while folding the scalars in
    converged = loss <= cfg.eps
    if cfg.return_mode == "scale-sigmas":
        out_spec = scale_spec_sigmas(spec, aux)
        out_params = scale_params(spec, params, aux)
        out_aux = AuxScalars({k: 1.0 for k in aux.values})
        return TuneResult(out_spec, out_params, out_aux, trace, converged, t)
    return TuneResult(spec, params, aux, trace, converged, t)


# --------------------------------------------------------------------------
# closed-form learning rates (ReLU stacks)
# --------------------------------------------------------------------------

_J_ONE_TOL = 1e-12


def eta_bound(j, sigma_w: float, loss: str = "jll") -> float:
    """Largest stable rate at the current norms: below this bound,
    |sqrt(J) - 1| shrinks monotonically for every layer.

    The bound depends on the scalars only through the measured norms. At
    J = 1 the log form takes its limit value 1 / sigma_w^2.
    """
    arr = np.atleast_1d(np.asarray(j, dtype=np.float64))
    if np.any(arr <= 0):
        raise ValueError("norms must be positive")
    if loss == "jll":
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = 2.0 * (np.sqrt(arr) - 1.0) * np.sqrt(arr) / (sigma_w ** 2 * np.log(arr))
        vals = np.where(np.abs(np.log(arr)) < _J_ONE_TOL, 1.0 / sigma_w ** 2, raw)
    elif loss == "jsl":
        vals = 2.0 / (sigma_w ** 2 * np.sqrt(arr) * (1.0 + np.sqrt(arr)))
    else:
        raise ValueError(f"no bound for loss {loss!r}")
    return float(vals.min())


def eta_one_step(j0: float, sigma_w: float, loss: str = "jll") -> float:
    """Per-layer rate that solves the one-step recursion to J(1) = 1."""
    if j0 <= 0:
        raise ValueError("norm must be positive")
    if loss == "jll":
        if abs(math.log(j0)) < _J_ONE_TOL:
            return 1.0 / (2.0 * sigma_w ** 2)
        return (math.sqrt(j0) - 1.0) * math.sqrt(j0) / (sigma_w ** 2 * math.log(j0))
    if loss == "jsl":
        return 1.0 / (sigma_w ** 2 * math.sqrt(j0) * (1.0 + math.sqrt(j0)))
    raise ValueError(f"no one-step rate for loss {loss!r}")


def eta_zero(a_w: float, sigma_w: float, loss: str = "jll") -> float:
    """Maximum-rate estimate at t = 0, using J(0) = (a_w sigma_w)^2 / 2."""
    if a_w <= 0 or sigma_w <= 0:
        raise ValueError("a_w and sigma_w must be positive")
    if loss == "jll":
        logs = math.log((a_w * sigma_w) ** 2) - math.log(2.0)
        if abs(logs) < 1e-12:
            raise ValueError("singular at a_w * sigma_w = sqrt(2)")
        return (a_w * sigma_w - math.sqrt(2.0)) * a_w / (sigma_w * logs)
    if loss == "jsl":
        return 4.0 / (sigma_w ** 3 * a_w * (math.sqrt(2.0) + a_w * sigma_w))
    raise ValueError(f"no t=0 rate for loss {loss!r}")
