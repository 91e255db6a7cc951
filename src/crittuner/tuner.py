"""SGD on the twin network's auxiliary scalars.

Each step measures the Jacobian norm of every (l, l+1) pair, with its
standard error (and the kernels, for the kernel-augmented loss), on a fixed
parameter draw, forms the loss, steps the scalars down its gradient, and
logs everything. The tuned scalars are folded into the returned network's
sigmas and parameters. Every step measures through one function,
:func:`crittuner.apjn.measure_pairs`, which takes the gradient only when
asked. Gradients are either exact or, for ReLU stacks, the closed form
``2 log(J) / a`` per layer. The exact gradient is that of the measured
estimator itself, taken in the same pass: each sweep of the measurement
(one stack of a pair's probe rows, or, where batch norm couples the pair,
one probe tangent) is taped and reversed at once, and one pullback through
the network follows. The last step, and every step of the closed form, only
measures.

Also here: the closed-form learning rates for ReLU stacks - the per-layer
rate that reaches criticality in one step, the time-t stability bound, and
the t=0 maximum-rate estimate - for both the log and square losses.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

# estimate_segment and exact_apjn are unused here, but benchmarks trace them as tuner names
from .apjn import estimate_segment, exact_apjn, measure_pairs  # noqa: F401
from .blocks import (
    OPS,
    AuxScalars,
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
    grad_mode: str = "exact"           # exact | analytic-relu
    aux_groups: object = "default"     # see AuxScalars.ones
    fresh_batch: bool = False

    def __post_init__(self):
        for name in ("eta", "lam", "bound_safety"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("t_max", "n_v"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if not self.eps >= 0:  # NaN fails too
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if self.loss not in ("jll", "jsl", "jkl"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.schedule not in ("constant", "relu-bound", "one-step"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.schedule == "constant":
            if self.eta is None or self.eta <= 0:
                raise ValueError("constant schedule needs eta > 0")
        if self.grad_mode not in ("exact", "analytic-relu"):
            raise ValueError(f"unknown grad mode {self.grad_mode!r}")
        if self.n_v < 0:
            raise ValueError("n_v must be >= 0")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.bound_safety <= 0:
            raise ValueError("bound_safety must be > 0")
        resolve_aux_groups(self.aux_groups)


@dataclass
class TuneStep:
    t: int
    loss: float
    js: np.ndarray
    aux: np.ndarray
    eta: float
    stderr: np.ndarray        # per pair: 0.0 for exact norms, NaN for one probe


@dataclass
class TuneTrace:
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
        jcols = [f"J_{i}" for i in range(n_pairs)]
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

def _measure(spec, params, aux, batch, cfg: TuneConfig, rng: RngStream, grad: bool):
    """Per-pair norms and their standard errors, kernels and, when
    ``grad``, the exact gradient of their loss from the same probe sweeps,
    else None (:func:`measure_pairs`; pair l draws its probes from
    ``rng.child(l)``)."""
    state = run_network(spec, params, aux, batch)
    ks = kernel_profile(state)
    dj = kernels = None
    if grad:
        at_ones = _loss(cfg, np.ones(len(ks) - 1), ks)  # kernel partials do not read the norms
        kernels = {} if at_ones is None or at_ones.dk is None else dict(enumerate(at_ones.dk.tolist()))
        dj = partial(_dj, cfg)
    js, errs, grads = measure_pairs(state, cfg.n_v, rng, dj, kernels)
    return js, errs, ks, grads


def _dj(cfg: TuneConfig, j: float) -> float:
    """The loss's partial in one pair's norm ``j``, which no other norm
    enters (the kernel loss has the log loss's); NaN outside its domain."""
    ok = math.isfinite(j) and (j > 0 or cfg.loss == "jsl")
    return float((jsl if cfg.loss == "jsl" else jll)([j]).dj[0]) if ok else math.nan


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


def _pair_of_weight_block(spec: NetworkSpec) -> dict[int, int]:
    """Weight-bearing block -> the pair it generates, for every pair with
    exactly one such block."""
    pair_of: dict[int, int] = {}
    for l in range(spec.n_boundaries - 1):
        weighted = [i for i in spec.segment(l, l + 1)
                    if "W" in OPS[spec.blocks[i].kind].groups]
        if len(weighted) == 1:
            pair_of[weighted[0]] = l
    return pair_of


def grad_aux(spec: NetworkSpec, params: ParamSet, aux: AuxScalars, batch: Array,
             cfg: TuneConfig, rng: RngStream) -> dict:
    """Gradient of the configured loss w.r.t. every tunable scalar, at the
    norms measured on ``aux`` and ``batch`` with the stream ``rng``: exact,
    or the ReLU closed form, where the weight scalar of the block
    generating pair l gets ``2 log(J_l) / a`` (times ``1 + lam`` for the
    kernel-augmented loss at sigma_b = 0) and bias scalars get zero.
    """
    exact = cfg.grad_mode == "exact"
    js, _, ks, grads = _measure(spec, params, aux, batch, cfg, rng, exact)
    trace = TuneTrace(aux.keys())
    if exact and _loss(cfg, js, ks) is None:
        raise DivergenceError("loss non-finite", trace)
    return _step_grads(spec, aux, cfg, js, grads, _pair_of_weight_block(spec), trace)


def _step_grads(spec: NetworkSpec, aux: AuxScalars, cfg: TuneConfig, js, grads: dict | None,
                pair_of: dict[int, int], trace: TuneTrace) -> dict:
    """The gradient a step moves by: the exact ``grads`` measured with the
    norms ``js``, checked finite, or the ReLU closed form at ``js``."""
    if cfg.grad_mode == "exact":
        for key, value in grads.items():
            if not math.isfinite(value):
                raise DivergenceError(f"gradient non-finite at {key}", trace)
        return grads
    if not np.all(np.isfinite(js) & (js > 0)):
        raise DivergenceError("measured norms left the positive domain", trace)
    if cfg.loss == "jkl":
        sigmas_b = [b.sigma_b for b in spec.blocks if "W" in OPS[b.kind].groups]
        if any(s != 0 for s in sigmas_b):
            raise ValueError("analytic gradients for the kernel loss need sigma_b = 0")
    grads = {}
    for (i, g) in aux.keys():
        if g != "W" or i not in pair_of:
            grads[(i, g)] = 0.0
            continue
        jl = js[pair_of[i]]
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
    per step. On exit the scalars are folded into the returned model's
    sigmas and parameters, which leaves its scalars at 1. A non-finite loss
    raises :class:`DivergenceError` carrying the partial trace.
    """
    pairs = range(spec.n_boundaries - 1)
    aux = AuxScalars.ones(spec, cfg.aux_groups)
    keys = aux.keys()
    if not keys:
        raise ValueError("no tunable scalars for the chosen aux groups")
    trace = TuneTrace(keys)
    pair_of = _pair_of_weight_block(spec)
    sigma_of_pair = {l: spec.blocks[i].sigma_w for i, l in pair_of.items()}

    def measure(t: int, aux_now: AuxScalars):
        # step t's norms and kernels, with their exact gradient where one is taken
        step_batch = batch_provider(t) if cfg.fresh_batch and batch_provider is not None else batch
        return _measure(spec, params, aux_now, step_batch, cfg, rng.child(t),
                        cfg.grad_mode == "exact" and t < cfg.t_max)

    def need_pair_sigmas():
        missing = [l for l in pairs if l not in sigma_of_pair]
        if missing:
            raise ValueError(f"schedule needs one weight block per pair; pairs {missing} differ")

    t = 0
    js, errs, ks, grads = measure(t, aux)
    loss = _loss_of(cfg, js, ks)
    trace.append(TuneStep(t, loss, js.copy(), aux.as_vector(), 0.0, errs))
    if not math.isfinite(loss):
        raise DivergenceError("initial loss non-finite", trace)

    while t < cfg.t_max and loss > cfg.eps:
        grads = _step_grads(spec, aux, cfg, js, grads, pair_of, trace)
        if cfg.schedule == "constant":
            eta_used = cfg.eta
            rates = {key: cfg.eta for key in keys}
        elif cfg.schedule == "relu-bound":
            need_pair_sigmas()
            bounds = [eta_bound([js[l]], sigma_of_pair[l], loss=cfg.loss if cfg.loss != "jkl" else "jll")
                      for l in pairs]
            eta_used = cfg.bound_safety * min(bounds)
            rates = {key: eta_used for key in keys}
        else:  # one-step, per layer
            need_pair_sigmas()
            rates = {}
            per_pair = {}
            for l in pairs:
                per_pair[l] = eta_one_step(js[l], sigma_of_pair[l],
                                           loss=cfg.loss if cfg.loss != "jkl" else "jll")
            for key in keys:
                i, _ = key
                rates[key] = per_pair.get(pair_of.get(i, -1), 0.0)
            eta_used = min(per_pair.values())
        new_vals = {key: aux.get(*key) - rates[key] * grads.get(key, 0.0) for key in keys}
        aux = AuxScalars(new_vals).clamped(*AUX_CLAMP)
        t += 1
        js, errs, ks, grads = measure(t, aux)
        loss = _loss_of(cfg, js, ks)
        if not math.isfinite(loss):
            trace.append(TuneStep(t, float("inf"), js.copy(), aux.as_vector(), eta_used, errs))
            raise DivergenceError(f"loss diverged at step {t}", trace)
        trace.append(TuneStep(t, loss, js.copy(), aux.as_vector(), eta_used, errs))

    return TuneResult(scale_spec_sigmas(spec, aux), scale_params(spec, params, aux),
                      AuxScalars({k: 1.0 for k in aux.values}), trace, loss <= cfg.eps, t)


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
