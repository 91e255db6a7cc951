"""The four benchmark workloads, built from crittuner's presets and configs.

Every workload is a closed loop with one caller: the next unit of work
starts when the previous one returns. Work is grouped in episodes; a tune
episode is one ``tune`` call of a fixed number of steps (unit = tuner
step), a measure episode is one exact profile per gain (unit = parameter
draw). Episodes are run until the time budget is spent, and each one's
outputs are checked against the library's own oracles. The networks mirror
the sample configs named below but are built here, so editing a sample
config cannot change a workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

BAND = (0.8, 1.25)
TAIL = 10
SQRT2 = math.sqrt(2.0)


@dataclass
class Outcome:
    """Unit durations and check results of the episodes run so far."""

    durations: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def tail_in_band(js_matrix: np.ndarray) -> bool:
    """Per-layer mean over the last TAIL steps lies inside BAND."""
    tail = js_matrix[-TAIL:]
    if not np.all(np.isfinite(tail)):
        return False
    means = tail.mean(axis=0)
    return bool(np.all((means > BAND[0]) & (means < BAND[1])))


class TuneWorkload:
    """``tune`` episodes on a fixed network, batch and parameter draw.

    Per-step times come from the ``batch_provider`` callback, which
    ``tune`` calls once at the start of every step's measurement; it always
    returns the set-up batch, so results equal a fixed-batch run.
    """

    unit = "tuner step"

    def __init__(self, name, network, batch, config, steps, check):
        self.name = name
        self._network = network
        self._batch = batch
        self._config = config
        self.steps = steps
        self._check = check

    def setup(self, ct, seed: int) -> None:
        self.ct = ct
        self.rng = ct.RngStream(seed)
        self.spec = self._network(ct.presets)
        data = ct.config.DataConfig(source="gaussian-synthetic", batch=self._batch,
                                    normalize=True)
        self.x = ct.data.make_batch(data, self.spec.input_shape, self.rng.child(1))
        self.params = ct.blocks.init_params(self.spec, self.rng.child(2))

    def episode(self, index: int, tracer, out: Outcome) -> None:
        ct = self.ct
        cfg = ct.tuner.TuneConfig(**self._config, t_max=self.steps, fresh_batch=True)
        stamps = []

        def provider(t):
            stamps.append(perf_counter())
            tracer.unit = (index, t)
            return self.x

        out.attempted += self.steps
        try:
            res = ct.tuner.tune(self.spec, self.params, self.x, cfg,
                                self.rng.child(100 + index), batch_provider=provider)
            problem = self._check(ct, self.spec, res.trace, self._config)
        except ct.tuner.DivergenceError as exc:
            problem = f"DivergenceError: {exc}"
        tracer.unit = None
        out.durations.extend(np.diff(stamps).tolist())
        if problem:
            out.failed += self.steps
            out.problems.append(f"episode {index}: {problem}")

    def timed_units(self, episodes) -> set:
        # the interval after the final step's stamp only re-measures and folds
        return {(e, t) for e in episodes for t in range(self.steps)}

    def finish(self, out: Outcome) -> None:
        """Tune episodes are checked as they end."""


def check_relu_convergence(ct, spec, trace, config) -> str:
    """Tail of the last TAIL steps in BAND, and the exact per-layer map from
    the step-0 norms predicts convergence at this rate."""
    js = trace.js_matrix
    steps = len(js) - 1
    sigma_w = spec.blocks[0].sigma_w
    predicted = ct.meanfield.relu_dynamics(js[0], sigma_w, config["eta"], steps, "jll").values
    if not tail_in_band(predicted):
        return "exact map does not predict convergence"
    if not tail_in_band(js):
        return f"tail means {js[-TAIL:].mean(axis=0).round(3).tolist()} outside {BAND}"
    return ""


def check_loss_decreases(ct, spec, trace, config) -> str:
    """Every logged norm finite, and the final loss below the step-0 loss."""
    if not np.all(np.isfinite(trace.js_matrix)):
        return "non-finite norm logged"
    losses = trace.losses
    if not losses[-1] < losses[0]:
        return f"final loss {losses[-1]:.6g} not below step-0 loss {losses[0]:.6g}"
    return ""


class MeasureWorkload:
    """Exact one-block profiles of ReLU stacks at three gains, one fresh
    parameter draw per unit, cycling through the gains."""

    unit = "parameter draw"
    name = "measure-exact-mlp"
    gains = (1.0, SQRT2, 2.0)
    steps = 3  # draws per episode: one per gain
    batch = 4
    tol = 0.05

    def __init__(self):
        self.draws = [[] for _ in self.gains]  # per gain: one norm array per draw

    def setup(self, ct, seed: int) -> None:
        self.ct = ct
        self.rng = ct.RngStream(seed)
        data = ct.config.DataConfig(source="gaussian-synthetic", batch=self.batch,
                                    normalize=True)
        self.specs = [ct.presets.relu_mlp(10, 500, s) for s in self.gains]
        self.xs = [ct.data.make_batch(data, spec.input_shape, self.rng.child(1 + n))
                   for n, spec in enumerate(self.specs)]
        self.auxes = [ct.blocks.AuxScalars.ones(spec) for spec in self.specs]

    def episode(self, index: int, tracer, out: Outcome) -> None:
        ct = self.ct
        for n, spec in enumerate(self.specs):
            tracer.unit = (index, n)
            t0 = perf_counter()
            params = ct.blocks.init_params(spec, self.rng.child(1000 + index * 3 + n))
            report = ct.apjn.apjn_profile(spec, params, self.auxes[n], self.xs[n], 1,
                                          method="exact")
            out.durations.append(perf_counter() - t0)
            self.draws[n].append(report.values())
        tracer.unit = None
        out.attempted += self.steps

    def timed_units(self, episodes) -> set:
        return {(e, n) for e in episodes for n in range(self.steps)}

    def finish(self, out: Outcome) -> None:
        """Mean norm per gain within ``tol`` of sigma_w^2 / 2 (acceptance
        check 1); a miss fails every draw of that gain."""
        for gain, draws in zip(self.gains, self.draws):
            target = gain * gain / 2.0
            mean = float(np.mean(draws))
            if not abs(mean / target - 1.0) <= self.tol:
                out.failed += len(draws)
                out.problems.append(f"gain {gain:.4g}: mean norm {mean:.5g}, "
                                    f"target {target:.5g} (tol {self.tol})")


def make_workloads() -> dict:
    return {w.name: w for w in (
        TuneWorkload(  # mirrors configs/mlp_tune_jll.cfg
            "tune-mlp-analytic",
            lambda p: p.relu_mlp(10, 500, 2.0), 16,
            dict(loss="jll", eta=0.1, n_v=4, grad_mode="analytic-relu"),
            60, check_relu_convergence),
        TuneWorkload(  # mirrors configs/conv_stack_tune.cfg, default gradient mode
            "tune-conv-bn",
            lambda p: p.conv_bn_relu_stack((4, 6, 6, 8, 8, 8), 1.5), 128,
            dict(loss="jkl", lam=0.05, eta=0.01, aux_groups={"alpha"}, n_v=3),
            2, check_loss_decreases),
        TuneWorkload(  # mirrors configs/resmlp_tune_jkl.cfg, default gradient mode
            "tune-resmlp",
            lambda p: p.resmlp_toy(2, 8, SQRT2, mu=1.0, eps_ls=1.0, act="gelu",
                                   image=(3, 8, 8), patch=2), 32,
            dict(loss="jkl", lam=0.5, eta=0.03, aux_groups="all", n_v=2),
            10, check_loss_decreases),
        MeasureWorkload(),  # mirrors the criticality-line acceptance check
    )}
