"""Oracle-equivalence suites.

Each suite pits the empirical machinery against an independent prediction:
closed-form wide-network values, the exact discrete tuning dynamics,
quadrature or Monte-Carlo moments, or internal consistency (estimator
versus exact norms, factorization across boundaries). Suites return a
:class:`VerifyResult`; the command-line ``verify`` subcommand and the
acceptance tests both run them with their default settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .apjn import apjn_profile, estimate_segment, exact_apjn, factorization_residual
from .blocks import AuxScalars, init_params, run_network
from .data import gaussian_batch
from .losses import jkl, jll
from .meanfield import (
    ActivationStats,
    MeanFieldState,
    ReluTrajectory,
    bn_apjn_limit,
    bn_chaos_value,
    bn_kernel_at_depth,
    gauss_expect,
    gelu_deriv_square_moment,
    gelu_square_moment,
    kernel_fixed_point,
    relu_dynamics,
    resmlp_apjn,
    resmlp_kernel_step,
)
from .presets import prebn_residual_mlp, relu_mlp, resmlp_toy
from .tensor import RngStream
from .tuner import DivergenceError, TuneConfig, eta_zero, grad_aux, tune

SQRT2 = math.sqrt(2.0)
BAND = (0.8, 1.25)


@dataclass
class VerifyResult:
    name: str
    ok: bool
    detail: str

    def __post_init__(self):
        self.ok = bool(self.ok)  # suites compute numpy bools, which json cannot write

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


def _measure_mlp_js(width, depth, sigma_w, sigma_b, batch, samples, seed):
    spec = relu_mlp(depth, width, sigma_w, sigma_b)
    rng = RngStream(seed)
    x = gaussian_batch(spec.input_shape, batch, rng.child(1))
    params = init_params(spec, rng.child(2))
    aux = AuxScalars.ones(spec)
    report = apjn_profile(spec, params, aux, x, 1, method="exact",
                          n_param_samples=samples, rng=rng.child(3))
    return report.values()


# --------------------------------------------------------------------------
# 1. criticality line
# --------------------------------------------------------------------------

def criticality_line(seed: int = 0, *, width=500, depth=10, batch=4, samples=20,
                     sigmas=(1.0, SQRT2, 2.0), tol=0.05) -> VerifyResult:
    """Measured one-block norms of a plain ReLU stack sit at sigma_w^2 / 2."""
    worst = 0.0
    for n, sw in enumerate(sigmas):
        js = _measure_mlp_js(width, depth, sw, 0.0, batch, samples, seed + n)
        target = sw * sw / 2.0
        worst = max(worst, float(np.max(np.abs(js / target - 1.0))))
    return VerifyResult("criticality-line", worst <= tol,
                        f"max relative deviation {worst:.4f} (tol {tol})")


# --------------------------------------------------------------------------
# 2. one-step tuning
# --------------------------------------------------------------------------

def one_step_tuning(seed: int = 0, *, width=500, depth=10, sigma_w=2.0, batch=32,
                    band=(0.95, 1.05)) -> VerifyResult:
    """The per-layer one-shot rate lands every block norm in the target band."""
    finals = {}
    for loss in ("jll", "jsl"):
        spec = relu_mlp(depth, width, sigma_w)
        rng = RngStream(seed)
        x = gaussian_batch(spec.input_shape, batch, rng.child(1))
        params = init_params(spec, rng.child(2))
        cfg = TuneConfig(loss=loss, schedule="one-step", t_max=1, n_v=0,
                         grad_mode="analytic-relu")
        res = tune(spec, params, x, cfg, rng.child(3))
        finals[loss] = res.trace.steps[-1].js
    ok = all(band[0] <= v <= band[1] for js in finals.values() for v in js)
    lo = min(v for js in finals.values() for v in js)
    hi = max(v for js in finals.values() for v in js)
    return VerifyResult("one-step", ok, f"J(1) in [{lo:.4f}, {hi:.4f}] (band {band})")


# --------------------------------------------------------------------------
# 3. convergence band in the rate/gain plane
# --------------------------------------------------------------------------

def _tail_in_band(js_matrix: np.ndarray, band, hold=10) -> bool:
    # classify on the per-layer mean over the closing steps: probe noise at
    # a settled point averages out, while cycles and runaways stay outside
    tail = js_matrix[-hold:]
    if not np.all(np.isfinite(tail)):
        return False
    means = tail.mean(axis=0)
    return bool(np.all((means > band[0]) & (means < band[1])))


def _oracle_converged(j0: np.ndarray, sigma_w, eta, steps, loss, band, hold=10) -> bool:
    traj = relu_dynamics(j0, sigma_w, eta, steps, loss)
    return _tail_in_band(traj.values, band, hold)


def _empirical_converged(spec, params, x, cfg, rng, band, hold=10) -> bool:
    try:
        res = tune(spec, params, x, cfg, rng)
    except DivergenceError:
        return False
    return _tail_in_band(res.trace.js_matrix, band, hold)


def convergence_band(seed: int = 0, *, width=500, depth=10, batch=4, steps=980,
                     n_v=4, sigmas=(1.8, 2.6, 3.4), band=BAND) -> VerifyResult:
    """Empirical trainability region matches the exact-map prediction.

    Four rates per gain: two below the stability threshold, one between the
    threshold and the t=0 estimate (the gap region), one above the t=0
    estimate; the empirical converged/not-converged classification must
    match the map's on every point, so the boundary agrees within one cell.
    """
    rows = []
    mismatches = []
    for sw in sigmas:
        e0 = eta_zero(1.0, sw, "jll")
        etas = [0.45 / sw ** 2, 0.85 / sw ** 2, 1.1 * e0, 1.8 * e0]
        if not (etas[1] < e0 < etas[2]):
            return VerifyResult("convergence-band", False,
                                f"grid does not straddle eta_0 at sigma_w={sw}")
        spec = relu_mlp(depth, width, sw)
        rng = RngStream(seed)
        x = gaussian_batch(spec.input_shape, batch, rng.child(1))
        params = init_params(spec, rng.child(2))
        aux = AuxScalars.ones(spec)
        state = run_network(spec, params, aux, x)
        j0 = np.array([exact_apjn(state, l, l + 1) for l in range(spec.n_boundaries - 1)])
        for eta in etas:
            pred = _oracle_converged(j0, sw, eta, steps, "jll", band)
            cfg = TuneConfig(loss="jll", eta=eta, t_max=steps, n_v=n_v,
                             grad_mode="analytic-relu")
            emp = _empirical_converged(spec, params, x, cfg, rng.child(5), band)
            rows.append((sw, eta, pred, emp))
            if pred != emp:
                mismatches.append((sw, eta))
    n_conv = sum(1 for r in rows if r[3])
    detail = (f"{len(rows)} points, {n_conv} converged, "
              f"{len(mismatches)} prediction mismatches {mismatches if mismatches else ''}")
    return VerifyResult("convergence-band", not mismatches, detail.strip())


# --------------------------------------------------------------------------
# 4. tuner trajectory against the exact map
# --------------------------------------------------------------------------

def trajectory_match(seed: int = 0, *, width=500, depth=8, sigma_w=1.7, batch=16,
                     eta=0.12, steps=50, tol=0.02, loss="jll") -> VerifyResult:
    """Per-layer norms under tuning track the iterated map within ``tol``.

    The per-layer gap scales like |log J(0)| times the width-noise of the
    instance (batch samples align with depth, so the noise floor is
    ~1/sqrt(width) regardless of batch size); the default gain keeps that
    product a factor two under the tolerance at width 500.
    """
    spec = relu_mlp(depth, width, sigma_w)
    rng = RngStream(seed)
    x = gaussian_batch(spec.input_shape, batch, rng.child(1))
    params = init_params(spec, rng.child(2))
    cfg = TuneConfig(loss=loss, eta=eta, t_max=steps, n_v=0, grad_mode="analytic-relu")
    res = tune(spec, params, x, cfg, rng.child(3))
    measured = res.trace.js_matrix          # [steps+1, pairs]
    oracle = relu_dynamics(measured[0], sigma_w, eta, steps, loss).values
    rel = np.abs(measured / oracle - 1.0)
    worst = float(np.nanmax(rel))
    return VerifyResult("relu-dynamics", worst <= tol,
                        f"max per-step relative gap {worst:.4f} (tol {tol})")


# --------------------------------------------------------------------------
# 5-7. batch-normalized residual stacks
# --------------------------------------------------------------------------

def _bn_apjn(sigma_w, sigma_b, mu, *, depth, width, batch, n_v, seeds, seed0):
    """Mean norm of the block following ``depth`` carried blocks (the pair
    (depth, depth+1) of a depth+1 stack), averaged over fresh draws."""
    vals = []
    for s in range(seeds):
        spec = prebn_residual_mlp(depth + 1, width, sigma_w, sigma_b, mu)
        rng = RngStream(seed0 + s)
        x = gaussian_batch(spec.input_shape, batch, rng.child(1))
        params = init_params(spec, rng.child(2))
        aux = AuxScalars.ones(spec)
        state = run_network(spec, params, aux, x)
        v, _ = estimate_segment(state, depth, depth + 1, n_v, rng.child(3))
        vals.append(v)
    return float(np.mean(vals))


_BN_GRID = ((0.5, 0.0), (0.5, 2.0), (1.75, 1.0), (2.5, 0.5), (3.0, 0.0), (3.0, 2.0))


def bn_chaos(seed: int = 0, *, depth=30, width=500, batch=256, n_v=16, seeds=20,
             grid=_BN_GRID, tol=0.05) -> VerifyResult:
    """Without skips the one-block norm is flat at pi/(pi-1) across sigmas."""
    target = bn_chaos_value()
    worst = 0.0
    for sw, sb in grid:
        j = _bn_apjn(sw, sb, 0.0, depth=depth, width=width, batch=batch,
                     n_v=n_v, seeds=seeds, seed0=seed)
        worst = max(worst, abs(j / target - 1.0))
    return VerifyResult("bn-chaos", worst <= tol,
                        f"max relative deviation from pi/(pi-1) is {worst:.4f} (tol {tol})")


def bn_residual_critical(seed: int = 0, *, depth=30, width=500, batch=256, n_v=16,
                         seeds=20, grid=_BN_GRID, tol=0.05) -> VerifyResult:
    """With unit skips the deep one-block norm sits within ``tol`` of 1."""
    worst = 0.0
    for sw, sb in grid:
        j = _bn_apjn(sw, sb, 1.0, depth=depth, width=width, batch=batch,
                     n_v=n_v, seeds=seeds, seed0=seed)
        worst = max(worst, abs(j - 1.0))
    return VerifyResult("bn-critical", worst <= tol,
                        f"max |J - 1| = {worst:.4f} (tol {tol})")


def bn_batch_saturation(seed: int = 0, *, depth=30, width=500, n_v=16, seeds=10,
                        sigma_w=2.0, sigma_b=0.5, tol=0.01) -> VerifyResult:
    """Batch-size corrections are negligible from 128 up.

    Smaller batches reuse the leading samples of the full one (and the same
    parameter draw), so the comparison isolates the batch-size effect from
    sampling noise.
    """
    sizes = (32, 128, 256)
    sums = {b: 0.0 for b in sizes}
    for s in range(seeds):
        spec = prebn_residual_mlp(depth + 1, width, sigma_w, sigma_b, 0.0)
        rng = RngStream(seed + s)
        x_full = gaussian_batch(spec.input_shape, max(sizes), rng.child(1))
        params = init_params(spec, rng.child(2))
        aux = AuxScalars.ones(spec)
        for b in sizes:
            state = run_network(spec, params, aux, x_full[:b])
            v, _ = estimate_segment(state, depth, depth + 1, n_v, rng.child(3))
            sums[b] += v
    js = {b: sums[b] / seeds for b in sizes}
    gap = abs(js[128] - js[256]) / js[256]
    return VerifyResult("bn-batch-saturation", gap < tol,
                        f"|J(128) - J(256)| / J(256) = {gap:.5f} (tol {tol}); "
                        f"J(32) = {js[32]:.4f}")


# --------------------------------------------------------------------------
# 8. patch-mixing residual closed forms
# --------------------------------------------------------------------------

def resmlp_closed_form(seed: int = 0, *, dim=64, n_blocks=3, batch=2, samples=20,
                       tol=0.10) -> VerifyResult:
    """Empirical block norms match the closed-form kernel/Jacobian maps.

    The last block's norm is measured exactly and compared against the
    closed form evaluated at the kernel obtained by iterating the kernel
    map from the measured embedding kernel.
    """
    worst = 0.0
    for act in ("gelu", "relu"):
        for mu in (0.0, 1.0):
            for eps in (0.1, 1.0):
                for sw in (1.0, 2.0):
                    spec = resmlp_toy(n_blocks, dim, sw, mu=mu, eps_ls=eps, act=act)
                    rng = RngStream(seed)
                    x = gaussian_batch(spec.input_shape, batch, rng.child(1))
                    aux = AuxScalars.ones(spec)
                    js, k0s = [], []
                    for s in range(samples):
                        params = init_params(spec, rng.child(100 + s))
                        state = run_network(spec, params, aux, x)
                        js.append(exact_apjn(state, n_blocks, n_blocks + 1))
                        k0s.append(float((state.boundary(1) ** 2).mean()))
                    k = float(np.mean(k0s))
                    for _ in range(n_blocks - 1):
                        k = resmlp_kernel_step(k, sw, 0.0, mu, eps, act)
                    pred = resmlp_apjn(k, sw, 0.0, mu, eps, act)
                    dev = abs(float(np.mean(js)) / pred - 1.0)
                    worst = max(worst, dev)
    return VerifyResult("resmlp", worst <= tol,
                        f"max relative deviation {worst:.4f} (tol {tol})")


# --------------------------------------------------------------------------
# 9. estimator unbiasedness and scaling
# --------------------------------------------------------------------------

def estimator_unbiasedness(seed: int = 0, *, width=64, depth=4, batch=8,
                           n_v=1000) -> VerifyResult:
    """Probe mean sits within 3 standard errors of the exact norm, and the
    standard error halves (within 20%) when the probe count quadruples."""
    spec = relu_mlp(depth, width, SQRT2)
    rng = RngStream(seed)
    x = gaussian_batch(spec.input_shape, batch, rng.child(1))
    params = init_params(spec, rng.child(2))
    aux = AuxScalars.ones(spec)
    state = run_network(spec, params, aux, x)
    exact = exact_apjn(state, 1, 2)
    est, err = estimate_segment(state, 1, 2, n_v, rng.child(3))
    gap_ok = abs(est - exact) <= 3 * err
    _, e_small = estimate_segment(state, 1, 2, n_v // 4, rng.child(4))
    ratio = e_small / err
    scaling_ok = 2.0 * 0.8 <= ratio <= 2.0 * 1.2
    return VerifyResult(
        "estimator", gap_ok and scaling_ok,
        f"|est - exact| = {abs(est - exact):.2e} vs 3*stderr = {3 * err:.2e}; "
        f"stderr ratio N_v x4 = {ratio:.3f} (want 2 +/- 20%)")


# --------------------------------------------------------------------------
# 10. factorization across two boundaries
# --------------------------------------------------------------------------

def factorization(seed: int = 0, *, widths=(100, 300, 1000), depth=3, batch=4,
                  seeds=20, tol=0.05) -> VerifyResult:
    """Two-step norms factor into one-step products, better with width."""
    medians = {}
    for w in widths:
        spec = relu_mlp(depth, w, SQRT2)
        res = []
        for s in range(seeds):
            rng = RngStream(seed + s)
            x = gaussian_batch(spec.input_shape, batch, rng.child(1))
            params = init_params(spec, rng.child(2))
            aux = AuxScalars.ones(spec)
            res.append(factorization_residual(run_network(spec, params, aux, x), 0))
        medians[w] = float(np.median(res))
    ordered = [medians[w] for w in sorted(widths)]
    decreasing = all(a > b for a, b in zip(ordered, ordered[1:]))
    ok = medians[max(widths)] <= tol and decreasing
    return VerifyResult("factorization", ok,
                        f"median residuals {medians} (tol {tol} at width {max(widths)})")


# --------------------------------------------------------------------------
# 11. vanishing cross-layer susceptibility for ReLU
# --------------------------------------------------------------------------

def chi_delta_relu(seed: int = 0, *, k=1.5, n_samples=1_000_000, fd=1e-3,
                   tol=1e-2) -> VerifyResult:
    """Analytic value is exactly zero; a central-difference Monte-Carlo
    estimate of the same Gaussian moment stays below ``tol``."""
    from .meanfield import chi
    state = MeanFieldState(k_diag=k, sigma_w=SQRT2)
    _, chi_d = chi(state, "relu")
    if chi_d != 0.0:
        return VerifyResult("chi-delta", False, f"analytic path returned {chi_d}")
    rng = RngStream(seed)
    h = rng.normal(n_samples, 0.0, math.sqrt(k))
    # E[phi''^2 + phi' phi'''] equals E[(h/k) phi' phi''] by Gaussian parts;
    # the second derivative is taken by central differences
    d2 = (np.maximum(h + fd, 0) - 2 * np.maximum(h, 0) + np.maximum(h - fd, 0)) / fd ** 2
    mc = float(np.mean((h / k) * (h > 0) * d2)) * SQRT2 ** 2
    return VerifyResult("chi-delta", abs(mc) < tol,
                        f"analytic 0, Monte-Carlo {mc:.2e} (tol {tol})")


# --------------------------------------------------------------------------
# 12. kernel fixed point
# --------------------------------------------------------------------------

def kernel_fixed_point_suite(seed: int = 0, *, tol=1e-6) -> VerifyResult:
    state = MeanFieldState(k_diag=0.3, sigma_w=1.0, sigma_b=1.0)
    k_star, iters = kernel_fixed_point(state, "relu", tol=tol, max_iter=200)
    ok = abs(k_star - 2.0) <= 1e-6 and iters <= 200
    return VerifyResult("kernel-fixed-point", ok,
                        f"K* = {k_star:.8f} after {iters} iterations (target 2.0)")


# --------------------------------------------------------------------------
# 13. learning-rate scaling
# --------------------------------------------------------------------------

def eta_scaling(seed: int = 0, *, tol=0.2) -> VerifyResult:
    r1 = eta_zero(1.0, 8.0, "jsl") / eta_zero(1.0, 4.0, "jsl")
    ok1 = abs(r1 / 2.0 ** -4 - 1.0) <= tol
    r2 = eta_zero(1.0, 64.0, "jsl") / eta_zero(1.0, 8.0, "jsl")
    ok2 = abs(r2 / 8.0 ** -4 - 1.0) <= tol
    r3 = eta_zero(1.0, 8.0, "jll") / eta_zero(1.0, 64.0, "jll")
    ok3 = abs(r3 / (math.log(64.0) / math.log(8.0)) - 1.0) <= tol
    return VerifyResult("eta-scaling", ok1 and ok2 and ok3,
                        f"square-loss ratios {r1:.4f}/{2.0**-4:.4f}, {r2:.2e}/{8.0**-4:.2e}; "
                        f"log-loss ratio {r3:.4f}/{math.log(64)/math.log(8):.4f} (tol {tol})")


# --------------------------------------------------------------------------
# 14. kernel-loss equivalence for scale-free stacks
# --------------------------------------------------------------------------

def jkl_equivalence(seed: int = 0, *, layers=12, tol=1e-10) -> VerifyResult:
    """For ReLU with zero bias the kernel ratios equal the norms, so the
    kernel-augmented loss is exactly (1 + lam) times the log loss."""
    rng = RngStream(seed)
    worst = 0.0
    for lam in (0.05, 0.5, 2.0):
        js = np.exp(rng.normal(layers, 0.0, 0.7))
        ks = [1.0]
        for j in js:
            ks.append(j * ks[-1])   # zero-bias ReLU kernel map: K' = J K
        a = jkl(js, np.array(ks), lam).total
        b = (1.0 + lam) * jll(js).total
        worst = max(worst, abs(a / b - 1.0))
    return VerifyResult("jkl-equivalence", worst <= tol,
                        f"max relative gap {worst:.2e} (tol {tol})")


# --------------------------------------------------------------------------
# 15. exact gradient against the closed form
# --------------------------------------------------------------------------

def gradient_check(seed: int = 0, *, width=100, depth=5, sigma_w=2.0, batch=8,
                   n_v=4, tol=1e-3) -> VerifyResult:
    """The exact gradient of the log loss reproduces 2 log(J) / a per layer."""
    spec = relu_mlp(depth, width, sigma_w)
    rng = RngStream(seed)
    x = gaussian_batch(spec.input_shape, batch, rng.child(1))
    params = init_params(spec, rng.child(2))
    aux = AuxScalars.ones(spec, groups={"W"})
    cfg_ex = TuneConfig(loss="jll", eta=0.1, n_v=n_v, grad_mode="exact")
    cfg_an = TuneConfig(loss="jll", eta=0.1, n_v=n_v, grad_mode="analytic-relu")
    g_ex = grad_aux(spec, params, aux, x, cfg_ex, rng.child(3))
    g_an = grad_aux(spec, params, aux, x, cfg_an, rng.child(3))
    worst = 0.0
    for key, ga in g_an.items():
        if ga == 0.0:
            continue
        worst = max(worst, abs(g_ex[key] / ga - 1.0))
    return VerifyResult("gradient-check", worst <= tol,
                        f"max relative gap {worst:.2e} (tol {tol})")


# --------------------------------------------------------------------------
# quadrature cross-checks
# --------------------------------------------------------------------------

def quadrature(seed: int = 0, *, n_mc=1_000_000) -> VerifyResult:
    """Closed forms, quadrature and Monte Carlo agree on Gaussian moments."""
    from scipy.special import ndtr

    def npdf(x):
        return np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

    rng = RngStream(seed)
    checks = []
    for z in (0.25, 1.0, 2.0):
        g_closed = gelu_square_moment(z)
        g_quad = gauss_expect(lambda h: (h * ndtr(h)) ** 2, z)
        checks.append(("G", z, abs(g_closed - g_quad), 1e-8))
        h_closed = gelu_deriv_square_moment(z)
        h_quad = gauss_expect(lambda h: (ndtr(h) + h * npdf(h)) ** 2, z)
        checks.append(("H", z, abs(h_closed - h_quad), 1e-8))
    ok = all(d <= tol for _, _, d, tol in checks)
    # Monte-Carlo agreement within 3 standard errors for each activation moment
    for kind in ("gelu", "tanh", "relu"):
        stats = ActivationStats(kind)
        for z in (0.5, 2.0):
            h = rng.normal(n_mc, 0.0, math.sqrt(z))
            if kind == "gelu":
                sample = (h * ndtr(h)) ** 2
            elif kind == "tanh":
                sample = np.tanh(h) ** 2
            else:
                sample = np.maximum(h, 0.0) ** 2
            mc, se = sample.mean(), sample.std(ddof=1) / math.sqrt(n_mc)
            ref = stats.e_phi2(z)
            if abs(mc - ref) > 3 * se:
                ok = False
                checks.append((kind, z, abs(mc - ref), 3 * se))
    return VerifyResult("quadrature", ok, f"{len(checks)} moment checks")


# --------------------------------------------------------------------------
# infinite-batch limit formula against the chaos constant
# --------------------------------------------------------------------------

def bn_limit_formula(seed: int = 0) -> VerifyResult:
    """The limit formula reproduces pi/(pi-1) for every sigma pair without
    skips, and approaches 1 like c/l with unit skips."""
    target = bn_chaos_value()
    worst = 0.0
    for sw in (0.5, 1.0, 2.0, 3.0):
        for sb in (0.0, 1.0, 2.0):
            state = bn_kernel_at_depth(sw, sb, 0.0, depth=5)
            worst = max(worst, abs(bn_apjn_limit(state) - target))
    ok = worst < 1e-12
    state30 = bn_kernel_at_depth(2.0, 0.5, 1.0, depth=30)
    v30 = bn_apjn_limit(state30)
    state60 = bn_kernel_at_depth(2.0, 0.5, 1.0, depth=60)
    v60 = bn_apjn_limit(state60)
    ok = ok and abs(v30 - 1.0) < 0.05 and abs(v60 - 1.0) < abs(v30 - 1.0)
    return VerifyResult("bn-limit", ok,
                        f"chaos formula gap {worst:.2e}; skip limit 1+{v30 - 1.0:.4f} "
                        f"at depth 30, 1+{v60 - 1.0:.4f} at 60")


SUITES = {
    "criticality-line": criticality_line,
    "one-step": one_step_tuning,
    "convergence-band": convergence_band,
    "relu-dynamics": trajectory_match,
    "bn-chaos": bn_chaos,
    "bn-critical": bn_residual_critical,
    "bn-batch-saturation": bn_batch_saturation,
    "resmlp": resmlp_closed_form,
    "estimator": estimator_unbiasedness,
    "factorization": factorization,
    "chi-delta": chi_delta_relu,
    "kernel-fixed-point": kernel_fixed_point_suite,
    "eta-scaling": eta_scaling,
    "jkl-equivalence": jkl_equivalence,
    "gradient-check": gradient_check,
    "quadrature": quadrature,
    "bn-limit": bn_limit_formula,
}


def run_suites(names, seed: int = 0) -> list[VerifyResult]:
    results = []
    for name in names:
        fn = SUITES.get(name)
        if fn is None:
            raise ValueError(f"unknown verify suite {name!r}; known: {sorted(SUITES)}")
        results.append(fn(seed))
    return results
