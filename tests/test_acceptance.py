"""End-to-end acceptance: every numbered check at its stated tolerance.

Each test drives one oracle-equivalence suite at its reference settings and
prints a PASS/FAIL line, so ``pytest -s tests/test_acceptance.py`` doubles
as a readable report. The same suites back ``crit-tuner verify``.

Run times are dominated by the width-500 networks; the full module takes a
few minutes on a desktop CPU. The nine checks that take more than ten
seconds each are marked ``slow``, so ``pytest -m "not slow"`` skips them.
"""

import math

import numpy as np
import pytest

from crittuner import verify


def _run(fn, *args, **kwargs):
    result = fn(*args, **kwargs)
    print(result.line())
    assert result.ok, result.detail
    return result


# 1. one-block norms of a plain ReLU stack sit at sigma_w^2 / 2 (width 500,
#    depth 10, sigma_w in {1, sqrt 2, 2}, 5% tolerance)
@pytest.mark.slow
def test_01_criticality_line():
    _run(verify.criticality_line, 0, width=500, depth=10, batch=4, samples=20,
         sigmas=(1.0, math.sqrt(2.0), 2.0), tol=0.05)


# 2. one-shot tuning with the per-layer rate lands every norm in [0.95, 1.05]
#    for both the log and square losses (sigma_w = 2, width 500, depth 10)
@pytest.mark.slow
def test_02_one_step_tuning():
    _run(verify.one_step_tuning, 0, width=500, depth=10, sigma_w=2.0, batch=32,
         band=(0.95, 1.05))


# 3. 980-step scans across the rate/gain plane: empirical convergence into
#    0.8 < J < 1.25 matches the exact-map prediction on all 12 points, with
#    rates straddling the t=0 estimate
@pytest.mark.slow
def test_03_convergence_band():
    _run(verify.convergence_band, 0, width=500, depth=10, batch=4, steps=980,
         sigmas=(1.8, 2.6, 3.4))


# 4. tuned norms track the iterated exact map within 2% at every one of 50
#    steps (width 500)
@pytest.mark.slow
def test_04_trajectory_match():
    _run(verify.trajectory_match, 0, width=500, steps=50, tol=0.02)


# 5. normalized residual stack without skips: layer-30 norm within 5% of
#    pi/(pi-1) across six (sigma_w, sigma_b) grid points, 20 seeds,
#    width 500, batch 256
@pytest.mark.slow
def test_05_bn_chaos_value():
    _run(verify.bn_chaos, 0, depth=30, width=500, batch=256, n_v=16, seeds=20,
         tol=0.05)


# 6. same stack with unit skips: layer-30 norm within 0.05 of 1
@pytest.mark.slow
def test_06_bn_residual_criticality():
    _run(verify.bn_residual_critical, 0, depth=30, width=500, batch=256, n_v=16,
         seeds=20, tol=0.05)


# 7. batch-size saturation: |J(128) - J(256)| / J(256) below 1%
@pytest.mark.slow
def test_07_bn_batch_saturation():
    _run(verify.bn_batch_saturation, 0, depth=30, width=500, n_v=16, seeds=10,
         tol=0.01)


# 8. patch-mixing residual network: measured block norms within 10% of the
#    closed forms over the (mu, branch scale, sigma_w) grid, both activations
@pytest.mark.slow
def test_08_resmlp_closed_form():
    _run(verify.resmlp_closed_form, 0, dim=64, n_blocks=3, batch=2, samples=20,
         tol=0.10)


# 9. probe estimator: mean within 3 standard errors of the exact norm at
#    N_v = 1000 on a width-64 stack; standard error halves (within 20%)
#    when the probe count quadruples
def test_09_estimator_unbiasedness():
    _run(verify.estimator_unbiasedness, 0, width=64, depth=4, batch=8, n_v=1000)


# 10. two-boundary factorization: median relative residual at width 1000
#     below 5% and decreasing over widths {100, 300, 1000}
@pytest.mark.slow
def test_10_factorization():
    _run(verify.factorization, 0, widths=(100, 300, 1000), depth=3, batch=4,
         seeds=20, tol=0.05)


# 11. the cross-layer susceptibility vanishes for ReLU: exact zero on the
#     analytic path, below 1e-2 by 1e6-sample Monte Carlo
def test_11_chi_delta_relu():
    _run(verify.chi_delta_relu, 0, n_samples=1_000_000, tol=1e-2)


# 12. ordered-phase kernel iteration reaches its fixed point 2.0 within
#     1e-6 in at most 200 steps (sigma_w = 1, sigma_b = 1)
def test_12_kernel_fixed_point():
    _run(verify.kernel_fixed_point_suite, 0, tol=1e-6)


# 13. t=0 rate scaling: square loss like sigma_w^-4, log loss like
#     1/log sigma_w, ratio tests at sigma_w in {4, 8, 64} within 20%
def test_13_eta_scaling():
    _run(verify.eta_scaling, 0, tol=0.2)


# 14. for zero-bias ReLU profiles generated through the kernel map, the
#     kernel-augmented loss equals (1 + lambda) times the log loss to 1e-10
def test_14_jkl_equivalence():
    _run(verify.jkl_equivalence, 0, tol=1e-10)


# 15. the exact gradient of the log loss matches 2 log(J) / a
#     within 1e-3 relative
def test_15_gradient_check():
    _run(verify.gradient_check, 0, tol=1e-3)
