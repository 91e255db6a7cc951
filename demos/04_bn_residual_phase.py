#!/usr/bin/env python3
"""Batch normalization flattens the phase diagram - in two opposite ways.

A depth-30 residual stack that normalizes the carried signal before each
branch has a one-block Jacobian norm that no longer depends on the weight
or bias gains at all. Without skips the network is chaotic everywhere
(norm pi/(pi-1) ~ 1.467); with unit skips it is critical everywhere
(norm -> 1 like 1/depth). This script measures both and compares with the
infinite-batch limit formula.

Run:  python3 demos/04_bn_residual_phase.py   (about two minutes)
"""

import numpy as np

from crittuner import (
    AuxScalars,
    RngStream,
    bn_apjn_limit,
    bn_chaos_value,
    bn_kernel_at_depth,
    estimate_segment,
    gaussian_batch,
    init_params,
    run_network,
)
from crittuner.presets import prebn_residual_mlp

WIDTH, DEPTH, BATCH, PROBES, SEEDS = 500, 30, 256, 16, 5
GRID = ((0.5, 0.0), (1.75, 1.0), (3.0, 2.0))


def measure(sigma_w, sigma_b, mu):
    vals = []
    for s in range(SEEDS):
        spec = prebn_residual_mlp(DEPTH + 1, WIDTH, sigma_w, sigma_b, mu)
        rng = RngStream(100 + s)
        x = gaussian_batch(spec.input_shape, BATCH, rng.child(1))
        params = init_params(spec, rng.child(2))
        state = run_network(spec, params, AuxScalars.ones(spec), x)
        v, _ = estimate_segment(state, DEPTH, DEPTH + 1, PROBES, rng.child(3))
        vals.append(v)
    return float(np.mean(vals))


print(f"no skips (mu = 0): chaos value pi/(pi-1) = {bn_chaos_value():.5f}")
for sw, sb in GRID:
    j = measure(sw, sb, 0.0)
    print(f"  sigma_w={sw:4.2f} sigma_b={sb:4.2f}: measured {j:.4f}")

print("\nunit skips (mu = 1): critical everywhere, excess ~ 1/depth")
for sw, sb in GRID:
    j = measure(sw, sb, 1.0)
    limit = bn_apjn_limit(bn_kernel_at_depth(sw, sb, 1.0, depth=DEPTH))
    print(f"  sigma_w={sw:4.2f} sigma_b={sb:4.2f}: measured {j:.4f}, "
          f"limit formula {limit:.4f}")
