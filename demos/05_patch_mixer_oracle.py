#!/usr/bin/env python3
"""Why patch-mixing residual networks need small branch scales.

The block norm of the patch-mixing architecture has a closed form
(mu^2 + E^2 sw^2)(mu^2 + E^2 sw^4 H[K]): with unit skips it always exceeds
1, but shrinking the branch scale E pulls it arbitrarily close. This
script measures block norms of a toy network (16 patches, width 64) and
compares them with the closed form, then shows the E-dependence.

Run:  python3 demos/05_patch_mixer_oracle.py   (about a minute)
"""

import numpy as np

from crittuner import (
    AuxScalars,
    RngStream,
    exact_apjn,
    gaussian_batch,
    init_params,
    resmlp_apjn,
    resmlp_kernel_step,
    run_network,
)
from crittuner.presets import resmlp_toy

DIM, BLOCKS, BATCH, SAMPLES = 64, 3, 2, 12

print(f"{'act':>5} {'mu':>4} {'E':>5} {'sigma_w':>8} {'measured':>9} {'closed':>9} {'dev':>7}")
for act in ("gelu", "relu"):
    for mu, eps, sw in ((1.0, 0.1, 1.0), (1.0, 1.0, 2.0), (0.0, 1.0, 1.0)):
        spec = resmlp_toy(BLOCKS, DIM, sw, mu=mu, eps_ls=eps, act=act)
        rng = RngStream(11)
        x = gaussian_batch(spec.input_shape, BATCH, rng.child(1))
        js, k0s = [], []
        for s in range(SAMPLES):
            params = init_params(spec, rng.child(100 + s))
            state = run_network(spec, params, AuxScalars.ones(spec), x)
            js.append(exact_apjn(state, BLOCKS, BLOCKS + 1))
            k0s.append(float((state.boundary(1) ** 2).mean()))
        k = float(np.mean(k0s))
        for _ in range(BLOCKS - 1):
            k = resmlp_kernel_step(k, sw, 0.0, mu, eps, act)
        pred = resmlp_apjn(k, sw, 0.0, mu, eps, act)
        meas = float(np.mean(js))
        print(f"{act:>5} {mu:4.1f} {eps:5.2f} {sw:8.2f} {meas:9.4f} {pred:9.4f} "
              f"{abs(meas / pred - 1):7.2%}")

print("\nblock norm vs branch scale at mu = 1, sigma_w = 1 (GELU, kernel 1):")
for eps in (1.0, 0.5, 0.2, 0.1, 0.02):
    print(f"  E = {eps:5.2f}: J = {resmlp_apjn(1.0, 1.0, 0.0, 1.0, eps, 'gelu'):.5f}")
