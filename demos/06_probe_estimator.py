#!/usr/bin/env python3
"""The probe estimator: unbiased Jacobian norms from a few sweeps.

Assembling a boundary-to-boundary Jacobian costs one sweep per basis
vector; contracting it with random Gaussian probes instead costs one sweep
per probe and is unbiased. This script shows the estimate converging to
the exactly assembled value as 1/sqrt(N_v), on a width-64 stack.

Run:  python3 demos/06_probe_estimator.py
"""

import numpy as np

from crittuner import AuxScalars, RngStream, gaussian_batch, init_params, run_network
from crittuner.apjn import estimate_segment, exact_apjn
from crittuner.presets import relu_mlp

spec = relu_mlp(4, 64, np.sqrt(2.0), 0.3)
rng = RngStream(2)
x = gaussian_batch(spec.input_shape, 8, rng.child(1))
params = init_params(spec, rng.child(2))
aux = AuxScalars.ones(spec)
state = run_network(spec, params, aux, x)

exact = exact_apjn(state, 1, 2)
print(f"exact J(1,2) = {exact:.6f}\n")
print(f"{'N_v':>6} {'estimate':>10} {'stderr':>9} {'|error|/stderr':>15}")
for n_v in (4, 16, 64, 256, 1024):
    val, err = estimate_segment(state, 1, 2, n_v, rng.child(n_v))
    print(f"{n_v:6d} {val:10.6f} {err:9.6f} {abs(val - exact) / err:15.2f}")
