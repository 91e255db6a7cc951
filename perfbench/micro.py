"""Per-block-kind timings and a plain matmul rate, at fixed reference shapes.

Each kind is timed on a one-block network (two blocks for the residual
pair) at the per-sample shape, batch size and tangent stack it has in the
workload that exercises it most; ``avgpool`` runs in no workload and uses
the shape a patch-mixing head would give it. Times are medians of repeated
calls of ``run_network``, ``jvp_segment`` and ``vjp_segment``.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

SQRT2 = math.sqrt(2.0)

# kind -> (blocks factory, per-sample input shape, batch, tangent rows, source)
REFERENCE = {
    "dense": (lambda b: [b.dense(500, 2.0)], (500,), 16, 1, "tune-mlp-analytic"),
    "dense_mix": (lambda b: [b.dense(16, SQRT2, axis=1)], (16, 8), 32, 1, "tune-resmlp"),
    "conv2d": (lambda b: [b.conv2d(8, 3, 1.5, padding=1)], (8, 8, 8), 128, 1, "tune-conv-bn"),
    "batchnorm": (lambda b: [b.batchnorm()], (8, 8, 8), 128, 1, "tune-conv-bn"),
    "relu": (lambda b: [b.activation("relu")], (500,), 16, 1, "tune-mlp-analytic"),
    "gelu": (lambda b: [b.activation("gelu")], (16, 32), 32, 1, "tune-resmlp"),
    "affine": (lambda b: [b.affine_norm()], (8, 8, 8), 128, 1, "tune-conv-bn"),
    "layerscale": (lambda b: [b.layer_scale(1.0)], (16, 8), 32, 1, "tune-resmlp"),
    "residual": (lambda b: [b.residual_open(), b.residual_close(1.0)], (16, 8), 32, 1,
                 "tune-resmlp"),
    "patchembed": (lambda b: [b.patch_embed(2, 8, SQRT2)], (3, 8, 8), 32, 1, "tune-resmlp"),
    "avgpool": (lambda b: [b.avg_pool()], (16, 8), 32, 1, "none"),
}

MIN_SAMPLE_S = 0.003
SAMPLES = 7
MATMUL_N = 512


def median_call_s(fn) -> float:
    """Median seconds per call over SAMPLES batches of at least MIN_SAMPLE_S."""
    fn()
    calls = 1
    while True:
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        if perf_counter() - t0 >= MIN_SAMPLE_S:
            break
        calls *= 2
    samples = []
    for _ in range(SAMPLES):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        samples.append((perf_counter() - t0) / calls)
    return statistics.median(samples)


def block_timings(ct, seed: int) -> tuple[dict, dict]:
    """``blocks.<kind>.{fwd,jvp,vjp}_ms`` metrics and the shapes they used."""
    b = ct.blocks
    rng = ct.RngStream(seed, 7)
    metrics, shapes = {}, {}
    for kind, (make, in_shape, bsz, rows, source) in REFERENCE.items():
        spec = b.NetworkSpec(tuple(make(b)), in_shape)
        params = b.init_params(spec, rng.child(1))
        aux = b.AuxScalars.ones(spec, "all")
        x = rng.normal((bsz, *in_shape))
        state = b.run_network(spec, params, aux, x)
        top = spec.n_boundaries - 1
        t = rng.normal((rows, bsz, spec.boundary_dim(0)))
        g = rng.normal((rows, bsz, spec.boundary_dim(top)))
        metrics[f"blocks.{kind}.fwd_ms"] = 1e3 * median_call_s(
            lambda: b.run_network(spec, params, aux, x))
        metrics[f"blocks.{kind}.jvp_ms"] = 1e3 * median_call_s(
            lambda: b.jvp_segment(state, 0, top, t))
        metrics[f"blocks.{kind}.vjp_ms"] = 1e3 * median_call_s(
            lambda: b.vjp_segment(state, 0, top, g))
        shapes[kind] = {"input": list(in_shape), "output": list(spec.boundary_shape(top)),
                        "batch": bsz, "tangent_rows": rows, "from": source}
    return metrics, shapes


def peak_gflop_s(seed: int) -> float:
    """Rate of a plain float64 square matmul in this process, for scale."""
    a = np.random.default_rng(seed).standard_normal((MATMUL_N, MATMUL_N))
    return 2 * MATMUL_N ** 3 / median_call_s(lambda: a @ a) / 1e9
