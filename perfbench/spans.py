"""Span recording around calls into crittuner's modules, and per-layer metrics.

The tracer replaces a function by a timing wrapper under the name its
caller looks it up by (``crittuner.tuner.run_network``, ``RngStream.normal``
and so on), so the library itself is never edited. Each wrapped call leaves
one span ``[name, start, end, parent, unit, note]`` in memory; ``parent`` is
the index of the enclosing span (or -1) and ``unit`` the unit of work (tuner
step or parameter draw) that was running. Spans are written out once, at
the end of the run.
"""

from __future__ import annotations

import functools
import json
import math
from time import perf_counter

# (module attribute path, span name): each module's own binding is wrapped,
# because callers resolve these names in their own module namespace
CALL_SITES = (
    ("tuner.tune", "tuner.tune"),
    ("tuner.grad_aux", "tuner.grad_aux"),
    ("tuner.run_network", "blocks.run_network"),
    ("tuner.estimate_segment", "apjn.estimate_segment"),
    ("tuner.exact_apjn", "apjn.exact_apjn"),
    ("tuner.kernel_profile", "losses.kernel_profile"),
    ("tuner.jll", "losses.loss"),
    ("tuner.jsl", "losses.loss"),
    ("tuner.jkl", "losses.loss"),
    ("apjn.apjn_profile", "apjn.apjn_profile"),
    ("apjn.exact_apjn", "apjn.exact_apjn"),
    ("apjn.estimate_segment", "apjn.estimate_segment"),
    ("apjn.run_network", "blocks.run_network"),
    ("apjn.jvp_segment", "blocks.jvp_segment"),
    ("apjn.vjp_segment", "blocks.vjp_segment"),
    ("apjn.init_params", "blocks.init_params"),
    ("blocks.init_params", "blocks.init_params"),
    ("data.make_batch", "data.make_batch"),
    ("tensor.RngStream.__init__", "tensor.RngStream.__init__"),
    ("tensor.RngStream.normal", "tensor.RngStream.normal"),
)

SWEEPS = ("blocks.jvp_segment", "blocks.vjp_segment")
WEIGHT_KINDS = ("dense", "conv2d", "patchembed")


def sweep_flops_per_row(spec, b0: int, b1: int) -> int:
    """Multiply-add flops of the weight blocks between two boundaries for one
    tangent row of one sample; JVP and VJP cost the same. Computed from
    block shapes, not counted by hardware."""
    flops = 0
    for i in spec.segment(b0, b1):
        blk = spec.blocks[i]
        if blk.kind not in WEIGHT_KINDS:
            continue
        per_out = blk.fan_in * (blk.kernel * blk.kernel if blk.kind == "conv2d" else 1)
        flops += 2 * per_out * math.prod(spec.shapes[i + 1])
    return flops


class Tracer:
    """Wraps the call sites while installed, and records their spans."""

    def __init__(self, ct):
        self.spans: list = []
        self.unit = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._flops_cache: dict = {}
        self._sites: list = []  # (owner, attr, original, wrapper)
        for path, name in CALL_SITES:
            *owner_path, attr = path.split(".")
            owner = ct
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(path)
                continue
            note = self._sweep_note if name in SWEEPS else (
                _draw_note if name == "tensor.RngStream.normal" else None)
            orig = vars(owner)[attr]
            self._sites.append((owner, attr, orig, self._wrapper(orig, name, note)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, orig, _ in self._sites:
            setattr(owner, attr, orig)

    def _wrapper(self, orig, name, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            i = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit, None]
            spans.append(span)
            stack.append(i)
            span[1] = perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, out)
            return out

        return wrapper

    def _sweep_note(self, args, out):
        # (state, b0, b1, tangent): stacked rows S, tangent bytes, flops
        state, b0, b1, tangent = args[:4]
        key = (id(state.spec), b0, b1)
        per_row = self._flops_cache.get(key)
        if per_row is None:
            per_row = self._flops_cache[key] = sweep_flops_per_row(state.spec, b0, b1)
        rows, bsz = tangent.shape[0], tangent.shape[1]
        return rows, tangent.size * 8, per_row * rows * bsz

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, unit, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "unit": unit}) + "\n")


def _draw_note(args, out):
    return out.size


def layer_metrics(spans: list, units: set) -> dict:
    """Per-layer numbers from the spans of the timed units.

    Self time is a span's duration minus the durations of its direct
    children. Counts and times are per unit, except where the name says
    otherwise: set-up calls (``make_batch``, ``init_params``) are averaged
    per call, ``rows_per_sweep`` per sweep and ``sweep_mb_max`` is a maximum.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    self_t = dur[:]
    root = list(range(n))
    for i, s in enumerate(spans):
        if s[3] >= 0:
            self_t[s[3]] -= dur[i]
            root[i] = root[s[3]]
    in_unit = [s[4] in units for s in spans]
    under_tuner = [spans[root[i]][0] == "tuner.tune" for i in range(n)]
    n_units = max(len(units), 1)

    def pick(name, tuner_only=False):
        names = (name,) if isinstance(name, str) else name
        return [i for i in range(n) if in_unit[i] and spans[i][0] in names
                and (under_tuner[i] or not tuner_only)]

    def per_unit(idx, values):
        return sum(values[i] for i in idx) / n_units

    def per_call(name, values):
        idx = [i for i in range(n) if spans[i][0] == name]
        return sum(values[i] for i in idx) / len(idx) if idx else 0.0

    sweeps = pick(SWEEPS)
    normals = pick("tensor.RngStream.normal")
    sweep_time = sum(dur[i] for i in sweeps)
    flops = sum(spans[i][5][2] for i in sweeps)
    m = {
        "tuner.measures_per_step": len(pick("blocks.run_network", True)) / n_units,
        "tuner.grad_s_per_step": per_unit(pick("tuner.grad_aux"), dur),
        "tuner.sweeps_per_step": len(pick(SWEEPS, True)) / n_units,
        "apjn.estimate_segment.calls": len(pick("apjn.estimate_segment")) / n_units,
        "apjn.estimate_segment.self_s": per_unit(pick("apjn.estimate_segment"), self_t),
        "apjn.exact_apjn.self_s": per_unit(pick("apjn.exact_apjn"), self_t),
        "apjn.apjn_profile.self_s": per_unit(pick("apjn.apjn_profile"), self_t),
        "apjn.rows_per_sweep": (sum(spans[i][5][0] for i in sweeps) / len(sweeps)
                                if sweeps else 0.0),
    }
    for name in ("blocks.run_network", "blocks.jvp_segment", "blocks.vjp_segment"):
        idx = pick(name)
        m[f"{name}.calls"] = len(idx) / n_units
        m[f"{name}.self_s"] = per_unit(idx, self_t)
    m.update({
        "blocks.init_params.self_s": per_call("blocks.init_params", self_t),
        "blocks.sweep_mb_max": max((spans[i][5][1] / 1e6 for i in sweeps), default=0.0),
        "blocks.sweep_gflop_per_unit": flops / n_units / 1e9,
        "blocks.sweep_gflop_s": flops / 1e9 / sweep_time if sweep_time > 0 else 0.0,
        "tensor.rng.streams": len(pick("tensor.RngStream.__init__")) / n_units,
        "tensor.rng.draws": sum(spans[i][5] for i in normals) / n_units,
        "tensor.rng.normal_s": per_unit(normals, self_t),
        "losses.kernel_profile.self_s": per_unit(pick("losses.kernel_profile"), self_t),
        "losses.loss_s": per_unit(pick("losses.loss"), dur),
        "data.make_batch_s": per_call("data.make_batch", dur),
    })
    return m
