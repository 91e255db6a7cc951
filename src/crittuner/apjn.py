"""Average partial Jacobian norms between measurement boundaries.

The observable is the squared Frobenius norm of the Jacobian of one
flattened boundary activation with respect to an earlier one, normalized by
batch size and output width. ``exact_apjn`` accumulates it from basis
tangents (forward columns or reverse rows, whichever side is narrower);
a forward basis that enters through a dense block starts from its weight
rows, which are that block's image of the identity bit for bit.
``estimate_apjn`` is the unbiased Monte-Carlo version driven by Gaussian
probe vectors, one JVP/VJP sweep per probe. ``scalar_gradient`` is the
exact gradient of either, with its probes, in the twin network's scalars.

Networks without batch normalization have batch-block-diagonal Jacobians,
so both paths collapse the batch index and a single broadcast basis covers
every sample at once. With batch normalization the full cross-sample
structure is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from .blocks import (
    OPS,
    AuxScalars,
    ForwardState,
    NetworkSpec,
    ParamSet,
    init_params,
    jvp_segment,
    pullback_segment,
    run_network,
    segment_inputs,
    vjp_segment,
)
from .tensor import Array, RngStream

DEFAULT_MAX_ENTRIES = int(2e8)
_CHUNK = 128


class ResourceBudgetError(RuntimeError):
    """Exact Jacobian would exceed the configured entry budget."""


@dataclass
class ApjnPair:
    l0: int
    l: int
    value: float
    stderr: float | None
    method: str               # "exact" | "estimated"
    n_v: int | None
    batch_size: int
    n_param_samples: int


@dataclass
class ApjnReport:
    pairs: list

    CSV_HEADER = "l0,l,value,stderr,method,N_v,batch,samples"

    def csv_rows(self) -> list[str]:
        rows = [self.CSV_HEADER]
        for p in self.pairs:
            stderr = "" if p.stderr is None else f"{p.stderr:.10g}"
            n_v = "" if p.n_v is None else str(p.n_v)
            rows.append(f"{p.l0},{p.l},{p.value:.12g},{stderr},{p.method},{n_v},"
                        f"{p.batch_size},{p.n_param_samples}")
        return rows

    def values(self) -> np.ndarray:
        return np.array([p.value for p in self.pairs])


def _unit_rows(n: int, idx: Array) -> Array:
    """Rows ``idx`` of the ``n``-by-``n`` identity."""
    rows = np.zeros((idx.size, n))
    rows[np.arange(idx.size), idx] = 1.0
    return rows


def _row_stacks(rows: Callable[[Array], Array], n: int, bsz: int,
                per_sample: bool) -> Iterator[Array]:
    """C-contiguous stacks [S, B, d] of at most _CHUNK tangents, one per row
    of an [n, d] array whose rows ``idx`` are ``rows(idx)``: each row
    broadcast across the batch, or, when the segment couples the batch,
    placed at one sample with zeros elsewhere (sample-major order)."""
    total = bsz * n if per_sample else n
    for c0 in range(0, total, _CHUNK):
        idx = np.arange(c0, min(c0 + _CHUNK, total))
        chunk = rows(idx % n)
        if per_sample:
            t = np.zeros((idx.size, bsz, chunk.shape[1]))
            t[np.arange(idx.size), idx // n] = chunk
            yield t
        else:
            yield np.broadcast_to(chunk[:, None, :], (idx.size, bsz, chunk.shape[1])).copy()


def _basis(state: ForwardState, l0: int, l1: int,
           through_first: bool = False) -> tuple[bool, int, Iterator[Array]]:
    """Identity basis of the narrower side of the (l0, l1) segment, as
    tangent stacks: the sweep direction (True: forward), how many of the
    segment's blocks the stacks have already passed, and the stacks.

    With ``through_first``, a forward basis whose first block has
    ``basis_rows`` is built from those rows and enters after that block.
    """
    spec = state.spec
    d0, d1 = spec.boundary_dim(l0), spec.boundary_dim(l1)
    forward = d0 <= d1
    n = d0 if forward else d1
    rows, start = partial(_unit_rows, n), 0
    if forward and through_first:
        i = spec.segment(l0, l1)[0]
        blk = spec.blocks[i]
        image = OPS[blk.kind].basis_rows(blk, state.caches[i], n)
        if image is not None:
            rows, start = image.__getitem__, 1
    stacks = _row_stacks(rows, n, state.batch_size, spec.segment_has_batchnorm(l0, l1))
    return forward, start, stacks


def _probes(state: ForwardState, l0: int, l1: int, n_v: int, rng: RngStream | None,
            probe_mode: str) -> tuple[bool, Iterable[Iterable[Array]]]:
    """Sweep direction (True: forward) and, per probe, its tangent stacks.

    ``n_v = 0`` gives one probe, the basis of the narrower side. Otherwise
    each of the ``n_v`` probes is a fresh draw from ``rng``, taken lazily in
    probe order: "output" probes are a Gaussian row on the upper boundary,
    "input" probes a Gaussian tangent on the lower one.
    """
    if n_v == 0:
        forward, _, stacks = _basis(state, l0, l1)
        return forward, [stacks]
    spec = state.spec
    d0, d1 = spec.boundary_dim(l0), spec.boundary_dim(l1)
    bsz = state.batch_size
    coupled = spec.segment_has_batchnorm(l0, l1)
    mode = probe_mode
    if mode == "auto":
        mode = "input" if coupled else "output"
    if mode == "output":
        return False, (_row_stacks(rng.normal(d1)[None].__getitem__, 1, bsz, coupled)
                       for _ in range(n_v))
    if mode == "input":
        return True, ([rng.normal((1, bsz, d0))] for _ in range(n_v))
    raise ValueError(f"unknown probe mode {probe_mode!r}")


def _sweep_ssq(state: ForwardState, l0: int, l1: int, stacks: Iterable[Array],
               forward: bool, start: int = 0) -> float:
    """Total sum of squares of the ``[S, B, ...]`` stacks pushed forward to
    boundary l1 from block ``start`` of the segment (``forward``), or
    pulled back from l1 to l0."""
    ssq = 0.0
    for t in stacks:
        if forward:
            out = jvp_segment(state, l0, l1, t, start=start)
        else:
            out = vjp_segment(state, l0, l1, t)
        ssq += float(np.sum(out * out))
    return ssq


def exact_apjn(spec: NetworkSpec, params: ParamSet, aux: AuxScalars, batch: Array,
               l0: int, l: int, *, max_entries: int = DEFAULT_MAX_ENTRIES,
               state: ForwardState | None = None) -> float:
    """Exact boundary-to-boundary squared Jacobian norm for one parameter draw.

    Averages over the batch and normalizes by the output width; expectation
    over parameter draws is up to the caller (see ``apjn_profile``).
    """
    if state is None:
        state = run_network(spec, params, aux, batch)
    d0, d1 = spec.boundary_dim(l0), spec.boundary_dim(l)
    bsz = state.batch_size
    coupled = spec.segment_has_batchnorm(l0, l)
    b_eff = bsz if coupled else 1
    entries = d0 * d1 * b_eff * b_eff
    if entries > max_entries:
        raise ResourceBudgetError(
            f"exact Jacobian needs {entries:.3g} entries (budget {max_entries:.3g}); "
            f"use estimate_apjn instead")
    forward, start, basis = _basis(state, l0, l, through_first=True)
    return _sweep_ssq(state, l0, l, basis, forward, start) / (bsz * d1)


def estimate_segment(state: ForwardState, l0: int, l1: int, n_v: int, rng: RngStream,
                     *, probe_mode: str = "auto") -> tuple[float, float, np.ndarray]:
    """Probe-vector estimate of the (l0, l1) norm; returns (value, stderr, terms).

    "output" probes contract a fresh unit Gaussian vector with the upper
    boundary and pull it back; "input" probes push a Gaussian tangent
    forward instead, which costs one sweep per probe even across batch
    normalization. "auto" picks "output" for batch-decoupled segments and
    "input" otherwise.
    """
    if n_v < 1:
        raise ValueError(f"need at least one probe vector, got {n_v}")
    forward, probes = _probes(state, l0, l1, n_v, rng, probe_mode)
    norm = state.batch_size * state.spec.boundary_dim(l1)
    terms = np.array([_sweep_ssq(state, l0, l1, stacks, forward) for stacks in probes]) / norm
    value = float(terms.mean())
    stderr = float(terms.std(ddof=1) / np.sqrt(n_v)) if n_v > 1 else float("nan")
    return value, stderr, terms


def estimate_apjn(spec: NetworkSpec, params: ParamSet, aux: AuxScalars, batch: Array,
                  l: int, n_v: int, rng: RngStream, *, l1: int | None = None,
                  probe_mode: str = "auto",
                  state: ForwardState | None = None) -> tuple[float, float]:
    """Unbiased probe estimate of the (l, l+1) norm with its standard error."""
    if state is None:
        state = run_network(spec, params, aux, batch)
    value, stderr, _ = estimate_segment(state, l, l + 1 if l1 is None else l1,
                                        n_v, rng, probe_mode=probe_mode)
    return value, stderr


def _ssq_gradient(state: ForwardState, l0: int, l1: int, stacks: Iterable[Array],
                  forward: bool, weight: float, inputs: list, extra: list,
                  grads: dict) -> None:
    """Add ``weight`` times the scalar gradient of what :func:`_sweep_ssq`
    returns for the same stacks: direct partials into ``grads`` and
    cotangents on the segment's block inputs into ``extra``.

    With ``t`` the tangent entering the segment and ``u`` the cotangent
    leaving it, the change of ``|J t|^2`` (``t`` the stack, ``u = J t``)
    or of ``|J^T u|^2`` (``u`` the stack, ``t = J^T u``) is ``2 <u, dJ t>``,
    a sum of one term per block. The probe sweep runs taped; the reverse
    sweep starts from its result, meets each block with the tangent or
    cotangent the tape holds for the other side, and drops tape entries
    as it goes.
    """
    spec = state.spec
    seg = spec.segment(l0, l1)
    ops = [OPS[spec.blocks[i].kind] for i in seg]

    def collect(k, u, t, jt):
        # block k, with output cotangent u, input tangent t and jt = J_k t
        i = seg[k]
        blk = spec.blocks[i]
        for group, value in ops[k].djvp(blk, partial(state.aux.get, i), u, jt).items():
            if (i, group) in grads:
                grads[(i, group)] += 2.0 * weight * value
        c = ops[k].djvp_input(blk, state.caches[i], inputs[k], u, t)
        if c is not None:
            c *= 2.0 * weight
            extra[k] = c if extra[k] is None else extra[k] + c

    for stack in stacks:
        tape: list[Array] = []
        skip: list[Array] = []
        if forward:
            jvp_segment(state, l0, l1, stack, tape=tape)
            u = tape[-1]
            for k in reversed(range(len(seg))):
                collect(k, u, tape[k], tape.pop())
                if k:  # the cotangent below the first block is not needed
                    u = ops[k].vjp(spec.blocks[seg[k]], state.caches[seg[k]], u, skip)
        else:
            vjp_segment(state, l0, l1, stack, tape=tape)
            t = tape[0]
            for k in range(len(seg)):
                jt = ops[k].jvp(spec.blocks[seg[k]], state.caches[seg[k]], t, skip)
                collect(k, tape[k + 1], t, jt)
                tape[k] = None
                t = jt


def scalar_gradient(state: ForwardState, pairs: dict, kernels: dict, n_v: int, *,
                    probe_mode: str = "auto") -> dict:
    """Exact gradient of ``sum_l w_l J_l + sum_b v_b K_b`` with respect to
    every scalar in ``state.aux``.

    ``pairs`` maps ``l`` to ``(w_l, rng_l)``, where ``J_l`` is the
    ``(l, l+1)`` norm as :func:`exact_apjn` (``n_v = 0``) or
    :func:`estimate_segment` with a fresh copy of the stream ``rng_l``
    measures it on ``state``: the gradient is that of the same estimator,
    with the same probes. ``kernels`` maps a boundary ``b`` to ``v_b``, the
    weight of its kernel ``K_b``, the mean square of its activation
    (:func:`crittuner.losses.kernel_profile`).

    Segments are handled top-down, one at a time, holding only that
    segment's block inputs and tapes: each probe sweep of its pair is taped
    and reversed (:func:`_ssq_gradient`), then one pullback through the
    forward map collects the scalar partials and carries the cotangent to
    the boundary below.
    """
    spec = state.spec
    grads = {key: 0.0 for key in state.aux.keys()}
    top = spec.n_boundaries - 1
    g = np.zeros_like(state.boundary(top))
    for b in range(top, 0, -1):
        if b in kernels:
            h = state.boundary(b)
            g = g + (2.0 * kernels[b] / h.size) * h
        inputs = segment_inputs(state, b - 1, b)
        extra: list = [None] * len(inputs)
        if b - 1 in pairs:
            weight, rng = pairs[b - 1]
            forward, probes = _probes(state, b - 1, b, n_v, rng, probe_mode)
            w = weight / (max(n_v, 1) * state.batch_size * spec.boundary_dim(b))
            for stacks in probes:
                _ssq_gradient(state, b - 1, b, stacks, forward, w, inputs, extra, grads)
        g = pullback_segment(state, b - 1, b, g, inputs, extra, grads)
    return grads


def profile_pairs(spec: NetworkSpec, k: int) -> list[tuple[int, int]]:
    """Non-overlapping (l, l+k) pairs covering all boundaries 0..L+1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    top = spec.n_boundaries - 1
    pairs = []
    l = 0
    while l < top:
        pairs.append((l, min(l + k, top)))
        l += k
    return pairs


def apjn_profile(spec: NetworkSpec, params: ParamSet, aux: AuxScalars, batch: Array,
                 k: int = 1, *, method: str = "auto", n_v: int = 16,
                 n_param_samples: int = 1, rng: RngStream | None = None,
                 probe_mode: str = "auto",
                 max_entries: int = DEFAULT_MAX_ENTRIES) -> ApjnReport:
    """Per-pair norms over the skip-k cover of the network.

    ``n_param_samples > 1`` re-initializes the parameters per sample (the
    supplied ``params`` is sample zero) and averages; ``method`` is "exact",
    "estimate", or "auto" (exact when the budget allows).
    """
    if method not in ("auto", "exact", "estimate"):
        raise ValueError(f"unknown method {method!r}")
    if rng is None:
        if n_param_samples > 1 or method != "exact":
            raise ValueError("rng required for estimation or parameter resampling")
        rng = RngStream(0)
    pairs = profile_pairs(spec, k)
    bsz = np.asarray(batch).shape[0]
    per_pair_vals: dict[tuple[int, int], list[float]] = {p: [] for p in pairs}
    per_pair_err: dict[tuple[int, int], list[float]] = {p: [] for p in pairs}
    methods: dict[tuple[int, int], str] = {}
    for s in range(n_param_samples):
        ps = params if s == 0 else init_params(spec, rng.child(10_000 + s))
        state = run_network(spec, ps, aux, batch)
        for (l0, l1) in pairs:
            m = method
            if m == "auto":
                coupled = spec.segment_has_batchnorm(l0, l1)
                b_eff = bsz if coupled else 1
                within = spec.boundary_dim(l0) * spec.boundary_dim(l1) * b_eff * b_eff <= max_entries
                m = "exact" if within else "estimate"
            if m == "exact":
                val = exact_apjn(spec, ps, aux, batch, l0, l1,
                                 max_entries=max_entries, state=state)
                err = float("nan")
            else:
                val, err, _ = estimate_segment(state, l0, l1, n_v,
                                               rng.child(20_000 + s * 1000 + l0),
                                               probe_mode=probe_mode)
            per_pair_vals[(l0, l1)].append(val)
            per_pair_err[(l0, l1)].append(err)
            methods[(l0, l1)] = m
    out = []
    for (l0, l1) in pairs:
        vals = np.array(per_pair_vals[(l0, l1)])
        m = methods[(l0, l1)]
        value = float(vals.mean())
        if m == "exact":
            stderr, n_v_used = None, None
        else:
            n_v_used = n_v
            if n_param_samples > 1:
                stderr = float(vals.std(ddof=1) / np.sqrt(len(vals)))
            else:
                stderr = per_pair_err[(l0, l1)][0]
        out.append(ApjnPair(l0, l1, value, stderr, "estimated" if m == "estimate" else "exact",
                            n_v_used, bsz, n_param_samples))
    return ApjnReport(out)


def factorization_residual(spec: NetworkSpec, params: ParamSet, aux: AuxScalars,
                           batch: Array, l: int, *,
                           max_entries: int = DEFAULT_MAX_ENTRIES,
                           state: ForwardState | None = None) -> float:
    """Relative gap between the two-step norm and the product of one-step norms."""
    if state is None:
        state = run_network(spec, params, aux, batch)
    j02 = exact_apjn(spec, params, aux, batch, l, l + 2, max_entries=max_entries, state=state)
    j01 = exact_apjn(spec, params, aux, batch, l, l + 1, max_entries=max_entries, state=state)
    j12 = exact_apjn(spec, params, aux, batch, l + 1, l + 2, max_entries=max_entries, state=state)
    return abs(j02 - j01 * j12) / j02
