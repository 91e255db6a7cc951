"""Average partial Jacobian norms between measurement boundaries.

The observable is the squared Frobenius norm of the Jacobian of one
flattened boundary activation with respect to an earlier one, normalized by
batch size and output width, and read off the caller's
:class:`~crittuner.blocks.ForwardState`: only ``apjn_profile``, which draws
the parameters it averages over, runs forward passes (and reports the
boundary kernels of its first draw). ``exact_apjn`` accumulates it from
basis tangents (:func:`_basis`). A segment that is one weight block followed
only by diagonal blocks needs one row, read from the forward caches and
pushed forward; any other segment sweeps the identity of its narrower side
(forward columns or reverse rows); a forward basis that enters through a
dense block starts from its weight rows, which are that block's image of
the identity bit for bit. ``estimate_segment`` is the unbiased Monte-Carlo
version driven by Gaussian probe vectors, one sweep per probe: rows on the
upper boundary pulled back, or, where batch norm couples the segment,
tangents on the lower boundary pushed forward. ``measure_pairs`` measures
every adjacent pair either way and, when asked, gives the exact gradient
in the twin network's scalars from the same sweeps, taped and reversed at
once; otherwise it tapes nothing. A pair with a non-finite boundary
activation measures NaN, since a ReLU mask would read NaN as inactive.

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
from .losses import kernel_profile
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
    kernels: np.ndarray       # boundary kernels of parameter draw 0

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


def _basis(state: ForwardState, l0: int, l1: int) -> tuple[bool, int, Iterable[Array]]:
    """Basis of the (l0, l1) segment, as tangent stacks: the sweep direction
    (True: forward), how many of the segment's blocks the stacks have
    already passed, and the stacks.

    A segment that is one weight block followed only by diagonal ones gets
    a one-row basis: the square roots of the block's squared Jacobian row
    norms (``Op.row_sq``), broadcast over the batch, entering after that
    block. Its per-sample Jacobian is ``D L``, with ``D`` diagonal, so the
    row pushed forward has the squared norm ``sum_j D_j^2 r_j`` of the whole
    basis, and each taped partial, a per-coordinate sum over basis rows,
    the same value too. Any other segment gets the identity basis of its
    narrower side; a forward one whose first block has ``basis_rows`` is
    built from those rows and enters after that block.
    """
    spec = state.spec
    seg = spec.segment(l0, l1)
    blk = spec.blocks[seg[0]]
    if all(OPS[spec.blocks[i].kind].diagonal for i in seg[1:]):
        r = OPS[blk.kind].row_sq(blk, state.caches[seg[0]])
        if r is not None:
            return True, 1, [np.broadcast_to(np.sqrt(r), (1, state.batch_size,
                                                          *spec.shapes[seg[0] + 1]))]
    d0, d1 = spec.boundary_dim(l0), spec.boundary_dim(l1)
    forward = d0 <= d1
    n = d0 if forward else d1
    rows, start = partial(_unit_rows, n), 0
    if forward:
        image = OPS[blk.kind].basis_rows(blk, state.caches[seg[0]], n)
        if image is not None:
            rows, start = image.__getitem__, 1
    stacks = _row_stacks(rows, n, state.batch_size, spec.segment_has_batchnorm(l0, l1))
    return forward, start, stacks


def _probes(state: ForwardState, l0: int, l1: int, n_v: int,
            rng: RngStream | None) -> tuple[bool, int, Iterable[Iterable[Array]]]:
    """Sweep direction (True: forward), the block the sweeps enter at, and,
    per probe, its tangent stacks.

    ``n_v = 0`` gives one probe, the exact basis of the segment
    (:func:`_basis`): one row where the segment is one weight block followed
    by diagonal ones, the identity of the narrower side elsewhere. Otherwise
    each of the ``n_v`` probes is a fresh draw from ``rng``, taken lazily in
    probe order: a Gaussian tangent on the lower boundary, pushed forward,
    where batch norm couples the segment (one sweep per probe, where an
    upper-boundary row would need one per sample); elsewhere a Gaussian row
    on the upper boundary, pulled back.
    """
    if n_v == 0:
        forward, start, stacks = _basis(state, l0, l1)
        return forward, start, [stacks]
    spec = state.spec
    d0, d1 = spec.boundary_dim(l0), spec.boundary_dim(l1)
    bsz = state.batch_size
    if spec.segment_has_batchnorm(l0, l1):
        return True, 0, ([rng.normal((1, bsz, d0))] for _ in range(n_v))
    return False, 0, (_row_stacks(rng.normal(d1)[None].__getitem__, 1, bsz, False)
                      for _ in range(n_v))


def _reverse(state: ForwardState, l0: int, l1: int, tape: list, forward: bool,
             record: list) -> None:
    """Append to ``record``, per block of the segment in call order, its
    index ``k``, scalar partials and input cotangent of ``<u, dJ t>``.

    With ``t`` the tangent entering the segment and ``u`` the cotangent
    leaving it, the change of ``|J t|^2`` (``t`` the stack, ``u = J t``)
    or of ``|J^T u|^2`` (``u`` the stack, ``t = J^T u``) is ``2 <u, dJ t>``,
    a sum of one term per block. The reverse sweep starts from the taped
    sweep's result, meets each block with what ``tape`` holds for the other
    side, and drops tape entries as it goes. A forward basis entering after
    block 0 has no input tangent there, which that weight block's partials
    do not read."""
    spec = state.spec
    seg = spec.segment(l0, l1)
    ops = [OPS[spec.blocks[i].kind] for i in seg]
    inputs = segment_inputs(state, l0, l1)
    skip: list[Array] = []

    def collect(k, u, t, jt):
        # block k, with output cotangent u, input tangent t and jt = J_k t
        i = seg[k]
        blk = spec.blocks[i]
        record.append((k, ops[k].djvp(blk, partial(state.aux.get, i), u, jt),
                       ops[k].djvp_input(blk, state.caches[i], inputs[k], u, t)))

    if forward:
        u = tape[-1]
        for k in reversed(range(len(seg))):
            collect(k, u, tape[k], tape.pop())
            if k:  # the cotangent below the first block is not needed
                u = ops[k].vjp(spec.blocks[seg[k]], state.caches[seg[k]], u, skip)
    else:
        t = tape[0]
        for k in range(len(seg)):
            jt = ops[k].jvp(spec.blocks[seg[k]], state.caches[seg[k]], t, skip)
            collect(k, tape[k + 1], t, jt)
            tape[k] = None
            t = jt


def _exact_entries(spec: NetworkSpec, l0: int, l1: int, batch_size: int) -> int:
    """Entries of the (l0, l1) Jacobian an exact sweep assembles: the full
    cross-sample block where batch norm couples the segment, one sample's
    otherwise."""
    b_eff = batch_size if spec.segment_has_batchnorm(l0, l1) else 1
    return spec.boundary_dim(l0) * spec.boundary_dim(l1) * b_eff * b_eff


def _finite_ends(state: ForwardState, l0: int, l1: int) -> bool:
    return bool(np.isfinite(state.boundary(l0)).all() and np.isfinite(state.boundary(l1)).all())


def _terms(state: ForwardState, l0: int, l1: int, n_v: int, rng: RngStream | None,
           record: list | None = None, max_entries: int = DEFAULT_MAX_ENTRIES) -> Array:
    """Per-probe terms of the (l0, l1) norm (``n_v = 0``: one term, the exact
    norm): the sum of squares of each probe's tangent stacks (:func:`_probes`)
    pushed forward to l1 or pulled back to l0, over the batch size and the
    width of l1; ``[nan]``, without sweeping, when either boundary activation
    is non-finite. With a ``record``, each sweep is taped and reversed at
    once (:func:`_reverse`), so the norm and its gradient come from the same
    sweeps, the one-row basis's included."""
    if n_v == 0 and (entries := _exact_entries(state.spec, l0, l1, state.batch_size)) > max_entries:
        raise ResourceBudgetError(
            f"exact Jacobian needs {entries:.3g} entries (budget {max_entries:.3g}); "
            f"use estimate_segment instead")
    if not _finite_ends(state, l0, l1):
        return np.array([np.nan])
    forward, start, probes = _probes(state, l0, l1, n_v, rng)
    ssq = []
    for stacks in probes:
        ssq.append(0.0)
        for t in stacks:
            tape = None if record is None else [None] * start
            if forward:
                out = jvp_segment(state, l0, l1, t, tape, start=start)
            else:
                out = vjp_segment(state, l0, l1, t, tape)
            ssq[-1] += float(np.sum(out * out))
            if record is not None:
                _reverse(state, l0, l1, tape, forward, record)
    return np.array(ssq) / (state.batch_size * state.spec.boundary_dim(l1))


def exact_apjn(state: ForwardState, l0: int, l1: int, *,
               max_entries: int = DEFAULT_MAX_ENTRIES) -> float:
    """Exact (l0, l1) squared Jacobian norm of the forward pass ``state``.

    Averages over the batch and normalizes by the output width; expectation
    over parameter draws is up to the caller (see ``apjn_profile``). NaN
    when either boundary activation is non-finite. ``max_entries`` caps the
    Jacobian of every segment, including one whose basis is a single row
    (:func:`_basis`), so ``apjn_profile(method="auto")`` picks the same
    method either way.
    """
    return float(_terms(state, l0, l1, 0, None, max_entries=max_entries)[0])


def estimate_segment(state: ForwardState, l0: int, l1: int, n_v: int,
                     rng: RngStream) -> tuple[float, float]:
    """Probe-vector estimate of the (l0, l1) norm of the forward pass
    ``state``; returns (value, stderr), both NaN when either boundary
    activation is non-finite (stderr is also NaN for a single probe).

    Each probe contracts a fresh unit Gaussian vector with the upper
    boundary and pulls it back or, where batch norm couples the segment,
    pushes a Gaussian tangent forward from the lower one (see
    :func:`_probes`).
    """
    if n_v < 1:
        raise ValueError(f"need at least one probe vector, got {n_v}")
    terms = _terms(state, l0, l1, n_v, rng)
    stderr = float(terms.std(ddof=1) / np.sqrt(n_v)) if terms.size > 1 else float("nan")
    return float(terms.mean()), stderr


def measure_pairs(state: ForwardState, n_v: int, rng: RngStream | None,
                  dj: Callable[[float], float] | None = None,
                  kernels: dict | None = None) -> tuple[Array, dict | None]:
    """Norm ``J_l`` of every (l, l+1) pair, as :func:`exact_apjn` (``n_v =
    0``) or :func:`estimate_segment` with ``rng.child(l)`` measures it on
    ``state``, and, given ``dj``, the exact gradient, with the same basis or
    probes, of ``sum_l dj(J_l) J_l + sum_b kernels[b] K_b`` in every scalar
    of ``state.aux`` (``K_b`` the kernel,
    :func:`~crittuner.losses.kernel_profile`); without ``dj`` the gradient
    is None and nothing is taped.

    Segments go top-down, one segment's tapes and records at a time: each
    probe sweep of a pair is taped and reversed at once, the partials are
    weighted once the pair's norm is known, and a pullback through the
    forward map carries the cotangent to the boundary below. Once some
    ``dj(J_l)`` is non-finite, every partial is NaN and the pairs below are
    only measured.
    """
    spec = state.spec
    top = spec.n_boundaries - 1
    js = np.empty(top)
    live = dj is not None
    grads = dict.fromkeys(state.aux.keys(), 0.0) if live else None
    g = np.zeros_like(state.boundary(top)) if live else None
    for b in range(top, 0, -1):
        l0 = b - 1
        record = [] if live else None
        js[l0] = _terms(state, l0, b, n_v, rng.child(l0) if n_v else None, record).mean()
        if not live:
            continue
        weight = dj(float(js[l0]))
        if not np.isfinite(weight):
            grads, live = dict.fromkeys(grads, np.nan), False
            continue
        if kernels and b in kernels:  # d K_b / d h = 2 h / h.size
            g = g + (2.0 * kernels[b] / state.boundary(b).size) * state.boundary(b)
        seg = spec.segment(l0, b)
        extra: list = [None] * len(seg)
        w = weight / (max(n_v, 1) * state.batch_size * spec.boundary_dim(b))
        for k, partials, c in record:
            for group, value in partials.items():
                if (seg[k], group) in grads:
                    grads[(seg[k], group)] += 2.0 * w * value
            if c is not None:
                c *= 2.0 * w
                extra[k] = c if extra[k] is None else extra[k] + c
        g = pullback_segment(state, l0, b, g, extra, grads)
    return js, grads


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
                 max_entries: int = DEFAULT_MAX_ENTRIES) -> ApjnReport:
    """Per-pair norms over the skip-k cover of the network, and the
    boundary kernels of the supplied ``params``.

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
    methods = {}
    for (l0, l1) in pairs:
        within = _exact_entries(spec, l0, l1, bsz) <= max_entries
        methods[(l0, l1)] = method if method != "auto" else ("exact" if within else "estimate")
    draws: dict[tuple[int, int], list] = {p: [] for p in pairs}  # (value, stderr) per draw
    for s in range(n_param_samples):
        ps = params if s == 0 else init_params(spec, rng.child(10_000 + s))
        state = run_network(spec, ps, aux, batch)
        if s == 0:
            kernels = kernel_profile(state)
        for (l0, l1) in pairs:
            if methods[(l0, l1)] == "exact":
                draws[(l0, l1)].append((exact_apjn(state, l0, l1, max_entries=max_entries), None))
            else:
                draws[(l0, l1)].append(estimate_segment(state, l0, l1, n_v,
                                                        rng.child(20_000 + s * 1000 + l0)))
    out = []
    for (l0, l1), m in methods.items():
        vals = np.array([v for v, _ in draws[(l0, l1)]])
        stderr = None if m == "exact" else draws[(l0, l1)][0][1]
        if m != "exact" and n_param_samples > 1:
            stderr = float(vals.std(ddof=1) / np.sqrt(len(vals)))
        out.append(ApjnPair(l0, l1, float(vals.mean()), stderr,
                            "estimated" if m == "estimate" else "exact",
                            None if m == "exact" else n_v, bsz, n_param_samples))
    return ApjnReport(out, kernels)


def factorization_residual(state: ForwardState, l: int, *,
                           max_entries: int = DEFAULT_MAX_ENTRIES) -> float:
    """Relative gap between the two-step norm and the product of one-step
    norms at boundary ``l`` of the forward pass ``state``."""
    j02 = exact_apjn(state, l, l + 2, max_entries=max_entries)
    j01 = exact_apjn(state, l, l + 1, max_entries=max_entries)
    j12 = exact_apjn(state, l + 1, l + 2, max_entries=max_entries)
    return abs(j02 - j01 * j12) / j02
