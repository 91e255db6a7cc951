"""Feedforward block networks and their twin-network scalars.

A network is an ordered list of :class:`BlockSpec` entries (dense, conv,
activation, batch normalization, elementwise affine, residual open/close,
layer scaling, pooling, patch embedding). Blocks flagged ``boundary=True``
end a measurement group: the forward pass records the flattened activation
there, and Jacobians are always taken between two such boundaries.

Everything that differs between block kinds lives in one table, ``OPS``,
keyed by ``BlockSpec.kind``. Each entry is an :class:`Op` holding that
kind's config-line form, its parameter groups and the spec field each
group's scalar folds into, the spec fields a scan may set, its shape,
init, forward, JVP and VJP rules, and the derivative rules exact scalar
gradients need. Network construction, parameter draws, the forward pass,
the traversals, the gradients and the config and CLI layers all read the
table; none of them branches on the kind.

Every parameterized block carries per-group auxiliary scalars (the "twin
network"): the forward pass uses ``a_W * W`` and ``a_b * b`` in place of the
raw draws, so scaling the scalars is exactly equivalent to scaling the
parameters themselves. Each block also knows how to push a tangent forward
(JVP) and pull a cotangent back (VJP) through itself; tangent/cotangent
arrays are stack-first, shaped ``[S, B, ...]`` for ``S`` simultaneous
probe vectors over a batch of ``B`` samples. Batch normalization couples
samples, so its JVP/VJP keep the full cross-sample structure.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import ndtr

from .tensor import Array, RngStream, flatten_batch

# --------------------------------------------------------------------------
# activations
# --------------------------------------------------------------------------

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def _npdf(x: Array) -> Array:
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def relu(x):
    return np.maximum(x, 0.0)


def relu_deriv(x):
    # derivative at exactly 0 taken as 0 (measure-zero point)
    return (x > 0.0).astype(np.float64)


def gelu(x):
    """Exact GELU x * Phi(x) with the standard normal CDF (no tanh fit)."""
    return x * ndtr(x)


def gelu_deriv(x):
    return ndtr(x) + x * _npdf(x)


def tanh_act(x):
    return np.tanh(x)


def tanh_deriv(x):
    t = np.tanh(x)
    return 1.0 - t * t


def linear_act(x):
    return x


def linear_deriv(x):
    return np.ones_like(x)


def gelu_deriv2(x):
    return _npdf(x) * (2.0 - x * x)


def tanh_deriv2(x):
    t = np.tanh(x)
    return -2.0 * t * (1.0 - t * t)


# name -> (phi, phi', phi''); phi'' is None where it vanishes (almost everywhere)
ACTIVATIONS: dict[str, tuple[Callable, Callable, Callable | None]] = {
    "relu": (relu, relu_deriv, None),
    "gelu": (gelu, gelu_deriv, gelu_deriv2),
    "tanh": (tanh_act, tanh_deriv, tanh_deriv2),
    "linear": (linear_act, linear_deriv, None),
}

# --------------------------------------------------------------------------
# block and network specs
# --------------------------------------------------------------------------

DEFAULT_BN_EPS = 1e-5

# groups that receive auxiliary scalars by default (plain weight layers)
DEFAULT_AUX_GROUPS = frozenset({"W", "b"})


@dataclass
class BlockSpec:
    """One block of the network; unused fields stay at their defaults."""

    kind: str
    boundary: bool = False
    fan_in: int = 0
    fan_out: int = 0
    axis: int = -1            # dense mixing axis: -1 features, 1 patch grid
    kernel: int = 0
    stride: int = 1
    padding: int = 0
    sigma_w: float = 1.0
    sigma_b: float = 0.0
    act: str = ""
    eps_bn: float = DEFAULT_BN_EPS
    alpha_init: float = 1.0
    beta_init: float = 0.0
    eps_ls: float = 0.0
    mu: float = 1.0           # skip strength on residual close
    patch: int = 0


def dense(fan_out: int, sigma_w: float, sigma_b: float = 0.0, *, fan_in: int = 0,
          axis: int = -1, boundary: bool = False) -> BlockSpec:
    return BlockSpec("dense", boundary=boundary, fan_in=fan_in, fan_out=fan_out,
                     axis=axis, sigma_w=sigma_w, sigma_b=sigma_b)


def conv2d(out_ch: int, kernel: int, sigma_w: float, sigma_b: float = 0.0, *,
           stride: int = 1, padding: int = 0, boundary: bool = False) -> BlockSpec:
    return BlockSpec("conv2d", boundary=boundary, fan_out=out_ch, kernel=kernel,
                     stride=stride, padding=padding, sigma_w=sigma_w, sigma_b=sigma_b)


def activation(kind: str, boundary: bool = False) -> BlockSpec:
    return BlockSpec("activation", boundary=boundary, act=kind)


def batchnorm(eps: float = DEFAULT_BN_EPS, boundary: bool = False) -> BlockSpec:
    return BlockSpec("batchnorm", boundary=boundary, eps_bn=eps)


def affine_norm(alpha: float = 1.0, beta: float = 0.0, boundary: bool = False) -> BlockSpec:
    return BlockSpec("affine", boundary=boundary, alpha_init=alpha, beta_init=beta)


def layer_scale(eps_ls: float, boundary: bool = False) -> BlockSpec:
    return BlockSpec("layerscale", boundary=boundary, eps_ls=eps_ls)


def residual_open() -> BlockSpec:
    return BlockSpec("res_open")


def residual_close(mu: float = 1.0, boundary: bool = False) -> BlockSpec:
    return BlockSpec("res_close", boundary=boundary, mu=mu)


def flatten_block(boundary: bool = False) -> BlockSpec:
    return BlockSpec("flatten", boundary=boundary)


def avg_pool(boundary: bool = False) -> BlockSpec:
    return BlockSpec("avgpool", boundary=boundary)


def patch_embed(patch: int, dim: int, sigma_w: float, sigma_b: float = 0.0,
                boundary: bool = False) -> BlockSpec:
    return BlockSpec("patchembed", boundary=boundary, fan_out=dim, patch=patch,
                     sigma_w=sigma_w, sigma_b=sigma_b)


@dataclass(eq=True)
class NetworkSpec:
    """Ordered block list plus the per-sample input shape.

    Construction resolves inferred fan-ins, propagates shapes, and checks
    residual nesting; ``shapes[i]`` is the per-sample shape after block
    ``i-1`` (``shapes[0]`` is the input shape). Boundaries are the cut
    points where activations are recorded: the input, every flagged block,
    and the final output.
    """

    blocks: tuple[BlockSpec, ...]
    input_shape: tuple[int, ...]
    shapes: list[tuple[int, ...]] = field(init=False, compare=False, repr=False)
    cuts: list[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.blocks = tuple(self.blocks)
        self.input_shape = tuple(int(d) for d in self.input_shape)
        if any(d <= 0 for d in self.input_shape):
            raise ValueError(f"input shape must be positive, got {self.input_shape}")
        resolved = []
        shapes = [self.input_shape]
        stack: list[tuple[int, ...]] = []
        for idx, blk in enumerate(self.blocks):
            cur = shapes[-1]
            blk = replace(blk)
            try:
                if blk.kind not in OPS:
                    raise ValueError(f"unknown block kind {blk.kind!r}")
                cur = OPS[blk.kind].shape(blk, cur, stack)
            except ValueError as exc:
                raise ValueError(f"block {idx} ({blk.kind}): {exc}") from None
            if blk.boundary and stack:
                raise ValueError(f"block {idx}: boundary inside an open residual branch")
            resolved.append(blk)
            shapes.append(cur)
        if stack:
            raise ValueError("unclosed residual branch")
        self.blocks = tuple(resolved)
        self.shapes = shapes
        cuts = [0] + [i + 1 for i, blk in enumerate(self.blocks) if blk.boundary]
        if not self.blocks:
            raise ValueError("network has no blocks")
        if cuts[-1] != len(self.blocks):
            cuts.append(len(self.blocks))
        self.cuts = cuts

    # -- boundary bookkeeping ------------------------------------------------
    @property
    def n_boundaries(self) -> int:
        return len(self.cuts)

    @property
    def L(self) -> int:
        """Number of interior measurement boundaries (total is L + 2)."""
        return len(self.cuts) - 2

    def boundary_shape(self, b: int) -> tuple[int, ...]:
        return self.shapes[self.cuts[b]]

    def boundary_dim(self, b: int) -> int:
        return int(np.prod(self.boundary_shape(b)))

    def segment(self, b0: int, b1: int) -> range:
        """Block indices strictly between boundary b0 and boundary b1."""
        if not 0 <= b0 < b1 <= self.n_boundaries - 1:
            raise ValueError(f"need 0 <= l0 < l <= {self.n_boundaries - 1}, got ({b0}, {b1})")
        return range(self.cuts[b0], self.cuts[b1])

    def segment_has_batchnorm(self, b0: int, b1: int) -> bool:
        return any(OPS[self.blocks[i].kind].couples_batch for i in self.segment(b0, b1))

    @property
    def has_batchnorm(self) -> bool:
        return any(OPS[b.kind].couples_batch for b in self.blocks)


# --------------------------------------------------------------------------
# block kinds: one op record per kind
# --------------------------------------------------------------------------

class Attr(NamedTuple):
    """One ``key=value`` attribute of a block's config line."""

    key: str
    field: str                # BlockSpec field it sets
    cast: Callable
    default: object = None    # None: the attribute is required
    omit_default: bool = False  # leave it off the line when at its default


class Op:
    """The rules of one block kind.

    ``shape(blk, cur, stack)`` validates the block against the incoming
    per-sample shape, fills inferred fields (fan-in, feature width) and
    returns the outgoing shape; residual kinds push and pop ``stack``.
    ``forward(blk, p, a_of, x, skip)`` returns ``(output, cache)``, where
    ``a_of(group)`` is the block's auxiliary scalar for a parameter group
    and ``cache`` holds exactly what this kind's ``jvp(blk, cache, t,
    tskip)`` and ``vjp(blk, cache, g, gskip)`` read back. ``skip``,
    ``tskip`` and ``gskip`` carry the residual branch inputs.
    ``basis_rows(blk, cache, dim)`` may give the JVP of a whole input basis
    at once, so exact norms need not sweep the identity through the block.
    ``row_sq(blk, cache)`` may give the squared norm of each row of a
    weight block's Jacobian, and ``diagonal`` marks kinds whose cache is
    their diagonal Jacobian; together they give a one-row exact basis.

    The derivative rules serve exact scalar gradients. Every kind's output
    is linear in its scalars: ``F(x) = a_s * L(x) + a_h * h``, with ``L``
    linear for the ``scale`` group and ``h`` a fixed vector for the
    ``shift`` group. ``dforward`` gives the partials of ``<g, F(x)>``,
    ``djvp`` those of ``<u, J(x) t>``, and ``djvp_input`` the cotangent of
    ``<u, J(x) t>`` on the block input ``x``.
    """

    alias: str                # block name in config lines
    attrs: tuple = ()         # config-line attributes, in write order
    groups: dict = {}         # parameter group -> BlockSpec field its scalar folds into
    scan: tuple = ()          # BlockSpec fields a scan axis of that name sets
    couples_batch = False     # output of one sample depends on the others
    diagonal = False          # the Jacobian is diagonal, and the cache holds it
    scale: str | None = None  # group whose scalar multiplies the Jacobian
    shift: str | None = None  # group whose scalar multiplies an added constant

    def init(self, blk: BlockSpec, rng: RngStream) -> dict:
        return {}

    def draws(self, blk: BlockSpec) -> int:
        """How many normals ``init`` draws."""
        return 0

    def shift_view(self, blk: BlockSpec, vec: Array, ndim: int) -> Array:
        """The shift vector as it broadcasts against ``ndim``-dim outputs."""
        return _vec_shaped(vec, ndim)

    def dforward(self, blk, p, a_of, x, g, gx) -> dict:
        """Partials of ``<g, F(x)>`` per group scalar, for an output
        cotangent ``g`` [B, ...] and ``gx = J^T g``."""
        out = {}
        if self.scale:
            out[self.scale] = float(np.vdot(gx, x)) / a_of(self.scale)
        if self.shift:
            out[self.shift] = float(np.sum(g * self.shift_view(blk, p[self.shift], g.ndim)))
        return out

    def basis_rows(self, blk, cache, dim) -> Array | None:
        """The JVP of each unit vector of the block's flattened
        ``dim``-wide per-sample input, as the rows of a ``[dim, N_out]``
        array (a view may do), or None where only ``jvp`` gives them."""
        return None

    def row_sq(self, blk, cache) -> Array | None:
        """Squared norm of each row of the per-sample Jacobian, broadcastable
        against the per-sample output, or None where no rule gives it."""
        return None

    def djvp(self, blk, a_of, u, jt) -> dict:
        """Partials of ``<u, J t>`` per group scalar, given ``jt = J t``
        ([S, B, ...] stacks, summed over)."""
        return {self.scale: float(np.vdot(u, jt)) / a_of(self.scale)} if self.scale else {}

    def djvp_input(self, blk, cache, x, u, t) -> Array | None:
        """Cotangent of ``<u, J(x) t>`` on the input ``x``, summed over the
        stack; None where the Jacobian does not depend on ``x``."""
        return None

    def reads_input(self, blk) -> bool:
        """Whether ``dforward`` or ``djvp_input`` read the block input."""
        return self.scale is not None


class _Weighted(Op):
    """Weight W ~ N(0, sigma_w^2 / fan-in) and bias b ~ N(0, sigma_b^2),
    drawn in that order."""

    groups = {"W": "sigma_w", "b": "sigma_b"}
    scan = ("sigma_w", "sigma_b")
    scale, shift = "W", "b"

    def weight_shape(self, blk: BlockSpec) -> tuple:
        return (blk.fan_out, blk.fan_in)

    def init(self, blk, rng):
        shape = self.weight_shape(blk)
        return {"W": rng.normal(shape, 0.0, blk.sigma_w / np.sqrt(math.prod(shape[1:]))),
                "b": rng.normal((blk.fan_out,), 0.0, blk.sigma_b)}

    def draws(self, blk):
        return math.prod(self.weight_shape(blk)) + blk.fan_out


class _Dense(_Weighted):
    alias = "dense"
    attrs = (Attr("out", "fan_out", int), Attr("sigma_w", "sigma_w", float),
             Attr("sigma_b", "sigma_b", float, 0.0),
             Attr("axis", "axis", int, -1, omit_default=True))

    def shape(self, blk, cur, stack):
        if blk.fan_out <= 0 or blk.sigma_w <= 0 or blk.sigma_b < 0:
            raise ValueError("need fan_out > 0, sigma_w > 0, sigma_b >= 0")
        if blk.axis == -1:
            want = cur[-1]
            out = (*cur[:-1], blk.fan_out)
        elif blk.axis == 1 and len(cur) == 2:
            want = cur[0]
            out = (blk.fan_out, cur[1])
        else:
            raise ValueError(f"axis {blk.axis} not applicable to shape {cur}")
        if blk.fan_in and blk.fan_in != want:
            raise ValueError(f"fan_in {blk.fan_in} != incoming {want}")
        blk.fan_in = want
        return out

    def shift_view(self, blk, vec, ndim):
        return vec if blk.axis == -1 else vec[:, None]

    def forward(self, blk, p, a_of, x, skip):
        w = a_of("W") * p["W"]
        b = a_of("b") * p["b"]
        if blk.axis == -1:
            return x @ w.T + b, w
        return np.einsum("bpd,qp->bqd", x, w) + b[None, :, None], w

    def jvp(self, blk, w, t, tskip):
        f, s = _fold(t)
        out = f @ w.T if blk.axis == -1 else np.einsum("bpd,qp->bqd", f, w)
        return _unfold(out, s)

    def vjp(self, blk, w, g, gskip):
        f, s = _fold(g)
        out = f @ w if blk.axis == -1 else np.einsum("bqd,qp->bpd", f, w)
        return _unfold(out, s)

    def basis_rows(self, blk, w, dim):
        # the JVP of e_k is e_k @ w.T, which is w.T[k] bit for bit
        return w.T if blk.axis == -1 and dim == blk.fan_in else None

    def row_sq(self, blk, w):
        r = np.einsum("ij,ij->i", w, w)
        return r if blk.axis == -1 else r[:, None]


class _Conv2d(_Weighted):
    alias = "conv"
    attrs = (Attr("out", "fan_out", int), Attr("k", "kernel", int),
             Attr("stride", "stride", int, 1), Attr("pad", "padding", int, 0),
             Attr("sigma_w", "sigma_w", float), Attr("sigma_b", "sigma_b", float, 0.0))

    def shape(self, blk, cur, stack):
        if len(cur) != 3:
            raise ValueError(f"conv needs (C, H, W) input, got {cur}")
        if blk.fan_out <= 0 or blk.kernel <= 0 or blk.stride < 1 or blk.padding < 0:
            raise ValueError("bad conv geometry")
        if blk.sigma_w <= 0 or blk.sigma_b < 0:
            raise ValueError("need sigma_w > 0, sigma_b >= 0")
        c, h, w = cur
        blk.fan_in = c
        ho = (h + 2 * blk.padding - blk.kernel) // blk.stride + 1
        wo = (w + 2 * blk.padding - blk.kernel) // blk.stride + 1
        if ho < 1 or wo < 1:
            raise ValueError(f"kernel {blk.kernel} does not fit input {cur}")
        return (blk.fan_out, ho, wo)

    def weight_shape(self, blk):
        return (blk.fan_out, blk.fan_in, blk.kernel, blk.kernel)

    def forward(self, blk, p, a_of, x, skip):
        wmat = (a_of("W") * p["W"]).reshape(blk.fan_out, -1)
        b = a_of("b") * p["b"]
        cols = _im2col(x, blk.kernel, blk.stride, blk.padding)
        return (cols @ wmat.T + b).transpose(0, 3, 1, 2), (wmat, x.shape)

    def jvp(self, blk, cache, t, tskip):
        f, s = _fold(t)
        cols = _im2col(f, blk.kernel, blk.stride, blk.padding)
        return _unfold((cols @ cache[0].T).transpose(0, 3, 1, 2), s)

    def vjp(self, blk, cache, g, gskip):
        wmat, x_shape = cache
        f, s = _fold(g)
        gcols = f.transpose(0, 2, 3, 1) @ wmat
        folded_shape = (f.shape[0],) + x_shape[1:]
        return _unfold(_col2im(gcols, folded_shape, blk.kernel, blk.stride, blk.padding), s)

    def row_sq(self, blk, cache):
        # the taps of each output position that fall on the image, not the padding
        wmat, x_shape = cache
        taps = _im2col(np.ones((1, *x_shape[1:])), blk.kernel, blk.stride, blk.padding)
        return (taps[0] @ (wmat * wmat).T).transpose(2, 0, 1)


class _PatchEmbed(_Weighted):
    alias = "patch"
    attrs = (Attr("p", "patch", int), Attr("dim", "fan_out", int),
             Attr("sigma_w", "sigma_w", float), Attr("sigma_b", "sigma_b", float, 0.0))

    def shape(self, blk, cur, stack):
        if len(cur) != 3:
            raise ValueError(f"patch embedding needs (C, H, W) input, got {cur}")
        c, h, w = cur
        if blk.patch <= 0 or h % blk.patch or w % blk.patch:
            raise ValueError(f"patch size {blk.patch} does not tile {cur}")
        if blk.fan_out <= 0 or blk.sigma_w <= 0 or blk.sigma_b < 0:
            raise ValueError("bad patch embedding parameters")
        blk.fan_in = c * blk.patch * blk.patch
        return ((h // blk.patch) * (w // blk.patch), blk.fan_out)

    def forward(self, blk, p, a_of, x, skip):
        w = a_of("W") * p["W"]
        b = a_of("b") * p["b"]
        return _patchify(x, blk.patch) @ w.T + b, (w, x.shape)

    def jvp(self, blk, cache, t, tskip):
        f, s = _fold(t)
        return _unfold(_patchify(f, blk.patch) @ cache[0].T, s)

    def vjp(self, blk, cache, g, gskip):
        w, x_shape = cache
        f, s = _fold(g)
        folded_shape = (f.shape[0],) + x_shape[1:]
        return _unfold(_unpatchify(f @ w, folded_shape, blk.patch), s)

    def row_sq(self, blk, cache):
        return np.einsum("ij,ij->i", cache[0], cache[0])


class _Pointwise(Op):
    """Kinds with a diagonal Jacobian; the cache is its diagonal, which
    broadcasts against ``[S, B, ...]`` tangents."""

    diagonal = True

    def jvp(self, blk, deriv, t, tskip):
        return t * deriv

    vjp = jvp


class _Activation(_Pointwise):
    alias = "act"
    attrs = (Attr("kind", "act", str),)

    def shape(self, blk, cur, stack):
        if blk.act not in ACTIVATIONS:
            raise ValueError(f"unknown activation {blk.act!r}")
        return cur

    def forward(self, blk, p, a_of, x, skip):
        f, df, _ = ACTIVATIONS[blk.act]
        return f(x), df(x)

    def djvp_input(self, blk, cache, x, u, t):
        d2f = ACTIVATIONS[blk.act][2]
        return None if d2f is None else (u * t).sum(axis=0) * d2f(x)

    def reads_input(self, blk):
        return ACTIVATIONS[blk.act][2] is not None


class _BatchNorm(Op):
    alias = "bn"
    attrs = (Attr("eps", "eps_bn", float, DEFAULT_BN_EPS),)
    couples_batch = True

    def shape(self, blk, cur, stack):
        if len(cur) not in (1, 3):
            raise ValueError(f"batchnorm expects flat or (C, H, W) input, got {cur}")
        if blk.eps_bn < 0:
            raise ValueError("eps_bn must be >= 0")
        return cur

    def forward(self, blk, p, a_of, x, skip):
        axes = _bn_axes(x.ndim)
        m = x.mean(axis=axes, keepdims=True)
        c = x - m
        v = (c * c).mean(axis=axes, keepdims=True)
        s = np.sqrt(v + blk.eps_bn)
        return c / s, (c, s)

    def jvp(self, blk, cache, t, tskip):
        c, s = cache
        axes = tuple(a + 1 for a in _bn_axes(c.ndim))
        tm = t.mean(axis=axes, keepdims=True)
        proj = (t * c[None]).mean(axis=axes, keepdims=True)
        return (t - tm) / s[None] - c[None] * proj / s[None] ** 3

    vjp = jvp  # the batch-normalization Jacobian is symmetric

    def djvp_input(self, blk, cache, x, u, t):
        # per feature, with y = c / s and means over the normalized axes:
        # (1/s^2) [(3 <uy><ty> - cov(u, t)) y - <ty> (u - <u>) - <uy> (t - <t>)]
        c, s = cache
        axes = tuple(a + 1 for a in _bn_axes(c.ndim))
        y = c / s

        def mean(z):
            return z.mean(axis=axes, keepdims=True)

        um, tm, uy, ty = mean(u), mean(t), mean(u * y), mean(t * y)
        cov = mean(u * t) - um * tm
        out = (3.0 * uy * ty - cov) * y - ty * (u - um) - uy * (t - tm)
        return out.sum(axis=0) / (s * s)


class _Elementwise(_Pointwise):
    """Per-feature vectors initialized to the value of their fold field."""

    def shape(self, blk, cur, stack):
        # one entry per feature: last axis for flat/patch data, channel axis for conv data
        if len(cur) not in (1, 2, 3):
            raise ValueError(f"no feature axis for shape {cur}")
        blk.fan_out = cur[0] if len(cur) == 3 else cur[-1]
        return cur

    def init(self, blk, rng):
        return {g: np.full(blk.fan_out, getattr(blk, f), dtype=np.float64)
                for g, f in self.groups.items()}


class _Affine(_Elementwise):
    alias = "affine"
    attrs = (Attr("alpha", "alpha_init", float, 1.0), Attr("beta", "beta_init", float, 0.0))
    groups = {"alpha": "alpha_init", "beta": "beta_init"}
    scale, shift = "alpha", "beta"

    def forward(self, blk, p, a_of, x, skip):
        al = _vec_shaped(a_of("alpha") * p["alpha"], x.ndim)
        be = _vec_shaped(a_of("beta") * p["beta"], x.ndim)
        return al * x + be, al


class _LayerScale(_Elementwise):
    alias = "lscale"
    attrs = (Attr("eps", "eps_ls", float),)
    groups = {"scale": "eps_ls"}
    scan = ("eps_ls",)
    scale = "scale"

    def shape(self, blk, cur, stack):
        if blk.eps_ls < 0:
            raise ValueError("eps_ls must be >= 0")
        return super().shape(blk, cur, stack)

    def forward(self, blk, p, a_of, x, skip):
        e = _vec_shaped(a_of("scale") * p["scale"], x.ndim)
        return e * x, e


class _ResOpen(Op):
    alias = "res_open"

    def shape(self, blk, cur, stack):
        stack.append(cur)
        return cur

    def forward(self, blk, p, a_of, x, skip):
        skip.append(x)
        return x, None

    def jvp(self, blk, cache, t, tskip):
        tskip.append(t)
        return t

    def vjp(self, blk, cache, g, gskip):
        return g + gskip.pop()


class _ResClose(Op):
    alias = "res_close"
    attrs = (Attr("mu", "mu", float, 1.0),)
    scan = ("mu",)

    def shape(self, blk, cur, stack):
        if not stack:
            raise ValueError("residual close without open")
        if blk.mu < 0:
            raise ValueError("mu must be >= 0")
        opened = stack.pop()
        if opened != cur:
            raise ValueError(f"skip shape {opened} != branch shape {cur}")
        return cur

    def forward(self, blk, p, a_of, x, skip):
        return x + blk.mu * skip.pop(), None

    def jvp(self, blk, cache, t, tskip):
        return t + blk.mu * tskip.pop()

    def vjp(self, blk, cache, g, gskip):
        gskip.append(blk.mu * g)
        return g


class _Flatten(Op):
    alias = "flatten"

    def shape(self, blk, cur, stack):
        return (int(np.prod(cur)),)

    def forward(self, blk, p, a_of, x, skip):
        return flatten_batch(x), x.shape

    def jvp(self, blk, x_shape, t, tskip):
        return t.reshape(t.shape[0], t.shape[1], -1)

    def vjp(self, blk, x_shape, g, gskip):
        return g.reshape(g.shape[0], *x_shape)


class _AvgPool(Op):
    alias = "avgpool"

    def shape(self, blk, cur, stack):
        if len(cur) == 2:
            return (cur[1],)
        if len(cur) == 3:
            return (cur[0],)
        raise ValueError(f"avgpool expects (P, d) or (C, H, W) input, got {cur}")

    def forward(self, blk, p, a_of, x, skip):
        axes = (1,) if x.ndim == 3 else (2, 3)
        return x.mean(axis=axes), (x.shape, axes)

    def jvp(self, blk, cache, t, tskip):
        return t.mean(axis=tuple(a + 1 for a in cache[1]))

    def vjp(self, blk, cache, g, gskip):
        x_shape, axes = cache
        n = int(np.prod([x_shape[a] for a in axes]))
        out = g / n
        for a in axes:
            out = np.expand_dims(out, a + 1)
        return np.broadcast_to(out, (g.shape[0],) + x_shape).copy()


OPS: dict[str, Op] = {
    "dense": _Dense(),
    "conv2d": _Conv2d(),
    "activation": _Activation(),
    "batchnorm": _BatchNorm(),
    "affine": _Affine(),
    "layerscale": _LayerScale(),
    "res_open": _ResOpen(),
    "res_close": _ResClose(),
    "flatten": _Flatten(),
    "avgpool": _AvgPool(),
    "patchembed": _PatchEmbed(),
}

ALL_AUX_GROUPS = frozenset(g for op in OPS.values() for g in op.groups)


# --------------------------------------------------------------------------
# parameters and auxiliary scalars
# --------------------------------------------------------------------------

ParamSet = list  # list[dict[str, Array]], parallel to spec.blocks


# Below this many normals in all, a network is drawn on the calling thread:
# starting and joining a helper thread costs about as much as the draw saves
# (2-core x86: break-even near 4e5 normals, 2x faster at 2.5e6).
_THREADED_DRAWS = 1 << 18


def init_params(spec: NetworkSpec, rng: RngStream) -> ParamSet:
    """Sample all block parameters: weights N(0, sigma_w^2 / fan_in),
    biases N(0, sigma_b^2), affine at identity, layer scale at eps_ls.

    Block ``i`` draws from its own stream ``rng.child(i)``, so blocks can be
    drawn concurrently: where the network has at least ``_THREADED_DRAWS``
    weights and biases, the calling thread and one short-lived helper per
    further core in the process's affinity mask (never more threads than
    blocks) each take the next undrawn block until none is left; smaller
    networks are drawn on the calling thread alone. numpy releases the GIL
    while it fills a normal draw, and the result is assembled in block
    order, so it is bit-identical to drawing the blocks one after another.
    ``rng`` itself is not advanced. Every helper is joined before this
    returns; the first exception raised by any block's ``init`` is
    re-raised here.
    """
    blocks = spec.blocks
    threads = 1
    if sum(OPS[blk.kind].draws(blk) for blk in blocks) >= _THREADED_DRAWS:
        threads = min(len(blocks), _cores())
    params: ParamSet = [None] * len(blocks)
    todo = iter(range(len(blocks)))
    lock = threading.Lock()  # hands out each index once, with or without a GIL
    errors: list[BaseException] = []

    def draw() -> None:
        try:
            while True:
                with lock:
                    i = next(todo, None)
                if i is None:
                    return
                params[i] = OPS[blocks[i].kind].init(blocks[i], rng.child(i))
        except BaseException as exc:
            errors.append(exc)

    helpers = [threading.Thread(target=draw) for _ in range(threads - 1)]
    for t in helpers:
        t.start()
    draw()  # catches everything, so the joins below always run
    for t in helpers:
        t.join()
    if errors:
        raise errors[0]
    return params


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def resolve_aux_groups(groups) -> frozenset:
    """Group names selected by "default", "all", "none" or a set of names."""
    if isinstance(groups, str):
        named = {"default": DEFAULT_AUX_GROUPS, "all": ALL_AUX_GROUPS, "none": frozenset()}
        if groups not in named:
            raise ValueError(f"unknown aux groups {groups!r}: use 'default', 'all', "
                             "'none' or a set of group names")
        return named[groups]
    allowed = frozenset(groups)
    if unknown := sorted(allowed - ALL_AUX_GROUPS):
        raise ValueError(f"unknown aux groups {unknown}")
    return allowed


class AuxScalars:
    """Per-parameter-group scalar multipliers of the twin network.

    ``values`` maps ``(block_index, group)`` to a strictly positive float.
    Groups not present behave as fixed 1.0. ``groups`` selects which
    parameter groups are tunable: "default" covers plain weight layers
    (W, b), "all" additionally covers affine and layer-scale vectors, or
    pass an explicit set of group names.
    """

    def __init__(self, values: dict[tuple[int, str], float]):
        self.values = {k: float(v) for k, v in values.items()}

    @classmethod
    def ones(cls, spec: NetworkSpec, groups="default") -> "AuxScalars":
        allowed = resolve_aux_groups(groups)
        vals = {}
        for i, blk in enumerate(spec.blocks):
            for g in OPS[blk.kind].groups:
                if g in allowed:
                    vals[(i, g)] = 1.0
        return cls(vals)

    def get(self, i: int, group: str) -> float:
        return self.values.get((i, group), 1.0)

    def keys(self) -> list[tuple[int, str]]:
        return sorted(self.values.keys())

    def as_vector(self) -> np.ndarray:
        return np.array([self.values[k] for k in self.keys()], dtype=np.float64)

    def clamped(self, lo: float, hi: float) -> "AuxScalars":
        return AuxScalars({k: min(max(v, lo), hi) for k, v in self.values.items()})

    def __repr__(self) -> str:  # pragma: no cover
        items = ", ".join(f"({i},{g})={v:.4g}" for (i, g), v in sorted(self.values.items()))
        return f"AuxScalars({items})"


def scale_params(spec: NetworkSpec, params: ParamSet, aux: AuxScalars) -> ParamSet:
    """Fold the auxiliary scalars into the parameters: theta -> a * theta."""
    out: ParamSet = []
    for i, blk in enumerate(spec.blocks):
        out.append({g: aux.get(i, g) * arr for g, arr in params[i].items()})
    return out


def scale_spec_sigmas(spec: NetworkSpec, aux: AuxScalars) -> NetworkSpec:
    """Fold auxiliary scalars into the hyperparameters (sigma -> sigma * a),
    so a fresh draw from the returned spec matches the tuned twin in
    distribution."""
    blocks = []
    for i, blk in enumerate(spec.blocks):
        blk = replace(blk)
        for g, f in OPS[blk.kind].groups.items():
            setattr(blk, f, getattr(blk, f) * aux.get(i, g))
        blocks.append(blk)
    return NetworkSpec(tuple(blocks), spec.input_shape)


# --------------------------------------------------------------------------
# forward pass
# --------------------------------------------------------------------------

@dataclass
class ForwardState:
    """Forward pass with per-block caches, ready for JVP/VJP traversals.

    ``caches[i]`` is the cache ``OPS[kind].forward`` returned for block
    ``i``; only that kind's ``jvp`` and ``vjp`` read it. ``boundaries[b]``
    is the flattened activation ``[B, N_b]`` at measurement boundary b.
    ``inputs[i]`` is the input of block ``i`` where its derivative rules
    read it and no boundary holds it, else None (see :func:`segment_inputs`).
    """

    spec: NetworkSpec
    params: ParamSet
    aux: AuxScalars
    batch_size: int
    caches: list
    boundaries: list
    inputs: list

    def boundary(self, b: int) -> Array:
        return self.boundaries[b]


def _bn_axes(ndim: int) -> tuple[int, ...]:
    return (0,) if ndim == 2 else (0, 2, 3)


def _vec_shaped(vec: Array, ndim: int) -> Array:
    # broadcastable view of a feature vector against [B, ...] activations
    if ndim in (2, 3):
        return vec
    return vec[:, None, None]


def _im2col(x: Array, k: int, stride: int, padding: int) -> Array:
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]                       # [B, C, Ho, Wo, k, k]
    b, c, ho, wo = win.shape[:4]
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(b, ho, wo, c * k * k)


def _col2im(cols: Array, x_shape: tuple[int, ...], k: int, stride: int, padding: int) -> Array:
    b, c, h, w = x_shape
    ho, wo = cols.shape[1], cols.shape[2]
    g6 = cols.reshape(b, ho, wo, c, k, k)
    out = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    for i in range(k):
        for j in range(k):
            out[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += \
                g6[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    if padding:
        out = out[:, :, padding:-padding, padding:-padding]
    return out


def _patchify(x: Array, p: int) -> Array:
    b, c, h, w = x.shape
    hp, wp = h // p, w // p
    x6 = x.reshape(b, c, hp, p, wp, p).transpose(0, 2, 4, 1, 3, 5)
    return x6.reshape(b, hp * wp, c * p * p)


def _unpatchify(g: Array, x_shape: tuple[int, ...], p: int) -> Array:
    b, c, h, w = x_shape
    hp, wp = h // p, w // p
    g6 = g.reshape(b, hp, wp, c, p, p).transpose(0, 3, 1, 4, 2, 5)
    return g6.reshape(b, c, h, w)


def run_network(spec: NetworkSpec, params: ParamSet, aux: AuxScalars, batch: Array) -> ForwardState:
    """Forward pass recording boundary activations and per-block caches."""
    x = np.asarray(batch, dtype=np.float64)
    if x.shape[1:] != spec.input_shape:
        raise ValueError(f"batch shape {x.shape[1:]} != network input {spec.input_shape}")
    bsz = x.shape[0]
    if bsz < 1:
        raise ValueError("batch must contain at least one sample")
    if bsz < 2 and spec.has_batchnorm:
        raise ValueError("batch normalization needs a batch of at least 2 samples")
    cutset = set(spec.cuts)
    bounds: list[Array] = []
    if 0 in cutset:
        bounds.append(flatten_batch(x))
    caches, inputs = [], []
    skip: list[Array] = []
    for i, blk in enumerate(spec.blocks):
        op = OPS[blk.kind]
        inputs.append(x if i not in cutset and op.reads_input(blk) else None)
        x, cache = op.forward(blk, params[i], partial(aux.get, i), x, skip)
        caches.append(cache)
        if (i + 1) in cutset:
            bounds.append(flatten_batch(x))
    return ForwardState(spec, params, aux, bsz, caches, bounds, inputs)


def normalize_unit_second_moment(x: Array) -> Array:
    """Scale each sample so its mean squared entry is 1 (zero samples pass through)."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(x.shape[0], -1)
    norms = np.sqrt((flat * flat).mean(axis=1))
    norms = np.where(norms == 0.0, 1.0, norms)
    return x / norms.reshape((-1,) + (1,) * (x.ndim - 1))


# --------------------------------------------------------------------------
# JVP / VJP traversals (stack-first arrays [S, B, ...])
# --------------------------------------------------------------------------

def _fold(t: Array) -> tuple[Array, int]:
    return t.reshape(t.shape[0] * t.shape[1], *t.shape[2:]), t.shape[0]


def _unfold(t: Array, s: int) -> Array:
    return t.reshape(s, t.shape[0] // s, *t.shape[1:])


def jvp_segment(state: ForwardState, b0: int, b1: int, tangent: Array,
                tape: list | None = None, *, start: int = 0) -> Array:
    """Push ``[S, B, N_b0]`` tangents forward from boundary b0 to b1.

    ``start`` is how many of the segment's leading blocks the tangent has
    already passed; it is then shaped as their output, and no residual
    branch may be open there. ``tape``, when given, receives the tangent at
    each position of the segment from ``start`` on, unflattened: position
    ``k`` is the input of its ``k``-th block and the last position the
    segment output.
    """
    spec = state.spec
    seg = spec.segment(b0, b1)[start:]
    t = np.asarray(tangent, dtype=np.float64)
    t = t.reshape(t.shape[0], t.shape[1], *spec.shapes[seg.start])
    tskip: list[Array] = []
    for i in seg:
        if tape is not None:
            tape.append(t)
        blk = spec.blocks[i]
        t = OPS[blk.kind].jvp(blk, state.caches[i], t, tskip)
    if tape is not None:
        tape.append(t)
    return t.reshape(t.shape[0], t.shape[1], -1)


def vjp_segment(state: ForwardState, b0: int, b1: int, cotangent: Array,
                tape: list | None = None) -> Array:
    """Pull ``[S, B, N_b1]`` cotangents back from boundary b1 to b0.

    ``tape``, when given, receives the cotangent at each position of the
    segment, in the position order of :func:`jvp_segment`.
    """
    spec = state.spec
    seg = spec.segment(b0, b1)
    g = np.asarray(cotangent, dtype=np.float64)
    g = g.reshape(g.shape[0], g.shape[1], *spec.boundary_shape(b1))
    gskip: list[Array] = []
    for i in reversed(seg):
        if tape is not None:
            tape.append(g)
        blk = spec.blocks[i]
        g = OPS[blk.kind].vjp(blk, state.caches[i], g, gskip)
    if tape is not None:
        tape.append(g)
        tape.reverse()
    return g.reshape(g.shape[0], g.shape[1], -1)


# --------------------------------------------------------------------------
# scalar derivatives of the forward map
# --------------------------------------------------------------------------

def segment_inputs(state: ForwardState, b0: int, b1: int) -> list:
    """Inputs of the blocks between boundaries b0 and b1 that their
    derivative rules read (None for the others): the activation at a
    boundary for the block after it, the forward pass's own elsewhere."""
    spec = state.spec
    inputs = state.inputs[spec.cuts[b0]:spec.cuts[b1]]
    for b in range(b0, b1):
        blk = spec.blocks[spec.cuts[b]]
        if OPS[blk.kind].reads_input(blk):
            x = state.boundary(b).reshape(state.batch_size, *spec.boundary_shape(b))
            inputs[spec.cuts[b] - spec.cuts[b0]] = x
    return inputs


def pullback_segment(state: ForwardState, b0: int, b1: int, cotangent: Array,
                     extra: list, grads: dict) -> Array:
    """Pull a cotangent ``[B, N_b1]`` on the activation at b1 back to b0
    through the forward map.

    ``extra[k]`` is a further cotangent on the input of the segment's
    ``k``-th block, or None; it enters on the way down, which consumes the
    list. Each block's scalar partials are added to ``grads`` where it has
    the ``(block, group)`` key; other scalars are held fixed. Returns the
    cotangent ``[B, N_b0]`` at b0.
    """
    spec = state.spec
    seg = spec.segment(b0, b1)
    inputs = segment_inputs(state, b0, b1)
    g = cotangent.reshape(1, state.batch_size, *spec.boundary_shape(b1))
    gskip: list[Array] = []
    for i in reversed(seg):
        blk = spec.blocks[i]
        op = OPS[blk.kind]
        gx = op.vjp(blk, state.caches[i], g, gskip)
        partials = op.dforward(blk, state.params[i], partial(state.aux.get, i),
                               inputs.pop(), g[0], gx[0])
        for group, value in partials.items():
            if (i, group) in grads:
                grads[(i, group)] += value
        more = extra.pop()
        g = gx if more is None else gx + more
    return g.reshape(state.batch_size, -1)
