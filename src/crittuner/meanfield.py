"""Closed-form infinite-width oracles.

Everything the empirical machinery is checked against lives here: the
kernel recursions for wide networks, the two Gaussian susceptibilities that
govern kernel and Jacobian propagation, the exact discrete tuning dynamics
for ReLU stacks, the infinite-batch limits for batch-normalized residual
networks, and the closed-form kernel/Jacobian maps of the patch-mixing
residual architecture. Gauss-Hermite quadrature provides the independent
cross-check for every expectation that also has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.special import ndtr

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class SingularKernelError(ValueError):
    """Kernel state makes the requested limit formula singular."""


# --------------------------------------------------------------------------
# Gaussian expectations
# --------------------------------------------------------------------------

def gauss_expect(f: Callable, k: float, deg: int = 101) -> float:
    """E[f(h)] for h ~ N(0, k) by Gauss-Hermite quadrature (probabilists')."""
    if k < 0:
        raise ValueError("variance must be >= 0")
    if k == 0:
        return float(f(np.zeros(1))[0])
    nodes, weights = np.polynomial.hermite_e.hermegauss(deg)
    return float(np.sum(weights * f(math.sqrt(k) * nodes)) / _SQRT_2PI)


def _npdf(x):
    return np.exp(-0.5 * x * x) / _SQRT_2PI


_PHI = {
    "relu": (
        lambda x: np.maximum(x, 0.0),
        lambda x: (x > 0.0).astype(float),
        lambda x: np.zeros_like(x),
        lambda x: np.zeros_like(x),
    ),
    "gelu": (
        lambda x: x * ndtr(x),
        lambda x: ndtr(x) + x * _npdf(x),
        lambda x: _npdf(x) * (2.0 - x * x),
        lambda x: -x * _npdf(x) * (4.0 - x * x),
    ),
    "tanh": (
        np.tanh,
        lambda x: 1.0 - np.tanh(x) ** 2,
        lambda x: -2.0 * np.tanh(x) * (1.0 - np.tanh(x) ** 2),
        lambda x: -2.0 * (1.0 - np.tanh(x) ** 2) * (1.0 - 3.0 * np.tanh(x) ** 2),
    ),
    "linear": (
        lambda x: x,
        lambda x: np.ones_like(x),
        lambda x: np.zeros_like(x),
        lambda x: np.zeros_like(x),
    ),
}


@dataclass(frozen=True)
class ActivationStats:
    """Gaussian moments of an activation and its derivatives under N(0, k).

    ReLU and linear use exact values (the distributional second derivative
    of ReLU contributes nothing to these moments); smooth activations fall
    back to quadrature.
    """

    kind: str
    deg: int = 101

    def _q(self, f, k):
        return gauss_expect(f, k, self.deg)

    def e_phi2(self, k: float) -> float:
        if self.kind == "relu":
            return 0.5 * k
        if self.kind == "linear":
            return k
        if self.kind == "gelu":
            return gelu_square_moment(k)
        phi = _PHI[self.kind][0]
        return self._q(lambda x: phi(x) ** 2, k)

    def e_dphi2(self, k: float) -> float:
        if self.kind == "relu":
            return 0.5
        if self.kind == "linear":
            return 1.0
        if self.kind == "gelu":
            return gelu_deriv_square_moment(k)
        d = _PHI[self.kind][1]
        return self._q(lambda x: d(x) ** 2, k)

    def e_phi_d2phi(self, k: float) -> float:
        if self.kind in ("relu", "linear"):
            return 0.0
        _, _, d2, _ = _PHI[self.kind]
        phi = _PHI[self.kind][0]
        return self._q(lambda x: phi(x) * d2(x), k)

    def e_d2phi2_plus_dphi_d3phi(self, k: float) -> float:
        if self.kind in ("relu", "linear"):
            return 0.0
        _, d1, d2, d3 = _PHI[self.kind]
        return self._q(lambda x: d2(x) ** 2 + d1(x) * d3(x), k)


# --------------------------------------------------------------------------
# kernel recursion and susceptibilities
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanFieldState:
    """Diagonal (and, for batch-normalized nets, off-diagonal) kernel state."""

    k_diag: float
    k_offdiag: float | None = None
    layer: int = 0
    sigma_w: float = 1.0
    sigma_b: float = 0.0
    mu: float = 0.0
    a_w: float = 1.0
    a_b: float = 1.0
    bn: bool = False

    def __post_init__(self):
        if self.k_diag < 0:
            raise ValueError("k_diag must be >= 0")
        if self.k_offdiag is not None and abs(self.k_offdiag) > self.k_diag + 1e-12:
            raise ValueError("|k_offdiag| must not exceed k_diag")


def nngp_step(state: MeanFieldState, activation: str = "relu") -> MeanFieldState:
    """One layer of the wide-network kernel map.

    Plain stacks update the diagonal kernel ``sw^2 E[phi(h)^2] + sb^2``
    (with the auxiliary scalars folded into the effective sigmas). For
    batch-normalized ReLU residual stacks the normalized signal is a unit
    Gaussian, so diagonal and off-diagonal entries update by fixed
    increments plus ``mu^2`` times the carried kernel.
    """
    sw = state.a_w * state.sigma_w
    sb = state.a_b * state.sigma_b
    if state.bn:
        if activation != "relu":
            raise NotImplementedError("off-diagonal normalized kernel map is ReLU-only")
        diag = sw * sw * 0.5 + sb * sb + state.mu ** 2 * state.k_diag
        off0 = 0.0 if state.k_offdiag is None else state.k_offdiag
        off = sw * sw / (2.0 * math.pi) + sb * sb + state.mu ** 2 * off0
        return replace(state, k_diag=diag, k_offdiag=off, layer=state.layer + 1)
    stats = ActivationStats(activation)
    diag = sw * sw * stats.e_phi2(state.k_diag) + sb * sb + state.mu ** 2 * state.k_diag
    return replace(state, k_diag=diag, layer=state.layer + 1)


def iterate_kernel(state: MeanFieldState, activation: str, steps: int) -> MeanFieldState:
    for _ in range(steps):
        state = nngp_step(state, activation)
    return state


def kernel_fixed_point(state: MeanFieldState, activation: str = "relu", *,
                       tol: float = 1e-6, max_iter: int = 200) -> tuple[float, int]:
    """Iterate the diagonal kernel map to its fixed point; returns (K*, iters)."""
    k = state.k_diag
    for i in range(1, max_iter + 1):
        nxt = nngp_step(replace(state, k_diag=k), activation).k_diag
        if abs(nxt - k) <= tol:
            return nxt, i
        k = nxt
    return k, max_iter


def chi(state: MeanFieldState, activation: str = "relu") -> tuple[float, float]:
    """Susceptibilities (chi_K, chi_Delta) at the current diagonal kernel.

    chi_K = (a_w sw)^2 E[phi'^2 + phi phi''] drives kernel perturbations;
    chi_Delta = (a_w sw)^2 E[phi''^2 + phi' phi'''] drives cross-layer
    Jacobian coupling and vanishes identically for ReLU.
    """
    if state.k_diag <= 0:
        raise ValueError("chi needs k_diag > 0")
    pref = (state.a_w * state.sigma_w) ** 2
    stats = ActivationStats(activation)
    chi_k = pref * (stats.e_dphi2(state.k_diag) + stats.e_phi_d2phi(state.k_diag))
    chi_d = pref * stats.e_d2phi2_plus_dphi_d3phi(state.k_diag)
    return chi_k, chi_d


# --------------------------------------------------------------------------
# discrete ReLU tuning dynamics
# --------------------------------------------------------------------------

@dataclass
class ReluTrajectory:
    values: np.ndarray            # [T+1, L], nan after divergence
    diverged_step: list           # per layer: step index or None


def relu_dynamics(j0, sigma_w: float, eta, t_max: int, loss: str = "jll") -> ReluTrajectory:
    """Iterate the exact per-layer update map of ReLU tuning.

    Log loss:    sqrt(J') = sqrt(J) - eta * sw^2 * log(J) / sqrt(J)
    Square loss: sqrt(J') = sqrt(J) - eta * sw^2 * sqrt(J) * (J - 1)

    Layers evolve independently; ``eta`` may be a scalar or per-layer.
    A step that would drive sqrt(J) to zero or below is recorded as a
    divergence and the layer holds nan afterwards.
    """
    j = np.atleast_1d(np.asarray(j0, dtype=np.float64)).copy()
    if np.any(j <= 0):
        raise ValueError("initial norms must be positive")
    if loss not in ("jll", "jsl"):
        raise ValueError(f"dynamics defined for jll/jsl, got {loss!r}")
    eta_arr = np.broadcast_to(np.asarray(eta, dtype=np.float64), j.shape).copy()
    out = np.full((t_max + 1, j.size), np.nan)
    out[0] = j
    diverged: list = [None] * j.size
    root = np.sqrt(j)
    alive = np.ones(j.size, dtype=bool)
    for t in range(1, t_max + 1):
        r = root[alive]
        if loss == "jll":
            step = eta_arr[alive] * sigma_w ** 2 * np.log(r * r) / r
        else:
            step = eta_arr[alive] * sigma_w ** 2 * r * (r * r - 1.0)
        nxt = r - step
        bad = ~np.isfinite(nxt) | (nxt <= 0)
        idx = np.flatnonzero(alive)
        for i in idx[bad]:
            diverged[i] = t
        alive[idx[bad]] = False
        root[idx[~bad]] = nxt[~bad]
        out[t, alive] = root[alive] ** 2
    return ReluTrajectory(out, diverged)


# --------------------------------------------------------------------------
# batch-normalized residual limits
# --------------------------------------------------------------------------

def bn_kernel_at_depth(sigma_w: float, sigma_b: float, mu: float, depth: int, *,
                       k0_diag: float = 1.0, k0_offdiag: float = 0.0,
                       a_w: float = 1.0, a_b: float = 1.0) -> MeanFieldState:
    """Kernel state of the normalized ReLU residual stack after ``depth`` blocks."""
    state = MeanFieldState(k_diag=k0_diag, k_offdiag=k0_offdiag, sigma_w=sigma_w,
                           sigma_b=sigma_b, mu=mu, a_w=a_w, a_b=a_b, bn=True)
    return iterate_kernel(state, "relu", depth)


def bn_apjn_limit(state: MeanFieldState, activation: str = "relu") -> float:
    """Infinite-batch one-block norm of the normalized residual stack.

    ``(a_w sw)^2 E[phi'(z)^2] / (K_xx - K_xx') + mu^2`` with z a unit
    Gaussian. For ReLU without skips this is pi/(pi-1) independent of the
    sigmas; with unit skips the growing kernel gap drives it to 1 like 1/l.
    Non-ReLU activations are supported through quadrature but rest on an
    unproven off-diagonal kernel map, so treat them as experimental.
    """
    if state.k_offdiag is None:
        raise ValueError("need an off-diagonal kernel entry")
    gap = state.k_diag - state.k_offdiag
    if gap <= 0:
        raise SingularKernelError(f"kernel gap must be positive, got {gap}")
    e = ActivationStats(activation).e_dphi2(1.0)
    return (state.a_w * state.sigma_w) ** 2 * e / gap + state.mu ** 2


def bn_chaos_value() -> float:
    """The sigma-independent no-skip limit pi/(pi-1)."""
    return math.pi / (math.pi - 1.0)


# --------------------------------------------------------------------------
# patch-mixing residual network closed forms
# --------------------------------------------------------------------------

def gelu_square_moment(z: float) -> float:
    """E[gelu(h)^2] for h ~ N(0, z), in closed form."""
    if z < 0:
        raise ValueError("variance must be >= 0")
    if z == 0:
        return 0.0
    return (z / 4.0
            + z / (2.0 * math.pi) * math.asin(z / (1.0 + z))
            + z * z / (math.pi * (1.0 + z) * math.sqrt(1.0 + 2.0 * z)))


def gelu_deriv_square_moment(k: float) -> float:
    """E[gelu'(h)^2] for h ~ N(0, k), in closed form."""
    if k < 0:
        raise ValueError("variance must be >= 0")
    if k == 0:
        return 0.25
    return 0.25 + (1.0 / (2.0 * math.pi)) * (
        math.asin(k / (1.0 + k))
        + k * (3.0 + 5.0 * k) / ((1.0 + k) * (1.0 + 2.0 * k) ** 1.5))


def _branch_kernel(k: float, sigma_w: float, sigma_b: float, mu: float, eps_ls: float) -> float:
    # kernel entering the hidden activation of a block: the first scaled
    # residual plus the channel-mixing layer
    e2 = eps_ls * eps_ls
    return sigma_w ** 2 * (mu * mu * k + e2 * (sigma_w ** 2 * k + sigma_b ** 2)) + sigma_b ** 2


def resmlp_kernel_step(k: float, sigma_w: float, sigma_b: float, mu: float,
                       eps_ls: float, activation: str = "gelu") -> float:
    """One block of the diagonal kernel recursion of the patch-mixing net."""
    if k < 0:
        raise ValueError("kernel must be >= 0")
    e2 = eps_ls * eps_ls
    ke = _branch_kernel(k, sigma_w, sigma_b, mu, eps_ls)
    if activation == "gelu":
        g = gelu_square_moment(ke)
    elif activation == "relu":
        g = 0.5 * ke
    else:
        raise ValueError(f"no closed form for activation {activation!r}")
    return ((mu ** 4 + mu ** 2 * e2 * sigma_w ** 2) * k
            + (1.0 + mu ** 2) * e2 * sigma_b ** 2
            + e2 * sigma_w ** 2 * g)


def resmlp_apjn(k: float, sigma_w: float, sigma_b: float, mu: float,
                eps_ls: float, activation: str = "gelu") -> float:
    """Closed-form block-to-block norm of the patch-mixing residual net."""
    if k < 0:
        raise ValueError("kernel must be >= 0")
    e2 = eps_ls * eps_ls
    if activation == "gelu":
        h = gelu_deriv_square_moment(_branch_kernel(k, sigma_w, sigma_b, mu, eps_ls))
    elif activation == "relu":
        h = 0.5
    else:
        raise ValueError(f"no closed form for activation {activation!r}")
    return (mu ** 2 + e2 * sigma_w ** 2) * (mu ** 2 + e2 * sigma_w ** 4 * h)
