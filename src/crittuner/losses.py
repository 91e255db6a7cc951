"""Tuning objectives built from per-pair Jacobian norms and boundary kernels.

All three losses are pure functions. The log loss penalizes squared log
norms, the square loss squared deviations from 1, and the kernel-augmented
variant adds squared log ratios of adjacent boundary kernels weighted by
``lam``. Each loss sums over every pair it is given; the tuner picks which
pairs (and so which kernels) enter. ``kernel_profile`` reads the kernels off
a forward state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import ForwardState


@dataclass
class LossValue:
    """Loss total, per-pair terms, and the partials of the total with
    respect to each norm (``dj``) and each kernel (``dk``, None for losses
    that take no kernels)."""

    total: float
    terms: list
    dj: np.ndarray
    dk: np.ndarray | None = None


def _as_positive(j, what: str) -> np.ndarray:
    arr = np.asarray(j, dtype=np.float64)
    if np.any(arr <= 0):
        raise ValueError(f"{what} must be strictly positive, got {arr}")
    return arr


def jll(j) -> LossValue:
    """Half the sum of squared log norms; zero iff every norm is 1."""
    arr = _as_positive(j, "Jacobian norms")
    terms = 0.5 * np.log(arr) ** 2
    return LossValue(math.fsum(terms), terms.tolist(), np.log(arr) / arr)


def jsl(j) -> LossValue:
    """Half the sum of squared deviations from 1."""
    arr = np.asarray(j, dtype=np.float64)
    terms = 0.5 * (arr - 1.0) ** 2
    return LossValue(math.fsum(terms), terms.tolist(), arr - 1.0)


def jkl(j, k, lam: float) -> LossValue:
    """Log loss plus ``lam/2`` times squared log kernel ratios.

    ``j`` holds pair norms (pair ``l`` connects boundaries ``l`` and
    ``l+1``), ``k`` the per-boundary kernels (one entry more than ``j``).
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    j = _as_positive(j, "Jacobian norms")
    k = _as_positive(k, "kernels")
    if len(k) != len(j) + 1:
        raise ValueError(f"need one kernel per boundary: {len(j)} pairs vs {len(k)} kernels")
    logj = np.log(j)
    ratio = np.log(k[1:] / k[:-1])
    terms = (0.5 * logj ** 2 + 0.5 * lam * ratio ** 2).tolist()
    dk = np.zeros_like(k)
    dk[1:] += lam * ratio / k[1:]
    dk[:-1] -= lam * ratio / k[:-1]
    return LossValue(math.fsum(terms), terms, logj / j, dk)


def kernel_profile(state: ForwardState) -> np.ndarray:
    """Empirical diagonal kernel per boundary: mean squared flattened activation."""
    return np.array([float((a * a).mean()) for a in state.boundaries])
