"""Tuning objectives built from per-pair Jacobian norms and boundary kernels.

All three losses are pure functions. The log loss penalizes squared log
norms, the square loss squared deviations from 1, and the kernel-augmented
variant adds squared log ratios of adjacent boundary kernels weighted by
``lam``. The summation range is caller-selectable because the input/output
pairs can be included or not; ``span=(lo, hi)`` keeps pair terms ``lo..hi-1``
and the matching kernel ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import BatchActivations


@dataclass
class LossValue:
    """Loss total, per-pair terms, and the partials of the total with
    respect to each norm (``dj``) and each kernel (``dk``, None for losses
    that take no kernels)."""

    total: float
    terms: list
    dj: np.ndarray
    dk: np.ndarray | None = None

    def __float__(self) -> float:
        return self.total


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


def jkl(j, k, lam: float, span: tuple[int, int] | None = None) -> LossValue:
    """Log loss plus ``lam/2`` times squared log kernel ratios.

    ``j`` holds pair norms (pair ``l`` connects boundaries ``l`` and
    ``l+1``), ``k`` the per-boundary kernels (one entry more than ``j``).
    ``span=(lo, hi)`` restricts to pairs ``lo..hi-1``.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    j = _as_positive(j, "Jacobian norms")
    k = _as_positive(k, "kernels")
    if len(k) != len(j) + 1:
        raise ValueError(f"need one kernel per boundary: {len(j)} pairs vs {len(k)} kernels")
    lo, hi = (0, len(j)) if span is None else span
    if not 0 <= lo < hi <= len(j):
        raise ValueError(f"bad span {span} for {len(j)} pairs")
    logj = np.log(j[lo:hi])
    ratio = np.log(k[lo + 1:hi + 1] / k[lo:hi])
    terms = (0.5 * logj ** 2 + 0.5 * lam * ratio ** 2).tolist()
    dj = np.zeros_like(j)
    dj[lo:hi] = logj / j[lo:hi]
    dk = np.zeros_like(k)
    dk[lo + 1:hi + 1] += lam * ratio / k[lo + 1:hi + 1]
    dk[lo:hi] -= lam * ratio / k[lo:hi]
    return LossValue(math.fsum(terms), terms, dj, dk)


def kernel_profile(acts: BatchActivations) -> np.ndarray:
    """Empirical diagonal kernel per boundary: mean squared flattened activation."""
    return np.array([float((a * a).mean()) for a in acts.boundaries])
