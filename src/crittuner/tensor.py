"""Dense float64 tensors, counter-based seeded Gaussian sampling, and the
allocator policy for large temporaries (:func:`_keep_freed_heap`, run at
import).

Tensors are plain ``numpy.ndarray`` objects in C (row-major) order; every
routine in this package produces and expects float64. Randomness flows
through :class:`RngStream`, a thin wrapper over numpy's counter-based
Philox bit generator: two streams with the same ``(seed, stream_id)`` yield
bit-identical draw sequences on any platform, and distinct stream ids give
statistically independent streams. Grid scans exploit this by assigning
``stream_id = grid index`` to each point.
"""

from __future__ import annotations

import ctypes
from typing import Sequence

import numpy as np

Array = np.ndarray

_U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Make glibc reuse freed memory for multi-megabyte numpy temporaries.

    glibc's defaults hand large freed blocks (``a * W`` in a dense forward,
    exact-basis stacks, fresh weight draws) back to the kernel, by
    unmapping a block above its adaptive mmap threshold or trimming the
    top of the heap, so the next allocation of the same size pays one page
    fault per 4 KB page (about 485 per 2 MB array). Here blocks below
    32 MiB come from the heap, and the heap is trimmed only above 1 GiB
    free, so a process keeps the memory it freed until it exits. Both
    thresholds are set together: setting either one alone turns off the
    adaptive threshold and faults more than the defaults. Results are
    unchanged; only addresses move. Where ``mallopt`` is missing or refuses
    the value, the allocator is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_keep_freed_heap()


def _splitmix64(x: int) -> int:
    """One round of splitmix64; mixes ids so derived streams never collide."""
    x = (x + _GOLDEN) & _U64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return (z ^ (z >> 31)) & _U64


class RngStream:
    """Seedable, splittable random stream with a monotone draw counter.

    ``seed`` identifies the experiment, ``stream_id`` the lane within it.
    ``child(tag)`` derives an independent lane deterministically, so worker
    pools can be given disjoint streams up front and results do not depend
    on scheduling. Each stream instance must be used by one worker at a
    time.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _U64
        self.stream_id = int(stream_id) & _U64
        self.counter = 0
        self._gen = np.random.Generator(
            np.random.Philox(key=[self.seed, _splitmix64(self.stream_id)])
        )

    def child(self, tag: int) -> "RngStream":
        """Derive an independent stream; same (seed, id, tag) -> same stream."""
        mixed = _splitmix64(self.stream_id ^ _splitmix64(int(tag) & _U64))
        return RngStream(self.seed, mixed)

    def normal(self, shape: Sequence[int] | int, mean: float = 0.0, std: float = 1.0) -> Array:
        if std < 0:
            raise ValueError(f"standard deviation must be >= 0, got {std}")
        shape = (shape,) if isinstance(shape, int) else tuple(int(s) for s in shape)
        self.counter += int(np.prod(shape)) if shape else 1
        out = self._gen.normal(loc=mean, scale=std, size=shape)
        return np.asarray(out, dtype=np.float64)

    def integers(self, low: int, high: int, size: int | None = None):
        self.counter += 1 if size is None else int(size)
        return self._gen.integers(low, high, size=size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, counter={self.counter})"


def flatten_batch(t: Array) -> Array:
    """Flatten all but the leading (batch) axis: [B, ...] -> [B, N]."""
    return np.ascontiguousarray(t).reshape(t.shape[0], -1)
