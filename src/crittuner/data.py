"""Input batches: synthetic Gaussian data and the 32x32 RGB binary format.

The binary loader reads fixed 3073-byte records (1 label byte followed by
3072 channel-major pixel bytes). Relative paths resolve against the
``CRIT_TUNER_DATA`` environment variable when they name no file as given.
Synthetic batches are drop-in replacements: same shapes, same downstream
behavior.
"""

from __future__ import annotations

import os

import numpy as np

from .blocks import normalize_unit_second_moment
from .config import DataConfig
from .tensor import Array, RngStream

RECORD_BYTES = 3073
IMAGE_SHAPE = (3, 32, 32)

DATA_ENV = "CRIT_TUNER_DATA"


class FormatError(ValueError):
    """Input file does not match the expected binary layout."""


def resolve_data_path(path: str) -> str:
    """``path``, or else ``path`` under ``$CRIT_TUNER_DATA``, whichever is a
    regular file first; a directory is not a data file."""
    if os.path.isfile(path):
        return path
    root = os.environ.get(DATA_ENV, "")
    if root:
        candidate = os.path.join(root, path)
        if os.path.isfile(candidate):
            return candidate
    raise FormatError(f"data file not found: {path!r} (also tried ${DATA_ENV})")


def load_cifar10(path: str, n: int, normalize: bool = True) -> Array:
    """First ``n`` images as float64 [n, 3, 32, 32] scaled to [0, 1].

    With ``normalize`` each sample is shifted and scaled to zero mean and
    unit variance over its 3072 values.
    """
    path = resolve_data_path(path)
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0 or raw.size % RECORD_BYTES:
        raise FormatError(
            f"{path!r}: size {raw.size} is not a multiple of {RECORD_BYTES}-byte records")
    n_records = raw.size // RECORD_BYTES
    if n > n_records:
        raise FormatError(f"{path!r}: requested {n} images, file holds {n_records}")
    records = raw.reshape(n_records, RECORD_BYTES)[:n]
    imgs = records[:, 1:].astype(np.float64).reshape(n, *IMAGE_SHAPE) / 255.0
    if normalize:
        flat = imgs.reshape(n, -1)
        mean = flat.mean(axis=1, keepdims=True)
        std = flat.std(axis=1, keepdims=True)
        std = np.where(std == 0.0, 1.0, std)
        imgs = ((flat - mean) / std).reshape(n, *IMAGE_SHAPE)
    return imgs


def gaussian_batch(input_shape: tuple[int, ...], n: int, rng: RngStream,
                   normalize: bool = True) -> Array:
    x = rng.normal((n, *input_shape))
    return normalize_unit_second_moment(x) if normalize else x


def make_batch(data: DataConfig, input_shape: tuple[int, ...], rng: RngStream) -> Array:
    """Batch for a network input shape from the configured source."""
    if data.source == "gaussian-synthetic":
        return gaussian_batch(input_shape, data.batch, rng, data.normalize)
    imgs = load_cifar10(data.path, data.batch, data.normalize)
    if input_shape == IMAGE_SHAPE:
        return imgs
    if len(input_shape) == 1 and input_shape[0] == int(np.prod(IMAGE_SHAPE)):
        return imgs.reshape(data.batch, -1)
    raise FormatError(
        f"network input {input_shape} incompatible with {IMAGE_SHAPE} images")
