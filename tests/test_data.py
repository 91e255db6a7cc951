import numpy as np
import pytest

from crittuner.config import DataConfig
from crittuner.data import (
    FormatError,
    RECORD_BYTES,
    gaussian_batch,
    load_cifar10,
    make_batch,
)
from crittuner.tensor import RngStream


def _write_fake_cifar(path, n, seed=0):
    rng = np.random.default_rng(seed)
    rec = rng.integers(0, 256, size=(n, RECORD_BYTES), dtype=np.uint8).astype(np.uint8)
    rec.tofile(path)


def test_loader_shape_and_range(tmp_path):
    path = tmp_path / "batch.bin"
    _write_fake_cifar(path, 20)
    imgs = load_cifar10(str(path), 16, normalize=False)
    assert imgs.shape == (16, 3, 32, 32)
    assert imgs.dtype == np.float64
    assert imgs.min() >= 0.0 and imgs.max() <= 1.0


def test_loader_per_sample_standardization(tmp_path):
    path = tmp_path / "batch.bin"
    _write_fake_cifar(path, 8)
    imgs = load_cifar10(str(path), 8, normalize=True)
    flat = imgs.reshape(8, -1)
    assert np.max(np.abs(flat.mean(axis=1))) < 1e-10
    assert np.max(np.abs(flat.var(axis=1) - 1.0)) < 1e-10


def test_loader_rejects_truncated_file(tmp_path):
    path = tmp_path / "bad.bin"
    with open(path, "wb") as fh:
        fh.write(b"\x00" * (RECORD_BYTES * 3 + 17))
    with pytest.raises(FormatError, match="multiple"):
        load_cifar10(str(path), 2)


def test_loader_rejects_short_record_count(tmp_path):
    path = tmp_path / "small.bin"
    _write_fake_cifar(path, 4)
    with pytest.raises(FormatError, match="holds"):
        load_cifar10(str(path), 10)


def test_missing_file_and_env_root(tmp_path, monkeypatch):
    with pytest.raises(FormatError, match="not found"):
        load_cifar10("nope.bin", 2)
    _write_fake_cifar(tmp_path / "train.bin", 4)
    monkeypatch.setenv("CRIT_TUNER_DATA", str(tmp_path))
    imgs = load_cifar10("train.bin", 4)
    assert imgs.shape == (4, 3, 32, 32)


def test_directory_is_not_a_data_file(tmp_path, monkeypatch):
    # a directory given as the path, or reached from an empty path through
    # the data root, is no file: "not found", not an IsADirectoryError
    monkeypatch.delenv("CRIT_TUNER_DATA", raising=False)
    with pytest.raises(FormatError, match="not found"):
        load_cifar10(str(tmp_path), 2)
    monkeypatch.setenv("CRIT_TUNER_DATA", str(tmp_path))
    with pytest.raises(FormatError, match="not found"):
        load_cifar10("", 2)


def test_gaussian_batch_normalized():
    x = gaussian_batch((3, 8, 8), 10, RngStream(1))
    assert x.shape == (10, 3, 8, 8)
    m = (x.reshape(10, -1) ** 2).mean(axis=1)
    assert np.allclose(m, 1.0, atol=1e-12)


def test_make_batch_sources_interchangeable(tmp_path):
    path = tmp_path / "b.bin"
    _write_fake_cifar(path, 6)
    flat = make_batch(DataConfig("cifar10-binary", str(path), 6, True), (3072,),
                      RngStream(0))
    assert flat.shape == (6, 3072)
    img = make_batch(DataConfig("cifar10-binary", str(path), 6, True), (3, 32, 32),
                     RngStream(0))
    assert img.shape == (6, 3, 32, 32)
    synth = make_batch(DataConfig("gaussian-synthetic", "", 6, True), (3, 32, 32),
                       RngStream(0))
    assert synth.shape == img.shape
    with pytest.raises(FormatError, match="incompatible"):
        make_batch(DataConfig("cifar10-binary", str(path), 6, True), (17,), RngStream(0))
