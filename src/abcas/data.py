"""Synthetic datasets and the ABT1 binary tensor file format.

Datasets are pure functions of (spec, seed) and live in [-1, 1] to match
the generator's Tanh output. The file format stores one float32 tensor:

    magic "ABT1" | dtype u8 (0 = float32) | ndim u8 |
    ndim x u32 little-endian extents | row-major little-endian payload
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DatasetSpec",
    "TensorFileError",
    "generate_blobs",
    "generate_ring2d",
    "read_tensor_file",
    "write_tensor_file",
]


@dataclass
class DatasetSpec:
    """Dataset selection (ring2d, blobs or an ABT1 file); each field is its config key."""

    dataset: str = "ring2d"
    dataset_size: int = 4096
    data_seed: int = -1          # -1: follow the run seed (Settings.dataset_spec resolves it)
    ring_modes: int = 8
    ring_radius: float = 0.7
    ring_sigma: float = 0.05
    img_size: int = 16
    data_path: str = ""

    def validate(self) -> None:
        if self.dataset not in ("ring2d", "blobs", "file"):
            raise ValueError(f"dataset must be ring2d, blobs or file, got {self.dataset!r}")
        if self.data_seed < -1:
            raise ValueError(f"data_seed must be -1 (follow the run seed) or non-negative, "
                             f"got {self.data_seed}")
        if self.dataset != "file" and self.dataset_size < 2:
            raise ValueError(f"dataset_size must be at least 2, got {self.dataset_size}")
        if self.dataset == "ring2d":
            if self.ring_modes < 1:
                raise ValueError(f"ring_modes must be at least 1, got {self.ring_modes}")
            if not np.isfinite(self.ring_radius):
                raise ValueError(f"ring_radius must be finite, got {self.ring_radius}")
            if not 0.0 < self.ring_sigma < np.inf:
                raise ValueError(f"ring_sigma must be positive and finite, got {self.ring_sigma}")
        if self.dataset == "blobs" and self.img_size not in (8, 16, 32):
            raise ValueError(f"img_size must be 8, 16 or 32 for blobs, got {self.img_size}")
        if self.dataset == "file" and not self.data_path:
            raise ValueError(f"data_path must name a file for dataset = file, got {self.data_path!r}")

    def load(self) -> np.ndarray:
        """The dataset as float32. Non-finite samples raise ``ValueError``
        naming the keys that produced them (``TensorFileError`` for files)."""
        self.validate()
        if self.dataset != "file" and self.data_seed == -1:
            raise ValueError("data_seed must be resolved to the run seed before loading, got -1")
        if self.dataset == "ring2d":
            with np.errstate(over="ignore"):  # an overflow is reported below
                arr = generate_ring2d(self.dataset_size, self.ring_modes, self.ring_radius,
                                      self.ring_sigma, self.data_seed)
            keys = f"ring_radius = {self.ring_radius:g} and ring_sigma = {self.ring_sigma:g}"
        elif self.dataset == "blobs":
            arr = generate_blobs(self.dataset_size, self.img_size, self.data_seed)
            keys = f"img_size = {self.img_size}"
        else:
            arr = read_tensor_file(self.data_path)
            if arr.ndim == 0 or len(arr) < 2:
                raise TensorFileError(f"{self.data_path}: need at least 2 samples, "
                                      f"shape is {arr.shape}")
            if arr.size == 0:
                raise TensorFileError(f"{self.data_path}: need at least one value per sample, "
                                      f"sample shape is {arr.shape[1:]}")
            if not np.all(np.isfinite(arr)):
                raise TensorFileError(f"{self.data_path}: non-finite values in the dataset")
            return arr
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{keys} give non-finite float32 {self.dataset} samples")
        return arr


def generate_ring2d(n: int, k_modes: int = 8, radius: float = 0.7,
                    sigma: float = 0.05, seed: int = 0) -> np.ndarray:
    """Mixture of k Gaussians centered on a ring, (n, 2) float32."""
    rng = np.random.default_rng([seed, 101])
    angles = 2.0 * np.pi * rng.integers(0, k_modes, size=n) / k_modes
    centers = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pts = centers + sigma * rng.standard_normal((n, 2))
    return pts.astype(np.float32)


def generate_blobs(n: int, img_size: int = 16, seed: int = 0) -> np.ndarray:
    """Grayscale Gaussian bumps at uniform random centers, (n, 1, s, s) in [-1, 1]."""
    rng = np.random.default_rng([seed, 202])
    s = img_size
    cx = rng.uniform(0.0, s, size=n)
    cy = rng.uniform(0.0, s, size=n)
    grid = np.arange(s, dtype=np.float64)
    tau = s / 6.0
    # 2 exp(-((x - cx)^2 + (y - cy)^2) / (2 tau^2)) - 1, one ufunc at a time
    # in place in one (n, s, s) array; a row's (y - cy)^2 is one (n, s, 1)
    imgs = np.subtract(grid, cx[:, None, None], out=np.empty((n, s, s)))
    imgs **= 2
    dy2 = grid[:, None] - cy[:, None, None]
    dy2 **= 2
    imgs += dy2
    np.negative(imgs, out=imgs)
    imgs /= 2.0 * tau * tau
    np.exp(imgs, out=imgs)
    imgs *= 2.0
    imgs -= 1.0
    return imgs[:, None, :, :].astype(np.float32)


# ---------------------------------------------------------------------------
# ABT1 tensor files

MAGIC = b"ABT1"
DTYPE_F32 = 0
MAX_ELEMENTS = 2**31


class TensorFileError(ValueError):
    """A malformed ABT1 file, or a tensor too large for one."""


def write_tensor_file(path, arr: np.ndarray) -> None:
    """Write one tensor as float32. Non-finite payloads are rejected."""
    arr = np.ascontiguousarray(arr, dtype=np.float32)
    if not np.isfinite(arr).all():
        raise ValueError(f"non-finite values in tensor payload for {path}")
    if arr.size > MAX_ELEMENTS:
        raise TensorFileError(f"{arr.size} elements exceed the 2^31 cap")
    header = MAGIC + struct.pack("<BB", DTYPE_F32, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.astype("<f4", copy=False).tobytes())


def read_tensor_file(path) -> np.ndarray:
    """Read an ABT1 file back as a float32 array, bit-identical to the write."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise TensorFileError(f"{path}: file shorter than the magic")
    if blob[:4] != MAGIC:
        raise TensorFileError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 6:
        raise TensorFileError(f"{path}: header truncated")
    dtype_code, ndim = struct.unpack_from("<BB", blob, 4)
    if dtype_code != DTYPE_F32:
        raise TensorFileError(f"{path}: unknown dtype code {dtype_code}")
    offset = 6 + 4 * ndim
    if len(blob) < offset:
        raise TensorFileError(f"{path}: extents truncated")
    shape = struct.unpack_from(f"<{ndim}I", blob, 6)
    count = math.prod(shape)
    if count > MAX_ELEMENTS:
        raise TensorFileError(f"{path}: {count} elements exceed the 2^31 cap")
    size = len(blob) - offset
    if size < 4 * count:
        raise TensorFileError(f"{path}: payload has {size} bytes, expected {4 * count}")
    if size > 4 * count:
        raise TensorFileError(f"{path}: {size - 4 * count} trailing bytes")
    # a view of the blob, so the read holds the payload twice: the blob and the copy
    arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset).reshape(shape)
    return arr.astype(np.float32, copy=True)
