"""Frozen visual encoders: deterministic stubs plus a binary embedding file.

The stubs stand in for large pretrained encoders; their weights are drawn
once from a seed and never receive gradients.  The file format carries
embeddings extracted offline by real encoders.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"JVEM"
VERSION = 1
_HEADER = struct.Struct("<4sHIII")


class BadMagic(ValueError):
    pass


class VersionMismatch(ValueError):
    pass


class TruncatedPayload(ValueError):
    pass


@dataclass
class EmbeddingFile:
    count: int
    n_patches: int
    dim: int
    payload: np.ndarray  # (count, n_patches, dim) float32

    def __post_init__(self):
        self.payload = np.ascontiguousarray(self.payload, dtype="<f4")
        if self.payload.shape != (self.count, self.n_patches, self.dim):
            raise ValueError("payload shape does not match header")
        if self.dim <= 0:
            raise ValueError("dim must be positive")


def write_embedding_file(ef: EmbeddingFile, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, ef.count, ef.n_patches, ef.dim))
        fh.write(ef.payload.tobytes())


def read_embedding_file(path) -> EmbeddingFile:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise TruncatedPayload("header truncated")
        magic, version, count, n_patches, dim = _HEADER.unpack(head)
        if magic != MAGIC:
            raise BadMagic(f"bad magic {magic!r}")
        if version != VERSION:
            raise VersionMismatch(f"unsupported version {version}")
        raw = fh.read()
    expect = count * n_patches * dim * 4
    if len(raw) != expect:
        raise TruncatedPayload(f"payload is {len(raw)} bytes, expected {expect}")
    payload = np.frombuffer(raw, dtype="<f4").reshape(count, n_patches, dim)
    return EmbeddingFile(count, n_patches, dim, payload.copy())


class StubEncoder:
    """Per-patch affine map (optionally tanh-squashed) with seeded weights."""

    def __init__(self, seed: int, patch_pixels: int, out_dim: int,
                 nonlinear: bool = False):
        rng = np.random.default_rng([seed, 0x5E])
        self.seed = seed
        self.patch_pixels = patch_pixels
        self.out_dim = out_dim
        self.nonlinear = nonlinear
        self.weight = rng.normal(0.0, 1.0 / np.sqrt(patch_pixels),
                                 size=(patch_pixels, out_dim))
        self.bias = rng.normal(0.0, 0.1, size=out_dim)

    def encode(self, pixels: np.ndarray) -> np.ndarray:
        pixels = np.asarray(pixels, dtype=np.float64)
        if pixels.ndim != 2 or pixels.shape[1] != self.patch_pixels:
            raise ValueError("expected (n_patches, patch_pixels) pixels")
        out = pixels @ self.weight + self.bias
        return np.tanh(out) if self.nonlinear else out

    def state(self) -> dict:
        return {"weight": self.weight.copy(), "bias": self.bias.copy()}
