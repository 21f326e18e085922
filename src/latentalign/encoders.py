"""Frozen visual encoders: deterministic stubs.

The stubs stand in for large pretrained encoders; their weights are drawn
once from a seed and never receive gradients.
"""

from __future__ import annotations

import numpy as np

from .data import PATCH_PIXELS

# fixed seeds: no run varies the frozen pretrained encoders stubbed here
CTX_SEED, TGT_SEED = 11, 22


class StubEncoder:
    """Per-patch affine map (optionally tanh-squashed) with seeded weights,
    from PATCH_PIXELS pixels to ``out_dim`` features."""

    def __init__(self, seed: int, out_dim: int, nonlinear: bool = False):
        rng = np.random.default_rng([seed, 0x5E])
        self.nonlinear = nonlinear
        self.weight = rng.normal(0.0, 1.0 / np.sqrt(PATCH_PIXELS),
                                 size=(PATCH_PIXELS, out_dim))
        self.bias = rng.normal(0.0, 0.1, size=out_dim)

    def encode(self, pixels: np.ndarray) -> np.ndarray:
        pixels = np.asarray(pixels, dtype=np.float64)
        if pixels.ndim != 2 or pixels.shape[1] != PATCH_PIXELS:
            raise ValueError("expected (n_patches, PATCH_PIXELS) pixels")
        out = pixels @ self.weight + self.bias
        return np.tanh(out) if self.nonlinear else out
