"""Procedural image-caption fixtures.

Scenes are 1-3 solid colored rectangles, each filling one quadrant of the
patch grid, so neighboring patches inside a rectangle share pixels and the
caption is a lossless function of the scene.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .masking import PatchGrid

PATCH_SIDE = 4
CHANNELS = 3
PATCH_PIXELS = PATCH_SIDE * PATCH_SIDE * CHANNELS

COLORS = {
    "red": (0.9, 0.1, 0.1),
    "green": (0.1, 0.8, 0.15),
    "blue": (0.12, 0.2, 0.9),
    "yellow": (0.85, 0.8, 0.1),
}
QUADRANTS = ("tl", "tr", "bl", "br")
COUNTS = ("one", "two", "three")
BACKGROUND = 0.25
# BOS, count, one (color, quadrant) pair per rectangle, EOS
MAX_CAPTION_LEN = 3 + 2 * len(COUNTS)


@dataclass
class SyntheticVocab:
    size: int = 64
    bos: int = field(default=1, init=False)
    eos: int = field(default=2, init=False)
    word_ids: dict = field(init=False)

    def __post_init__(self):
        words = COUNTS + tuple(COLORS) + QUADRANTS
        self.word_ids = {w: i for i, w in enumerate(words, self.eos + 1)}
        if self.eos + 1 + len(words) > self.size:
            raise ValueError("vocabulary too small for the caption grammar")

    def id_of(self, word: str) -> int:
        return self.word_ids[word]


@dataclass
class SyntheticSample:
    pixels: np.ndarray          # (N, PATCH_PIXELS) in [0, 1]
    caption: np.ndarray         # token ids, BOS ... EOS
    scene: list                 # [(color, quadrant), ...]


def _quadrant_bounds(grid: PatchGrid, quad: str):
    half_r = max(grid.rows // 2, 1)
    half_c = max(grid.cols // 2, 1)
    r0 = 0 if quad in ("tl", "tr") else half_r
    c0 = 0 if quad in ("tl", "bl") else half_c
    r1 = half_r if quad in ("tl", "tr") else grid.rows
    c1 = half_c if quad in ("tl", "bl") else grid.cols
    return r0, r1, c0, c1


def render(grid: PatchGrid, scene) -> np.ndarray:
    """Rasterize a scene into per-patch flattened pixel vectors."""
    h = grid.rows * PATCH_SIDE
    w = grid.cols * PATCH_SIDE
    img = np.full((h, w, CHANNELS), BACKGROUND)
    for color, quad in scene:
        r0, r1, c0, c1 = _quadrant_bounds(grid, quad)
        img[r0 * PATCH_SIDE: r1 * PATCH_SIDE,
            c0 * PATCH_SIDE: c1 * PATCH_SIDE] = COLORS[color]
    patches = img.reshape(grid.rows, PATCH_SIDE, grid.cols, PATCH_SIDE, CHANNELS)
    patches = patches.transpose(0, 2, 1, 3, 4).reshape(grid.n, PATCH_PIXELS)
    return patches


def caption_for(scene, vocab: SyntheticVocab) -> np.ndarray:
    ids = [vocab.bos, vocab.id_of(COUNTS[len(scene) - 1])]
    for color, quad in scene:
        ids.append(vocab.id_of(color))
        ids.append(vocab.id_of(quad))
    ids.append(vocab.eos)
    return np.array(ids, dtype=np.int64)


def make_sample(seed: int, index: int, grid: PatchGrid,
                vocab: SyntheticVocab) -> SyntheticSample:
    if grid.rows < 2 or grid.cols < 2:
        raise ValueError("grid too small for quadrant scenes")
    rng = np.random.default_rng([seed, index])
    count = int(rng.integers(1, 4))
    quads = list(rng.choice(len(QUADRANTS), size=count, replace=False))
    scene = [(list(COLORS)[int(rng.integers(len(COLORS)))], QUADRANTS[q])
             for q in quads]
    return SyntheticSample(pixels=render(grid, scene),
                           caption=caption_for(scene, vocab), scene=scene)


def generate(seed: int, n: int, grid: PatchGrid,
             vocab: SyntheticVocab | None = None) -> list[SyntheticSample]:
    if n < 1:
        raise ValueError("need at least one sample")
    vocab = vocab or SyntheticVocab()
    return [make_sample(seed, i, grid, vocab) for i in range(n)]

