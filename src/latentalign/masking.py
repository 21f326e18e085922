"""Block mask sampling over a patch grid.

A mask pairs one large visible context block with ``k`` smaller target
blocks; any patch claimed by a target is removed from the context so the
visible input never contains what must be predicted.
"""

from __future__ import annotations

import random

import numpy as np
from dataclasses import dataclass, field

RETRY_BUDGET = 100


class ResampleExhausted(RuntimeError):
    """Sampling could not satisfy the constraints within the retry budget."""


class InputError(ValueError):
    """Input read from outside the program (a config, a mask spec, a
    checkpoint) that cannot describe a run."""


@dataclass(frozen=True)
class PatchGrid:
    rows: int = 4
    cols: int = 4

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid extents must be positive")

    @property
    def n(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class BlockSpec:
    top: int
    left: int
    height: int
    width: int
    scale: float | None = None   # draw that produced this block, if sampled
    aspect: float | None = None


@dataclass
class SamplerConfig:
    k: int = 4
    target_scale: tuple = (0.15, 0.20)
    target_aspect: tuple = (0.75, 1.5)
    context_scale: tuple = (0.85, 1.0)
    context_aspect: tuple = (0.75, 1.5)
    allow_overlap: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        for name in ("target_scale", "target_aspect", "context_scale",
                     "context_aspect"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi):
                raise ValueError(f"{name} must be a nonempty positive interval")
            setattr(self, name, (lo, hi))


@dataclass
class MaskSpec:
    context: frozenset
    targets: list = field(default_factory=list)
    target_union: frozenset = frozenset()
    context_block: BlockSpec | None = None
    target_blocks: list = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return {
            "context": sorted(self.context),
            "targets": [sorted(t) for t in self.targets],
            "context_block": vars(self.context_block),
            "target_blocks": [vars(b) for b in self.target_blocks],
        }

    @classmethod
    def from_json_obj(cls, doc) -> MaskSpec:
        """Reads ``context`` and ``targets`` of a ``to_json_obj`` document;
        the block records are not read back."""
        if not isinstance(doc, dict) or not {"context", "targets"} <= set(doc):
            raise InputError("a mask spec is an object with context and "
                             "targets")
        targets = doc["targets"]
        if not (_is_index_list(doc["context"]) and isinstance(targets, list)
                and all(map(_is_index_list, targets))):
            raise InputError("mask spec context and targets must be lists "
                             "of patch indices")
        context = frozenset(doc["context"])
        tsets = [frozenset(t) for t in targets]
        union = frozenset().union(*tsets)
        if not context or context & union:
            raise InputError("mask spec context must be nonempty and "
                             "disjoint from the targets")
        return cls(context=context, targets=tsets, target_union=union)


def _is_index_list(x) -> bool:
    return isinstance(x, list) and all(
        type(i) is int and i >= 0 for i in x)


def _round_half_up(x: float) -> int:
    return int(x + 0.5)


def sample_block(grid: PatchGrid, scale: float, aspect: float,
                 rng: random.Random) -> BlockSpec:
    """Sample a block whose area is ~scale*N with the given aspect ratio."""
    h, w = _block_dims(grid, scale, aspect)
    top = rng.randint(0, grid.rows - h)
    left = rng.randint(0, grid.cols - w)
    return BlockSpec(top, left, h, w, scale=scale, aspect=aspect)


def block_indices(b: BlockSpec, grid: PatchGrid) -> frozenset:
    return frozenset(r * grid.cols + c
                     for r in range(b.top, b.top + b.height)
                     for c in range(b.left, b.left + b.width))


def _block_dims(grid: PatchGrid, scale: float, aspect: float):
    area = scale * grid.n
    h = min(max(_round_half_up((area * aspect) ** 0.5), 1), grid.rows)
    w = min(max(_round_half_up((area / aspect) ** 0.5), 1), grid.cols)
    return h, w


def _place_disjoint(grid: PatchGrid, h: int, w: int, accepted,
                    rng: random.Random):
    """Uniform placement among those disjoint from accepted blocks
    (the same distribution rejection sampling converges to)."""
    n_cols = grid.cols - w + 1
    valid = np.ones((grid.rows - h + 1, n_cols), dtype=bool)
    for b in accepted:
        t0 = max(0, b.top - h + 1)
        t1 = min(grid.rows - h, b.top + b.height - 1)
        l0 = max(0, b.left - w + 1)
        l1 = min(n_cols - 1, b.left + b.width - 1)
        valid[t0: t1 + 1, l0: l1 + 1] = False
    flat = np.flatnonzero(valid)
    if not flat.size:
        return None
    pick = int(flat[rng.randrange(flat.size)])
    return pick // n_cols, pick % n_cols


def _sample_targets(grid: PatchGrid, cfg: SamplerConfig, tscale: float,
                    rng: random.Random):
    for _ in range(RETRY_BUDGET):
        blocks: list[BlockSpec] = []
        for _block in range(cfg.k):
            if cfg.allow_overlap:
                blocks.append(sample_block(grid, tscale,
                                           rng.uniform(*cfg.target_aspect),
                                           rng))
                continue
            # aspect barely moves the dims; a dead end is better handled
            # by restarting the whole draw than by re-rolling aspect
            for _attempt in range(8):
                aspect = rng.uniform(*cfg.target_aspect)
                h, w = _block_dims(grid, tscale, aspect)
                pos = _place_disjoint(grid, h, w, blocks, rng)
                if pos is not None:
                    blocks.append(BlockSpec(pos[0], pos[1], h, w,
                                            scale=tscale, aspect=aspect))
                    break
        if len(blocks) == cfg.k:
            return blocks, [block_indices(b, grid) for b in blocks]
    raise ResampleExhausted("could not sample pairwise-disjoint target blocks")


def sample_mask(grid: PatchGrid, cfg: SamplerConfig,
                rng: random.Random) -> MaskSpec:
    """Draw one context block and k target blocks, removing targets from
    the context.  The target scale is drawn once and shared by the k blocks.
    """
    for _ in range(RETRY_BUDGET):
        tscale = rng.uniform(*cfg.target_scale)
        tblocks, tsets = _sample_targets(grid, cfg, tscale, rng)
        union = frozenset().union(*tsets)
        cblock = sample_block(grid, rng.uniform(*cfg.context_scale),
                              rng.uniform(*cfg.context_aspect), rng)
        context = block_indices(cblock, grid) - union
        if context:
            return MaskSpec(context=context, targets=list(tsets),
                            target_union=union, context_block=cblock,
                            target_blocks=tblocks)
    raise ResampleExhausted("context empty after target removal")
