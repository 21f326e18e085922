"""Block mask sampler: dimension formula, disjointness, determinism."""

import dataclasses
import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentalign.masking import (RETRY_BUDGET, BlockSpec, MaskSpec, PatchGrid,
                                 ResampleExhausted, SamplerConfig,
                                 _block_dims, _place_disjoint,
                                 block_indices, sample_block, sample_mask)


def test_block_dims_hand_values():
    grid = PatchGrid(4, 4)
    # area = 0.16 * 16 = 2.56, aspect 1: h = w = round(1.6) = 2
    assert _block_dims(grid, 0.16, 1.0) == (2, 2)
    # area = 0.9 * 16 = 14.4, aspect 1: round(3.79) = 4, clamped inside grid
    assert _block_dims(grid, 0.9, 1.0) == (4, 4)
    # aspect skews height over width: area*aspect = 5.12 -> h = 2; w = 1.6/sqrt(2) -> 2
    h, w = _block_dims(grid, 0.16, 2.0)
    assert h == round((0.16 * 16 * 2.0) ** 0.5)
    assert w == round((0.16 * 16 / 2.0) ** 0.5)


def test_block_dims_clamped_to_grid_and_one():
    grid = PatchGrid(2, 8)
    h, w = _block_dims(grid, 0.9, 4.0)
    assert 1 <= h <= 2 and 1 <= w <= 8
    assert _block_dims(PatchGrid(1, 1), 0.15, 1.0) == (1, 1)


def test_block_indices_hand_value():
    # 2x2 block at (1,1) of a 4x4 grid covers positions {5, 6, 9, 10}
    b = BlockSpec(top=1, left=1, height=2, width=2)
    assert block_indices(b, PatchGrid(4, 4)) == frozenset({5, 6, 9, 10})


def test_sample_block_stays_inside_grid():
    grid = PatchGrid(5, 7)
    rng = random.Random(0)
    for _ in range(200):
        b = sample_block(grid, 0.2, 1.3, rng)
        assert 0 <= b.top and b.top + b.height <= grid.rows
        assert 0 <= b.left and b.left + b.width <= grid.cols


def test_sample_mask_contract_defaults():
    grid = PatchGrid(6, 6)
    cfg = SamplerConfig()
    for draw in range(100):
        m = sample_mask(grid, cfg, random.Random(draw))
        assert m.context, "context must be nonempty"
        assert len(m.targets) == cfg.k
        assert m.context.isdisjoint(m.target_union)
        assert m.target_union == frozenset().union(*m.targets)
        for b, tset in zip(m.target_blocks, m.targets):
            assert block_indices(b, grid) == tset
            assert _block_dims(grid, b.scale, b.aspect) == (b.height, b.width)


def test_sample_mask_deterministic_replay():
    grid = PatchGrid(8, 8)
    cfg = SamplerConfig()
    a = sample_mask(grid, cfg, random.Random(42))
    b = sample_mask(grid, cfg, random.Random(42))
    assert a.context == b.context
    assert a.targets == b.targets
    assert a.target_blocks == b.target_blocks


def test_no_overlap_mode_gives_disjoint_targets():
    grid = PatchGrid(12, 12)
    cfg = SamplerConfig(allow_overlap=False)
    for draw in range(100):
        m = sample_mask(grid, cfg, random.Random(draw))
        seen = set()
        for t in m.targets:
            assert seen.isdisjoint(t)
            seen |= t


def test_overlap_mode_actually_overlaps_sometimes():
    grid = PatchGrid(4, 4)
    cfg = SamplerConfig(allow_overlap=True)
    hits = 0
    for draw in range(300):
        m = sample_mask(grid, cfg, random.Random(draw))
        if sum(len(t) for t in m.targets) > len(m.target_union):
            hits += 1
    assert hits > 0


def test_resample_exhausted_when_targets_cover_grid():
    # targets at scale ~1 leave no context; the budget must trip
    grid = PatchGrid(3, 3)
    cfg = SamplerConfig(k=1, target_scale=(1.0, 1.0), target_aspect=(1.0, 1.0))
    with pytest.raises(ResampleExhausted):
        sample_mask(grid, cfg, random.Random(0))


def test_retry_budget_is_bounded():
    assert RETRY_BUDGET == 100


def test_target_union_follows_the_targets():
    """The union is derived, never passed: replacing the targets of a spec
    recomputes it."""
    m = MaskSpec(context=frozenset({0}), targets=[frozenset({1, 2})])
    assert m.target_union == frozenset({1, 2})
    moved = dataclasses.replace(m, targets=[frozenset({3}), frozenset({3, 5})])
    assert moved.target_union == frozenset({3, 5})
    assert dataclasses.replace(m, targets=[]).target_union == frozenset()


def test_mask_spec_json_round_shape():
    grid = PatchGrid(4, 4)
    m = sample_mask(grid, SamplerConfig(), random.Random(1))
    obj = m.to_json_obj()
    assert sorted(m.context) == obj["context"]
    assert [sorted(t) for t in m.targets] == obj["targets"]
    assert len(obj["target_blocks"]) == len(m.targets)
    back = MaskSpec.from_json_obj(obj)
    assert (back.context, back.targets, back.target_union) == \
        (m.context, m.targets, m.target_union)
    # the block records are not read back, so the copy writes none
    assert back.to_json_obj() == {"context": obj["context"],
                                  "targets": obj["targets"],
                                  "context_block": None, "target_blocks": []}


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(k=0)
    with pytest.raises(ValueError):
        SamplerConfig(target_scale=(0.3, 0.2))
    with pytest.raises(ValueError):
        PatchGrid(0, 4)


@pytest.mark.parametrize("name, bounds", [
    ("target_scale", (0.1, float("inf"))),
    ("target_aspect", (float("inf"), float("inf"))),
    ("context_scale", (float("nan"), 1.0)),
    ("context_aspect", (0.5, float("nan"))),
])
def test_sampler_config_rejects_nonfinite_bounds(name, bounds):
    with pytest.raises(ValueError, match=f"{name} must be a nonempty "
                                         "positive finite interval"):
        SamplerConfig(**{name: bounds})


def test_block_dims_clamp_an_overflowing_area():
    """An area or side that overflows to inf clamps to the grid's extent
    instead of failing the conversion to int."""
    grid = PatchGrid(4, 6)
    assert _block_dims(grid, 1e308, 1e308) == (4, 6)
    assert _block_dims(grid, 1e308, 1.0) == (4, 6)
    assert _block_dims(grid, 0.15, 1e-320) == (1, 6)
    assert _block_dims(grid, 0.15, 1e308) == (4, 1)


# sha256 over 1,000 draws from random.Random(0) of each config's
# json.dumps(spec.to_json_obj(), sort_keys=True), taken with the sampler
# that placed disjoint blocks on a numpy grid of valid positions
PINNED_DRAWS = {
    "4x4-default": (PatchGrid(4, 4), SamplerConfig(),
                    "2f4d282efba3da28c7c727f1af289651"
                    "a1e40b2424954f1858bcbf8368cf7b09"),
    "8x8": (PatchGrid(8, 8), SamplerConfig(),
            "75ae4e238855eef12d054fdf915e4fd6"
            "64fb8be188aa77822e02ea2eb0aa5695"),
    "24x24-overlap": (PatchGrid(24, 24), SamplerConfig(allow_overlap=True),
                      "1b2f1fd4b50352d7a192f30c35fad3a8"
                      "4008d15006ca8905f4b6125f38d92331"),
    "24x24-disjoint": (PatchGrid(24, 24), SamplerConfig(allow_overlap=False),
                       "e548550d5a913080b64f673b9e0ec2be"
                       "350ae01d29132c0a53abbb54c6e55022"),
    "k1": (PatchGrid(4, 4), SamplerConfig(k=1),
           "de10a1bc0d8a0468f1d97dc46061e0e5"
           "808c101a0fe2e4588175d9cd8de9c394"),
    "k6": (PatchGrid(8, 8), SamplerConfig(k=6),
           "d492b0c999171b1e787855bfd40833be"
           "0536573bc86010d4baf603bdbf7a1858"),
    # small disjoint targets that often leave no free position
    "k6-disjoint": (PatchGrid(8, 8),
                    SamplerConfig(k=6, target_scale=(0.08, 0.12),
                                  allow_overlap=False),
                    "9982832c7c41f35a15a1fd29eac01eae"
                    "1a7d5055e9f137462a74c003cd19ecf8"),
}


@pytest.mark.parametrize("name", PINNED_DRAWS)
def test_sampler_draws_match_pinned_digest(name):
    """The sampler draws the same masks with the same RNG calls as when
    the digests were taken."""
    grid, cfg, digest = PINNED_DRAWS[name]
    rng = random.Random(0)
    h = hashlib.sha256()
    for _ in range(1000):
        h.update(json.dumps(sample_mask(grid, cfg, rng).to_json_obj(),
                            sort_keys=True).encode())
    assert h.hexdigest() == digest


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(2, 8), cols=st.integers(2, 8),
       seed=st.integers(0, 10_000))
def test_context_and_targets_partition_cleanly(rows, cols, seed):
    grid = PatchGrid(rows, cols)
    m = sample_mask(grid, SamplerConfig(k=2), random.Random(seed))
    universe = set(range(grid.n))
    assert set(m.context) <= universe
    assert set(m.target_union) <= universe
    assert not (set(m.context) & set(m.target_union))


@st.composite
def _block_on(draw, grid):
    h, w = draw(st.integers(1, grid.rows)), draw(st.integers(1, grid.cols))
    return BlockSpec(draw(st.integers(0, grid.rows - h)),
                     draw(st.integers(0, grid.cols - w)), h, w)


class _Pick:
    """An rng whose ``randrange(n)`` records ``n`` and returns ``i``."""

    def __init__(self, i):
        self.i, self.n = i, None

    def randrange(self, n):
        self.n = n
        return self.i


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_place_disjoint_picks_among_the_brute_force_free_positions(data):
    """The i-th pick is the i-th (top, left), in raster order, whose h x w
    block shares no patch with an accepted block; the rng is asked for one
    of exactly that many, and not at all when none is free."""
    grid = PatchGrid(data.draw(st.integers(1, 8)),
                     data.draw(st.integers(1, 8)))
    h = data.draw(st.integers(1, grid.rows))
    w = data.draw(st.integers(1, grid.cols))
    accepted = data.draw(st.lists(_block_on(grid), max_size=4))
    taken = frozenset().union(*(block_indices(b, grid) for b in accepted))
    free = [(top, left) for top in range(grid.rows - h + 1)
            for left in range(grid.cols - w + 1)
            if not block_indices(BlockSpec(top, left, h, w), grid) & taken]
    for i, pos in enumerate(free):
        rng = _Pick(i)
        got = _place_disjoint(grid, h, w, accepted, rng)
        assert got == pos and rng.n == len(free)
        assert all(type(x) is int for x in got)
    if not free:
        rng = _Pick(0)
        assert _place_disjoint(grid, h, w, accepted, rng) is None
        assert rng.n is None
