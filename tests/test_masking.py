"""Block mask sampler: dimension formula, disjointness, determinism."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentalign.masking import (RETRY_BUDGET, BlockSpec, MaskSpec, PatchGrid,
                                 ResampleExhausted, SamplerConfig,
                                 _block_dims, block_indices, sample_block,
                                 sample_mask)


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


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(k=0)
    with pytest.raises(ValueError):
        SamplerConfig(target_scale=(0.3, 0.2))
    with pytest.raises(ValueError):
        PatchGrid(0, 4)


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
