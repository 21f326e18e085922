"""Synthetic scene renderer and caption grammar."""

import numpy as np
import pytest

from latentalign.data import (BACKGROUND, COLORS, COUNTS, MAX_CAPTION_LEN,
                              PATCH_PIXELS, PATCH_SIDE, QUADRANTS,
                              SyntheticVocab, caption_for, generate,
                              make_sample, render)
from latentalign.masking import PatchGrid

GRID = PatchGrid(4, 4)


def test_vocab_layout():
    v = SyntheticVocab()
    assert v.bos == 1 and v.eos == 2
    ids = [v.id_of(w) for w in COUNTS + tuple(COLORS) + QUADRANTS]
    assert ids == list(range(3, 3 + len(ids)))
    with pytest.raises(ValueError):
        SyntheticVocab(size=5)
    # the grammar fixes every id: only the size is a choice
    with pytest.raises(TypeError):
        SyntheticVocab(bos=3)


def test_caption_grammar():
    v = SyntheticVocab()
    scene = [("red", "tl"), ("blue", "br")]
    cap = caption_for(scene, v)
    expected = [v.bos, v.id_of("two"), v.id_of("red"), v.id_of("tl"),
                v.id_of("blue"), v.id_of("br"), v.eos]
    assert cap.tolist() == expected


def test_max_caption_len_is_the_longest_caption():
    """``ModelBundle`` checks ``grid.n`` plus this constant against
    ``training.MAX_SEQ``."""
    v = SyntheticVocab()
    longest = [("red", "tl"), ("blue", "tr"), ("green", "bl")]
    assert caption_for(longest, v).size == MAX_CAPTION_LEN
    assert max(s.caption.size for s in generate(0, 64, GRID)) \
        == MAX_CAPTION_LEN


def test_render_shapes_and_range():
    px = render(GRID, [("green", "tr")])
    assert px.shape == (GRID.n, PATCH_PIXELS)
    assert px.min() >= 0.0 and px.max() <= 1.0


def test_render_background_patches_uniform():
    px = render(GRID, [("red", "tl")])
    # bottom-right quadrant is untouched background
    br_patch = px[GRID.n - 1].reshape(PATCH_SIDE, PATCH_SIDE, 3)
    np.testing.assert_allclose(br_patch, BACKGROUND, atol=1e-12)


def test_rectangles_are_patch_aligned():
    """Every patch inside a painted quadrant is a constant color block, so
    neighboring patches in that quadrant are identical — the redundancy the
    masked objective relies on."""
    px = render(GRID, [("blue", "tl")])
    tl_patches = [px[r * GRID.cols + c] for r in range(2) for c in range(2)]
    for p in tl_patches[1:]:
        np.testing.assert_array_equal(p, tl_patches[0])
    expected = np.tile(np.array(COLORS["blue"]), PATCH_SIDE * PATCH_SIDE)
    np.testing.assert_allclose(tl_patches[0], expected, atol=1e-12)


def test_make_sample_deterministic():
    v = SyntheticVocab()
    a = make_sample(0, 5, GRID, v)
    b = make_sample(0, 5, GRID, v)
    assert np.array_equal(a.pixels, b.pixels)
    assert np.array_equal(a.caption, b.caption)
    assert a.scene == b.scene
    c = make_sample(1, 5, GRID, v)
    assert not np.array_equal(a.pixels, c.pixels) or a.scene != c.scene


def test_scene_constraints():
    v = SyntheticVocab()
    for i in range(100):
        s = make_sample(3, i, GRID, v)
        assert 1 <= len(s.scene) <= 3
        quads = [q for _, q in s.scene]
        assert len(set(quads)) == len(quads), "quadrants must be distinct"
        assert all(c in COLORS and q in QUADRANTS for c, q in s.scene)
        assert s.caption[0] == v.bos and s.caption[-1] == v.eos
        assert len(s.caption) == 2 + 1 + 2 * len(s.scene)


def test_generate_length_and_determinism():
    xs = generate(0, 8, GRID)
    ys = generate(0, 8, GRID)
    assert len(xs) == 8
    for a, b in zip(xs, ys):
        assert np.array_equal(a.pixels, b.pixels)


def test_grid_too_small_rejected():
    with pytest.raises(ValueError):
        make_sample(0, 0, PatchGrid(1, 4), SyntheticVocab())
