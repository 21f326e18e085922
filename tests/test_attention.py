"""Hybrid attention mask: exact hand-built matrices and the cell oracle."""

import random

import numpy as np
import pytest

from latentalign.attention import (CONTEXT, PAD_ROLE, TARGET, TEXT,
                                   AttnVariant, TokenRole, build_mask,
                                   dump_mask, oracle_mask, roles_for_mask)
from latentalign.masking import PatchGrid, SamplerConfig, sample_mask


def _roles_cctt():
    """[ctx, ctx, tgt(block 0), text, text] — the worked reference layout."""
    return [TokenRole(CONTEXT, patch_index=0),
            TokenRole(CONTEXT, patch_index=1),
            TokenRole(TARGET, patch_index=2, blocks=frozenset({0})),
            TokenRole(TEXT, text_position=0),
            TokenRole(TEXT, text_position=1)]


def test_hand_built_matrix_default_variant():
    allow = build_mask(_roles_cctt()).allow
    expected = np.array([
        #  c0     c1     t0     x0     x1   (keys)
        [True,  True,  False, False, False],   # ctx sees ctx only
        [True,  True,  False, False, False],
        [True,  True,  True,  False, False],   # tgt sees ctx + own block
        [True,  True,  True,  True,  False],   # text causal, sees all visual
        [True,  True,  True,  True,  True],
    ])
    assert np.array_equal(allow, expected)


def test_text_blind_to_targets_variant():
    allow = build_mask(_roles_cctt(), AttnVariant(text_sees_targets=False)).allow
    assert not allow[3, 2] and not allow[4, 2]
    assert allow[3, 0] and allow[4, 1]        # context stays visible


def test_targets_in_different_blocks_are_mutually_blind():
    roles = [TokenRole(CONTEXT, patch_index=0),
             TokenRole(TARGET, patch_index=1, blocks=frozenset({0})),
             TokenRole(TARGET, patch_index=2, blocks=frozenset({1}))]
    allow = build_mask(roles).allow
    assert not allow[1, 2] and not allow[2, 1]
    cross = build_mask(roles, AttnVariant(tgt_cross_block=True)).allow
    assert cross[1, 2] and cross[2, 1]


def test_targets_sharing_a_block_see_each_other():
    roles = [TokenRole(TARGET, patch_index=0, blocks=frozenset({0, 1})),
             TokenRole(TARGET, patch_index=1, blocks=frozenset({1}))]
    allow = build_mask(roles).allow
    assert allow[0, 1] and allow[1, 0]


def test_context_never_attends_forward_to_targets_or_text():
    roles = _roles_cctt()
    for variant in (AttnVariant(), AttnVariant(True, False),
                    AttnVariant(True, True), AttnVariant(False, False)):
        allow = build_mask(roles, variant).allow
        assert not allow[0, 2] and not allow[1, 2]
        assert not allow[:3, 3:].any(), "visual rows must never see text"


def test_text_is_strictly_causal():
    roles = [TokenRole(TEXT, text_position=i) for i in range(4)]
    allow = build_mask(roles).allow
    assert np.array_equal(allow, np.tril(np.ones((4, 4), bool)))


def test_visual_after_text_rejected():
    roles = [TokenRole(TEXT, text_position=0), TokenRole(CONTEXT, patch_index=0)]
    with pytest.raises(ValueError):
        build_mask(roles)


def test_pad_tokens_see_only_themselves():
    roles = _roles_cctt() + [PAD_ROLE, PAD_ROLE]
    for variant in (AttnVariant(), AttnVariant(True, False)):
        allow = build_mask(roles, variant).allow
        assert np.array_equal(allow[:5, :5],
                              build_mask(_roles_cctt(), variant).allow)
        assert not allow[:5, 5:].any(), "no real row may see a pad"
        assert np.array_equal(allow[5:], np.eye(7, dtype=bool)[5:])
        assert np.array_equal(allow, oracle_mask(roles, variant).allow)


@pytest.mark.parametrize("roles", [
    [PAD_ROLE, TokenRole(TEXT, text_position=0)],
    [PAD_ROLE, TokenRole(CONTEXT, patch_index=0)],
], ids=["text-after-pad", "visual-after-pad"])
def test_token_after_pad_rejected(roles):
    with pytest.raises(ValueError, match="out of order"):
        build_mask(roles)


def test_role_validation():
    with pytest.raises(ValueError):
        TokenRole(TARGET, patch_index=0)                      # no block
    with pytest.raises(ValueError):
        TokenRole(CONTEXT, patch_index=0, blocks=frozenset({0}))


def test_oracle_agreement_randomized():
    rng = random.Random(7)
    grid = PatchGrid(4, 4)
    for trial in range(50):
        mask = sample_mask(grid, SamplerConfig(k=rng.randint(1, 3)),
                           random.Random(trial))
        roles = roles_for_mask(mask, grid, caption_len=rng.randint(2, 6))
        variant = AttnVariant(bool(rng.getrandbits(1)),
                              bool(rng.getrandbits(1)))
        a = build_mask(roles, variant).allow
        b = oracle_mask(roles, variant).allow
        assert np.array_equal(a, b)


def test_dump_text_format():
    roles = [TokenRole(TEXT, text_position=i) for i in range(3)]
    out = dump_mask(build_mask(roles), fmt="text")
    assert out == b"1..\n11.\n111\n"


def test_dump_pgm_format():
    roles = [TokenRole(TEXT, text_position=i) for i in range(3)]
    out = dump_mask(build_mask(roles), fmt="pgm")
    assert out.startswith(b"P5\n3 3\n255\n")
    body = out[len(b"P5\n3 3\n255\n"):]
    assert len(body) == 9
    assert set(body) <= {0, 255}
