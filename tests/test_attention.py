"""Hybrid attention mask: exact hand-built matrices and the cell oracle."""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from latentalign.attention import (CONTEXT, PAD, PAD_ROLE, TARGET, TEXT,
                                   AttnVariant, TokenRole, build_mask,
                                   dump_mask, oracle_mask, roles_for_mask)
from latentalign.masking import PatchGrid, SamplerConfig, sample_mask
from latentalign.model import pack


def _layout(roles, blocks):
    """One sequence as the layout build_mask reads, B = 1: a role code and a
    row of target-block flags per row, caption rows in caption order."""
    return SimpleNamespace(roles=np.array(roles, dtype=np.int8),
                           blocks=np.array(blocks, dtype=bool),
                           seq_len=len(roles))


def _mask(roles, blocks, variant=AttnVariant()):
    """build_mask's S x S mask of one sequence given as its columns."""
    return build_mask(_layout(roles, blocks), variant).allow[0]


# [ctx, ctx, tgt(block 0), text, text] — the worked reference layout
CCTT = ([CONTEXT, CONTEXT, TARGET, TEXT, TEXT], [[0], [0], [1], [0], [0]])


def _roles_cctt():
    """The reference layout as TokenRoles, the oracle's input."""
    return [TokenRole(CONTEXT),
            TokenRole(CONTEXT),
            TokenRole(TARGET, blocks=frozenset({0})),
            TokenRole(TEXT, text_position=0),
            TokenRole(TEXT, text_position=1)]


def _text_layout(n):
    """A caption of ``n`` tokens alone as build_mask's layout, B = 1."""
    return _layout([TEXT] * n, [[]] * n)


def test_hand_built_matrix_default_variant():
    allow = _mask(*CCTT)
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
    allow = _mask(*CCTT, AttnVariant(text_sees_targets=False))
    assert not allow[3, 2] and not allow[4, 2]
    assert allow[3, 0] and allow[4, 1]        # context stays visible


def test_targets_in_different_blocks_are_mutually_blind():
    columns = ([CONTEXT, TARGET, TARGET], [[0, 0], [1, 0], [0, 1]])
    allow = _mask(*columns)
    assert not allow[1, 2] and not allow[2, 1]
    cross = _mask(*columns, AttnVariant(tgt_cross_block=True))
    assert cross[1, 2] and cross[2, 1]


def test_targets_sharing_a_block_see_each_other():
    allow = _mask([TARGET, TARGET], [[1, 1], [0, 1]])
    assert allow[0, 1] and allow[1, 0]


def test_context_never_attends_forward_to_targets_or_text():
    for variant in (AttnVariant(), AttnVariant(True, False),
                    AttnVariant(True, True), AttnVariant(False, False)):
        allow = _mask(*CCTT, variant)
        assert not allow[0, 2] and not allow[1, 2]
        assert not allow[:3, 3:].any(), "visual rows must never see text"


def test_text_is_strictly_causal():
    allow = build_mask(_text_layout(4)).allow[0]
    assert np.array_equal(allow, np.tril(np.ones((4, 4), bool)))


def test_visual_after_text_rejected():
    roles = [TokenRole(TEXT, text_position=0), TokenRole(CONTEXT)]
    with pytest.raises(ValueError):
        oracle_mask(roles)


def test_pad_tokens_see_only_themselves():
    roles = _roles_cctt() + [PAD_ROLE, PAD_ROLE]
    kinds, blocks = CCTT
    padded = (kinds + [PAD, PAD], blocks + [[0], [0]])
    for variant in (AttnVariant(), AttnVariant(True, False)):
        allow = _mask(*padded, variant)
        assert np.array_equal(allow[:5, :5], _mask(*CCTT, variant))
        assert not allow[:5, 5:].any(), "no real row may see a pad"
        assert np.array_equal(allow[5:], np.eye(7, dtype=bool)[5:])
        assert np.array_equal(allow, oracle_mask(roles, variant).allow)


@pytest.mark.parametrize("roles", [
    [PAD_ROLE, TokenRole(TEXT, text_position=0)],
    [PAD_ROLE, TokenRole(CONTEXT)],
], ids=["text-after-pad", "visual-after-pad"])
def test_token_after_pad_rejected(roles):
    with pytest.raises(ValueError, match="out of order"):
        oracle_mask(roles)


def test_role_validation():
    with pytest.raises(ValueError):
        TokenRole(TARGET)                         # no block
    with pytest.raises(ValueError):
        TokenRole(CONTEXT, blocks=frozenset({0}))


def test_oracle_agreement_randomized():
    rng = random.Random(7)
    grid = PatchGrid(4, 4)
    for trial in range(50):
        mask = sample_mask(grid, SamplerConfig(k=rng.randint(1, 3)),
                           random.Random(trial))
        caption_len = rng.randint(2, 6)
        variant = AttnVariant(bool(rng.getrandbits(1)),
                              bool(rng.getrandbits(1)))
        layout = pack([mask], grid, [range(caption_len)])
        a = build_mask(layout, variant).allow[0]
        b = oracle_mask(roles_for_mask(mask, grid, caption_len),
                        variant).allow
        assert np.array_equal(a, b)


def test_dump_text_format():
    out = dump_mask(build_mask(_text_layout(3)), fmt="text")
    assert out == b"1..\n11.\n111\n"


def test_dump_pgm_format():
    out = dump_mask(build_mask(_text_layout(3)), fmt="pgm")
    assert out.startswith(b"P5\n3 3\n255\n")
    body = out[len(b"P5\n3 3\n255\n"):]
    assert len(body) == 9
    assert set(body) <= {0, 255}
