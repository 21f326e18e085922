"""Attention permission matrices for the packed [context, targets, text] layout.

The default pattern: visual tokens attend bidirectionally with two carve-outs
(context never sees targets; targets from different blocks never see each
other), text is causal and may look back at all visual tokens, and no visual
token ever sees text.  Two flags expose the ablation variants.  A sequence
padded to the length of a longer one in its batch ends in pad tokens: a pad
token sees only itself and no other token sees it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CONTEXT = "context"
TARGET = "target"
TEXT = "text"
PAD = "pad"


@dataclass(frozen=True)
class TokenRole:
    kind: str
    patch_index: int | None = None
    blocks: frozenset = frozenset()
    text_position: int | None = None

    def __post_init__(self):
        if self.kind == TARGET and not self.blocks:
            raise ValueError("target tokens need block membership")
        if self.kind != TARGET and self.blocks:
            raise ValueError("only target tokens carry block membership")


PAD_ROLE = TokenRole(PAD)


@dataclass(frozen=True)
class AttnVariant:
    tgt_cross_block: bool = False
    text_sees_targets: bool = True


@dataclass
class AttentionMask:
    allow: np.ndarray  # S x S bool, row = query, column = key


_ORDER = {CONTEXT: 0, TARGET: 0, TEXT: 1, PAD: 2}


def _validate_order(roles) -> None:
    ranks = [_ORDER[r.kind] for r in roles]
    if ranks != sorted(ranks):
        raise ValueError("tokens out of order: visual, then text, then pad")


def build_mask(roles, variant: AttnVariant = AttnVariant()) -> AttentionMask:
    _validate_order(roles)
    s = len(roles)
    is_c = np.array([r.kind == CONTEXT for r in roles])
    is_t = np.array([r.kind == TARGET for r in roles])
    is_x = np.array([r.kind == TEXT for r in roles])
    allow = np.zeros((s, s), dtype=bool)

    allow[np.ix_(is_c, is_c)] = True          # context <-> context
    allow[np.ix_(is_t, is_c)] = True          # targets see context
    allow[np.ix_(is_x, is_c)] = True          # text sees context
    if variant.text_sees_targets:
        allow[np.ix_(is_x, is_t)] = True

    t_idx = np.nonzero(is_t)[0]
    if variant.tgt_cross_block:
        allow[np.ix_(is_t, is_t)] = True
    else:
        for qi in t_idx:
            for ki in t_idx:
                if roles[qi].blocks & roles[ki].blocks:
                    allow[qi, ki] = True

    x_idx = np.nonzero(is_x)[0]
    for a, qi in enumerate(x_idx):            # causal text
        allow[qi, x_idx[: a + 1]] = True

    p_idx = np.array([i for i, r in enumerate(roles) if r.kind == PAD],
                     dtype=np.int64)
    allow[p_idx, p_idx] = True                # a pad sees only itself

    return AttentionMask(allow)


def oracle_mask(roles, variant: AttnVariant = AttnVariant()) -> AttentionMask:
    """Cell-by-cell re-derivation of the rule table, sharing no code with
    build_mask.  Test/verify use only."""
    _validate_order(roles)
    s = len(roles)
    allow = np.zeros((s, s), dtype=bool)
    for q in range(s):
        for k in range(s):
            rq, rk = roles[q], roles[k]
            if rq.kind == PAD or rk.kind == PAD:
                ok = q == k
            elif rq.kind == CONTEXT and rk.kind == CONTEXT:
                ok = True
            elif rq.kind == CONTEXT and rk.kind == TARGET:
                ok = False
            elif rq.kind == TARGET and rk.kind == CONTEXT:
                ok = True
            elif rq.kind == TARGET and rk.kind == TARGET:
                ok = variant.tgt_cross_block or bool(rq.blocks & rk.blocks)
            elif rq.kind in (CONTEXT, TARGET) and rk.kind == TEXT:
                ok = False
            elif rq.kind == TEXT and rk.kind == CONTEXT:
                ok = True
            elif rq.kind == TEXT and rk.kind == TARGET:
                ok = variant.text_sees_targets
            else:  # text -> text
                ok = rk.text_position <= rq.text_position
            allow[q, k] = ok
    return AttentionMask(allow)


def dump_mask(m: AttentionMask, fmt: str = "text") -> bytes:
    if fmt == "text":
        lines = ["".join("1" if v else "." for v in row) for row in m.allow]
        return ("\n".join(lines) + "\n").encode()
    if fmt == "pgm":
        h, w = m.allow.shape
        header = f"P5\n{w} {h}\n255\n".encode()
        return header + np.where(m.allow, 255, 0).astype(np.uint8).tobytes()
    raise ValueError(f"unknown format: {fmt}")


def roles_for_mask(mask_spec, grid, caption_len: int):
    """Packed-order roles: visual tokens in raster order, then text."""
    block_of: dict[int, set] = {}
    for bid, tset in enumerate(mask_spec.targets):
        for i in tset:
            block_of.setdefault(i, set()).add(bid)
    roles = []
    for i in range(grid.n):
        if i in mask_spec.context:
            roles.append(TokenRole(CONTEXT, patch_index=i))
        elif i in mask_spec.target_union:
            roles.append(TokenRole(TARGET, patch_index=i,
                                   blocks=frozenset(block_of[i])))
    for t in range(caption_len):
        roles.append(TokenRole(TEXT, text_position=t))
    return roles
