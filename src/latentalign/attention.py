"""Attention permission matrices for the packed [context, targets, text] layout.

The default pattern: visual tokens attend bidirectionally with two carve-outs
(context never sees targets; targets from different blocks never see each
other), text is causal and may look back at all visual tokens, and no visual
token ever sees text.  Two flags expose the ablation variants.  A sequence
padded to the length of a longer one in its batch ends in pad tokens: a pad
token sees only itself and no other token sees it.

``build_mask`` reads a packed batch, each caption's rows in caption order;
``oracle_mask`` re-derives a sequence cell by cell from ``TokenRole`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# role codes: the ``kind`` of a TokenRole and the entries of a role column
CONTEXT, TARGET, TEXT, PAD = range(4)


@dataclass(frozen=True)
class TokenRole:
    kind: int
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
    allow: np.ndarray  # [B x] S x S bool, row = query, column = key


_ORDER = {CONTEXT: 0, TARGET: 0, TEXT: 1, PAD: 2}


def _validate_order(roles) -> None:
    ranks = [_ORDER[r.kind] for r in roles]
    if ranks != sorted(ranks):
        raise ValueError("tokens out of order: visual, then text, then pad")


def build_mask(layout, variant: AttnVariant = AttnVariant()) -> AttentionMask:
    """The B x S x S mask of the B sequences of ``layout``, a
    ``model.PackedBatch``, in one pass over its role codes (B x S) and
    target blocks (B x S x K; only target rows are in a block).  A caption's
    rows lie in caption order, so causal text is row order in a sequence."""
    s = layout.seq_len
    roles = layout.roles.reshape(-1, s)
    blocks = layout.blocks.reshape(roles.shape + layout.blocks.shape[1:])
    ctx, tgt, text = (roles == kind for kind in (CONTEXT, TARGET, TEXT))

    def sees(q, k):
        return q[:, :, None] & k[:, None, :]

    allow = sees(roles != PAD, ctx)            # every real row sees context
    if variant.tgt_cross_block:
        allow |= sees(tgt, tgt)
    else:               # targets sharing a block: a count of shared blocks
        member = blocks.astype(np.float64)
        allow |= member @ member.transpose(0, 2, 1) > 0
    if variant.text_sees_targets:
        allow |= sees(text, tgt)
    allow |= sees(text, text) & np.tri(s, dtype=bool)
    b, i = np.nonzero(roles == PAD)
    allow[b, i, i] = True                      # a pad sees only itself
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
    """The rows of every sequence of ``m``, one sequence after another."""
    allow = m.allow.reshape(-1, m.allow.shape[-1])
    if fmt == "text":
        lines = ["".join("1" if v else "." for v in row) for row in allow]
        return ("\n".join(lines) + "\n").encode()
    if fmt == "pgm":
        h, w = allow.shape
        header = f"P5\n{w} {h}\n255\n".encode()
        return header + np.where(allow, 255, 0).astype(np.uint8).tobytes()
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
            roles.append(TokenRole(CONTEXT))
        elif i in mask_spec.target_union:
            roles.append(TokenRole(TARGET, blocks=frozenset(block_of[i])))
    for t in range(caption_len):
        roles.append(TokenRole(TEXT, text_position=t))
    return roles
