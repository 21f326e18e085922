"""Predictor, projectors, latent tokens, packing, checkpoints."""

import json
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentalign import autodiff as ad
from latentalign.attention import (CONTEXT, PAD, PAD_ROLE, TARGET, TEXT,
                                   AttnVariant, TokenRole, build_mask,
                                   oracle_mask, roles_for_mask)
from latentalign.autodiff import Tensor
from latentalign.data import make_sample
from latentalign.masking import (MaskSpec, PatchGrid, ResampleExhausted,
                                 SamplerConfig, sample_mask)
from latentalign.model import (Predictor, PredictorConfig, Projector,
                               load_checkpoint, load_into, pack, project_tap,
                               save_checkpoint, sincos_1d, sincos_2d,
                               tap_layer_default)
from latentalign.objective import ntp_targets
from latentalign.training import ModelBundle

CFG = PredictorConfig(d=16, L=2, H=2, V=16, tap_layer=1)


def _packed_batch(seeds, grid=PatchGrid(3, 3), masked=True):
    """A planned batch of one sample per seed, each with its own mask, and
    its padded input rows."""
    b = ModelBundle(grid, CFG, proj_kind="linear", ctx_dim=8, tgt_dim=8,
                    model_seed=4, sampler=SamplerConfig(k=2))
    samples = [make_sample(seed, 0, grid, b.vocab) for seed in seeds]
    masks = [sample_mask(grid, b.sampler, random.Random(seed))
             if masked else MaskSpec(context=frozenset(range(grid.n)))
             for seed in seeds]
    plan = b.plan(samples, masks)
    return plan, b.tokens(plan), b, masks, samples


def _packed(seed=0, grid=PatchGrid(3, 3), masked=True):
    plan, tokens, b, masks, samples = _packed_batch([seed], grid, masked)
    return plan, tokens, b, masks[0], samples[0]


def _allow(seq, variant=AttnVariant()):
    return build_mask(seq, variant).allow


def _roles(seq):
    """The layout's columns read back as one TokenRole per row; a caption
    row's position is its offset after its sequence's first caption row."""
    s = seq.seq_len
    first = (seq.roles == TEXT).reshape(-1, s).argmax(axis=1).repeat(s)
    offset = np.arange(len(seq.roles)) % s - first
    return [TokenRole(int(kind), frozenset(np.flatnonzero(blocks).tolist()),
                      int(t) if kind == TEXT else None)
            for kind, blocks, t in zip(seq.roles, seq.blocks, offset)]


def _patches(seq, grid=PatchGrid(3, 3)):
    """The patch of each context and target row of the layout, read from
    ``context_patches`` and ``target_patches``; -1 on the other rows."""
    patch = np.full(len(seq.roles), -1)
    patch[seq.roles == CONTEXT] = seq.context_patches % grid.n
    patch[seq.target_rows] = seq.target_patches % grid.n
    return patch


def _forward(pred, tokens, allow):
    """``pred.forward`` with the logits on every row, under the position
    code a plan gives."""
    bsz, s = allow.shape[:2]
    pos = Tensor(np.tile(sincos_1d(s, pred.cfg.d), (bsz, 1)))
    return pred.forward(tokens, allow, s, pos)


def test_tap_layer_default():
    assert tap_layer_default(1) == 1
    assert tap_layer_default(4) == 1
    assert tap_layer_default(5) == 2
    assert tap_layer_default(8) == 2
    assert tap_layer_default(12) == 3


def test_config_validation():
    with pytest.raises(ValueError):
        PredictorConfig(d=30, H=4)        # d not divisible by H
    with pytest.raises(ValueError):
        PredictorConfig(d=32, L=2, tap_layer=3)


def test_sincos_tables_bounded_and_distinct():
    t = sincos_1d(10, 8)
    assert t.shape == (10, 8)
    assert np.abs(t).max() <= 1.0 + 1e-12
    assert not np.array_equal(t[0], t[1])
    t2 = sincos_2d(3, 4, 8)
    assert t2.shape == (12, 8)
    # raster neighbors in the same row share the row half of the code
    assert np.array_equal(t2[0][: 4], t2[1][: 4])


@pytest.mark.parametrize("rows,cols,d", [(3, 4, 8), (4, 4, 32), (8, 8, 64),
                                         (1, 5, 4), (6, 1, 16)])
def test_sincos_2d_equals_per_patch_fill(rows, cols, d):
    """The vectorised table is bit-equal to filling it patch by patch."""
    row_tab, col_tab = sincos_1d(rows, d // 2), sincos_1d(cols, d // 2)
    ref = np.zeros((rows * cols, d))
    for r in range(rows):
        for c in range(cols):
            ref[r * cols + c, : d // 2] = row_tab[r]
            ref[r * cols + c, d // 2:] = col_tab[c]
    table = sincos_2d(rows, cols, d)
    assert table.dtype == ref.dtype and table.tobytes() == ref.tobytes()


def test_plan_positions_are_each_sequences_own_sincos_rows():
    """Every sequence of a plan gets ``sincos_1d(S, d)``, bit for bit the
    first S rows of a 256-row table, so no stored table is needed."""
    plan, *_ = _packed_batch([0, 1, 2])
    s, d = plan.layout.seq_len, CFG.d
    assert plan.pos.data.tobytes() == np.tile(sincos_1d(s, d),
                                              (3, 1)).tobytes()
    for d in (8, 16, 32, 64, 128):
        table = sincos_1d(256, d)
        for s in range(1, 257):
            assert sincos_1d(s, d).tobytes() == table[:s].tobytes()


def test_pack_orders_tokens_by_raster_position():
    plan, *_, mask, _ = _packed()
    roles = _roles(plan.layout)
    idx = _patches(plan.layout)[plan.layout.roles != TEXT].tolist()
    assert idx == sorted(idx)
    assert set(idx) == set(mask.context) | set(mask.target_union)
    text = [r for r in roles if r.kind == TEXT]
    assert [r.text_position for r in text] == list(range(len(text)))


@pytest.mark.parametrize("masked", [True, False])
def test_pack_follows_roles_for_mask(masked):
    """Roles come from roles_for_mask, and each packed row holds the token
    its role names."""
    plan, tokens, b, mask, sample = _packed(masked=masked)
    roles = _roles(plan.layout)
    assert roles == roles_for_mask(mask, PatchGrid(3, 3), len(sample.caption))
    ctx = b.ctx_encoder.encode(sample.pixels)
    for row, r, p in zip(tokens.data, roles, _patches(plan.layout)):
        if r.kind == TEXT:
            want = b.predictor.tok_emb.data[sample.caption[r.text_position]]
        elif r.kind == TARGET:
            want = b.latent.z.data[0] + b.latent.phi[p]
        else:
            want = b.proj(Tensor(ctx[[p]])).data[0]
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)


def test_pack_unmasked_covers_every_patch():
    grid = PatchGrid(3, 3)
    seq = _packed(masked=False, grid=grid)[0].layout
    visual = seq.roles != TEXT
    assert _patches(seq, grid)[visual].tolist() == list(range(grid.n))
    assert (seq.roles[visual] == CONTEXT).all()


def test_latent_tokens_are_shared_vector_plus_position():
    """Every target row of a planned batch holds the shared vector z plus
    the row of the fixed table phi at its patch."""
    plan, tokens, b, *_ = _packed_batch([0, 1, 2])
    rows = plan.layout.target_rows
    assert rows.size, "fixture must include target tokens"
    np.testing.assert_array_equal(
        tokens.data[rows],
        b.latent.z.data + b.latent.phi[plan.layout.target_patches % b.grid.n])


def test_forward_shapes_and_tap_position():
    plan, tokens, b, *_ = _packed()
    logits, tap = _forward(b.predictor, tokens, plan.allow)
    s = len(plan.layout.roles)
    assert logits.shape == (s, CFG.V)
    assert tap.shape == (s, CFG.d)


def test_forward_builds_one_node_per_block(monkeypatch):
    """Position add, then one ``block`` node per block, then the final
    layernorm and the head, however many sequences the batch holds."""
    plan, tokens, b, *_ = _packed_batch([0, 1, 2])
    assert PAD in plan.layout.roles, "fixture must pad"
    nodes = []
    from_op = ad._from_op

    def counting(data, parents, vjp):
        nodes.append(data.shape)
        return from_op(data, parents, vjp)

    monkeypatch.setattr(ad, "_from_op", counting)
    _forward(b.predictor, tokens, plan.allow)
    assert len(nodes) == 1 + CFG.L + 2


def test_window_logits_are_the_tail_rows_of_every_sequence():
    """The logits of a T-row window are the last T rows of each sequence's
    full-window logits; the tap still covers every row, bit for bit."""
    plan, tokens, b, _, samples = _packed_batch([0, 1, 2])
    s, t = plan.layout.seq_len, plan.window
    assert 0 < t < s, "fixture must leave rows out of the window"
    full, full_tap = _forward(b.predictor, tokens, plan.allow)
    logits, tap = b.predictor.forward(tokens, plan.allow, t, plan.pos)
    tail = full.data.reshape(3, s, -1)[:, s - t:].reshape(3 * t, -1)
    np.testing.assert_allclose(logits.data, tail, rtol=1e-12, atol=1e-14)
    assert np.array_equal(tap.data, full_tap.data)
    full_rows, *_ = ntp_targets([s.caption for s in samples],
                                plan.layout.text_rows)
    np.testing.assert_allclose(logits.data[plan.ntp[0]], full.data[full_rows],
                               rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("tap_layer, window, match", [
    (CFG.L, 5, "tap is the last block"),
    (1, -1, "outside a sequence"),
    (1, 10**6, "outside a sequence"),
])
def test_forward_rejects_a_bad_window(tap_layer, window, match):
    plan, tokens, *_ = _packed()
    pred = Predictor(PredictorConfig(d=16, L=2, H=2, V=16,
                                     tap_layer=tap_layer), seed=0)
    with pytest.raises(ValueError, match=match):
        pred.forward(tokens, plan.allow, window, plan.pos)


def test_plan_window_covers_every_row_when_tapping_the_last_block():
    """Nothing at or before the tap is restricted: with the tap at the last
    block the plan's window is the whole sequence."""
    grid = PatchGrid(3, 3)
    b = ModelBundle(grid, PredictorConfig(d=16, L=2, H=2, V=16, tap_layer=2),
                    proj_kind="linear", ctx_dim=8, tgt_dim=8,
                    sampler=SamplerConfig(k=2))
    samples = [make_sample(seed, 0, grid, b.vocab) for seed in (0, 1)]
    plan = b.plan(samples, [sample_mask(grid, b.sampler, random.Random(s))
                            for s in (0, 1)])
    assert plan.window == plan.layout.seq_len
    want = ntp_targets([s.caption for s in samples], plan.layout.text_rows)
    assert all(np.array_equal(a, b) for a, b in zip(plan.ntp, want))
    logits, tap = b.forward(plan)
    assert logits.shape[0] == tap.shape[0] == 2 * plan.layout.seq_len


def test_pack_pads_each_sample_to_the_longest():
    """Sample b fills rows b*S onward with what packing it alone gives;
    the rest of its rows are zero pad rows."""
    seeds = [0, 1, 2]
    plan, tokens, *_ = _packed_batch(seeds)
    seq = plan.layout
    alone = [_packed(seed)[:2] for seed in seeds]
    assert seq.seq_len == max(len(a.layout.roles) for a, _ in alone)
    assert len({len(a.layout.roles) for a, _ in alone}) > 1, \
        "fixture must be ragged"
    s = seq.seq_len
    for b, (one, one_tokens) in enumerate(alone):
        n = len(one.layout.roles)
        rows = tokens.data[b * s:(b + 1) * s]
        assert _roles(seq)[b * s:(b + 1) * s] == \
            _roles(one.layout) + [PAD_ROLE] * (s - n)
        assert _patches(seq)[b * s:(b + 1) * s].tolist() == \
            _patches(one.layout).tolist() + [-1] * (s - n)
        np.testing.assert_allclose(rows[:n], one_tokens.data, rtol=0,
                                   atol=1e-15)
        assert not rows[n:].any()


def _two_gathers(b, plan, captions):
    """The padded input rows as a caption-id gather of ``tok_emb`` and a
    gather by the old ``order`` built them: the source stack was [context
    rows, target rows, caption rows, one zero row]."""
    roles = plan.layout.roles
    real = np.concatenate([np.flatnonzero(roles == CONTEXT),
                           plan.layout.target_rows, plan.layout.text_rows])
    order = np.full(roles.size, real.size)
    order[real] = np.arange(real.size)
    parts = [b.proj(plan.ctx)]
    if plan.phi is not None:
        parts.append(b.latent.z + plan.phi)
    parts += [ad.gather_rows(b.predictor.tok_emb, np.concatenate(captions)),
              plan.pad]
    return ad.gather_rows(ad.concat(parts), order)


@pytest.mark.parametrize("masked", [True, False], ids=["align", "sft"])
def test_one_gather_equals_the_caption_id_gather_then_the_layout_gather(
        masked):
    """On a ragged batch, masked or unmasked, ``tokens``' one gather by
    ``order`` gives the rows of the two-gather composition, and every
    parameter it reads, ``tok_emb`` among them, the same gradient, bit for
    bit: caption rows lie in caption order, so each ``tok_emb`` row gets
    the same additions in the same order."""
    plan, tokens, b, _, samples = _packed_batch([0, 1, 2], masked=masked)
    captions = [sample.caption for sample in samples]
    ids = np.concatenate(captions)
    assert PAD in plan.layout.roles and len(set(ids)) < ids.size, \
        "fixture must be ragged and repeat a token"
    assert (plan.phi is not None) == masked
    upstream = Tensor(np.random.default_rng(0).normal(size=tokens.shape))
    params = {"tok_emb": b.predictor.tok_emb, **b.proj.named_parameters()}
    if masked:
        params["z"] = b.latent.z
    grads = []
    for rows in (tokens, _two_gathers(b, plan, captions)):
        for p in params.values():
            p.zero_grad()
        ad.tsum(ad.mul(rows, upstream)).backward()
        grads.append({n: p.grad for n, p in params.items()})
    assert np.array_equal(tokens.data, rows.data)
    for name in params:
        assert grads[0][name] is not None, name
        assert np.array_equal(grads[0][name], grads[1][name]), name


def test_pack_lists_rows_and_target_patch_addresses():
    """On a ragged, masked batch the row lists hold exactly the TEXT and
    TARGET rows, each context and target row addresses its sample's patch
    in the stacked (B*N, ...) per-patch arrays as b*N + p, and ``order``
    reads context and target rows from the source stack in row order, the
    zero row after them on pad rows and, on caption rows, the row of
    ``tok_emb`` after the zero row that the caption's token id names."""
    grid = PatchGrid(3, 3)
    plan, _, _, _, samples = _packed_batch([0, 1, 2], grid)
    seq = plan.layout
    s, roles, patches = seq.seq_len, _roles(seq), _patches(seq, grid)
    assert PAD in seq.roles, "fixture must be ragged"
    for rows, kind in ((seq.text_rows, TEXT), (seq.target_rows, TARGET)):
        assert rows.tolist() == [i for i, r in enumerate(roles)
                                 if r.kind == kind]
    assert seq.target_rows.size
    assert seq.target_patches.shape == seq.target_rows.shape
    ctx_rows = [i for i, r in enumerate(roles) if r.kind == CONTEXT]
    for rows, addresses in ((ctx_rows, seq.context_patches),
                            (seq.target_rows, seq.target_patches)):
        assert [(row // s) * grid.n + patches[row]
                for row in rows] == addresses.tolist()
    source = [*ctx_rows, *seq.target_rows]
    pads = [i for i, r in enumerate(roles) if r.kind == PAD]
    assert seq.order[source].tolist() == list(range(len(source)))
    assert seq.order[pads].tolist() == [len(source)] * len(pads)
    ids = [int(t) for sample in samples for t in sample.caption]
    assert seq.order[seq.text_rows].tolist() == \
        [len(source) + 1 + t for t in ids]


def _object_pack(masks, grid, captions):
    """``pack`` as it was before the columnar layout: one TokenRole per
    row, and the row lists and addresses read off the role objects."""
    seqs = [roles_for_mask(m, grid, len(c)) for m, c in zip(masks, captions)]
    s = max(len(roles) for roles in seqs)
    roles = [r for seq in seqs for r in seq + [PAD_ROLE] * (s - len(seq))]
    ctx_rows, target_rows, text_rows = (
        np.flatnonzero([r.kind == kind for r in roles])
        for kind in (CONTEXT, TARGET, TEXT))

    # roles_for_mask puts the mask's patches first, in raster order
    visual = [sorted(m.context | m.target_union) for m in masks]

    def address(rows):
        return rows // s * grid.n + np.array(
            [visual[i // s][i % s] for i in rows], dtype=np.int64)

    # the stack [context, targets, zero row, one row per token id]
    stacked = [*ctx_rows, *target_rows]

    def source(i):
        r = roles[i]
        if r.kind == TEXT:
            return len(stacked) + 1 + int(captions[i // s][r.text_position])
        return len(stacked) if r.kind == PAD else stacked.index(i)

    order = np.array([source(i) for i in range(len(roles))])
    return roles, s, {"text_rows": text_rows, "target_rows": target_rows,
                      "context_patches": address(ctx_rows),
                      "target_patches": address(target_rows),
                      "order": order}


def _hand_built_spec(grid, rng):
    """A nonempty context and up to 70 target blocks, drawn independently,
    so patches share blocks; the blocks are drawn from the other patches,
    or one time in five from every patch, when the context wins."""
    patches = list(range(grid.n))
    rng.shuffle(patches)
    cut = rng.randint(1, grid.n)
    rest = patches if rng.random() < 0.2 else patches[cut:]
    targets = [frozenset(rng.sample(rest, rng.randint(1, len(rest))))
               for _ in range(rng.randint(1, 70) if rest else 0)]
    return MaskSpec(context=frozenset(patches[:cut]), targets=targets)


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(3, 7), cols=st.integers(3, 7),
       kinds=st.lists(st.sampled_from(["overlap", "disjoint", "hand",
                                       "all-context"]),
                      min_size=1, max_size=5),
       caption_lens=st.lists(st.integers(0, 9), min_size=5, max_size=5),
       cross_block=st.booleans(), text_sees_targets=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_columnar_layout_and_mask_equal_the_object_path(
        rows, cols, kinds, caption_lens, cross_block, text_sees_targets,
        seed):
    """On ragged batches of sampled and hand-built specs (up to 70 target
    blocks, patches in several blocks, empty captions), every layout column
    and row list equals the object path's, and the one-pass B x S x S mask
    equals the cell-by-cell oracle of each padded sequence."""
    grid, rng = PatchGrid(rows, cols), random.Random(seed)
    masks = []
    for kind in kinds:
        spec = None
        if kind in ("overlap", "disjoint"):
            cfg = SamplerConfig(k=rng.randint(1, 4),
                                allow_overlap=kind == "overlap")
            try:
                spec = sample_mask(grid, cfg, rng)
            except ResampleExhausted:
                pass
        if kind == "all-context":
            spec = MaskSpec(context=frozenset(range(grid.n)))
        masks.append(spec or _hand_built_spec(grid, rng))
    captions = [np.array([rng.randrange(64) for _ in range(n)],
                         dtype=np.int64) for n in caption_lens[:len(kinds)]]
    variant = AttnVariant(cross_block, text_sees_targets)

    layout = pack(masks, grid, captions)
    roles, s, lists = _object_pack(masks, grid, captions)
    assert layout.seq_len == s
    k = max(len(m.targets) for m in masks)
    assert layout.roles.tolist() == [r.kind for r in roles]
    # causal text is row order: a caption role's position is its row's
    # offset after its sequence's first caption row
    for start in range(0, len(roles), s):
        rows = [i for i in range(start, start + s) if roles[i].kind == TEXT]
        assert [roles[i].text_position for i in rows] == \
            [i - rows[0] for i in rows]
    assert layout.blocks.tolist() == [[j in r.blocks for j in range(k)]
                                      for r in roles]
    for name, want in lists.items():
        assert np.array_equal(getattr(layout, name), want), name

    want = np.stack([oracle_mask(roles[i:i + s], variant).allow
                     for i in range(0, len(roles), s)])
    assert np.array_equal(build_mask(layout, variant).allow, want)


def test_block_membership_past_63_blocks():
    """Target rows see each other exactly when they share a block, for
    block ids past what a 64-bit mask could hold."""
    grid = PatchGrid(2, 2)
    blocks = [frozenset({1})] * 64 + [frozenset({2, 3}), frozenset({3})]
    layout = pack([MaskSpec(context=frozenset({0}), targets=blocks)], grid,
                  [np.zeros(2, dtype=np.int64)])
    assert layout.blocks.shape == (6, 66)
    allow = build_mask(layout).allow[0]
    # rows 1..3 hold patches 1..3: patch 1 in blocks 0..63, patch 2 in
    # block 64, patch 3 in blocks 64 and 65
    assert allow[1:4, 1:4].tolist() == [[True, False, False],
                                        [False, True, True],
                                        [False, True, True]]


def test_pack_reads_no_parameter():
    """The layout comes from the masks, the grid and the caption lengths
    alone: pack takes no tensor and builds no graph node."""
    plan, *_, masks, samples = _packed_batch([0, 1, 2])
    again = pack(masks, PatchGrid(3, 3), [s.caption for s in samples])
    for name in ("roles", "blocks", "text_rows", "target_rows",
                 "context_patches", "target_patches", "order"):
        assert np.array_equal(getattr(again, name),
                              getattr(plan.layout, name)), name
    assert not any(isinstance(v, Tensor) for v in vars(again).values())


def test_pad_rows_change_no_real_row():
    """Whatever the pad rows hold, every real row's logits and tap and every
    parameter's gradient stay bit for bit the same, and no gradient reaches
    a pad row."""
    plan, seq_tokens, b, *_ = _packed_batch([0, 1, 2])
    pred, roles = b.predictor, plan.layout.roles
    real = roles != PAD
    weight = np.random.default_rng(0).normal(size=(len(roles), CFG.V))
    weight[~real] = 0.0
    tap_weight = np.where(real[:, None], 1.0, 0.0)

    def run(pad_values):
        tokens = Tensor(seq_tokens.data.copy(), requires_grad=True)
        tokens.data[~real] = pad_values
        logits, tap = _forward(pred, tokens, plan.allow)
        params = pred.named_parameters()
        for p in params.values():
            p.zero_grad()
        loss = (ad.tsum(ad.mul(logits, Tensor(weight)))
                + ad.tsum(ad.mul(tap, Tensor(tap_weight))))
        loss.backward()
        return (logits.data[real], tap.data[real], tokens.grad,
                {n: p.grad for n, p in params.items() if n != "tok_emb"})

    zero = run(0.0)
    noise = run(np.random.default_rng(1).normal(
        scale=5.0, size=(int((~real).sum()), CFG.d)))
    np.testing.assert_array_equal(zero[0], noise[0])
    np.testing.assert_array_equal(zero[1], noise[1])
    np.testing.assert_array_equal(zero[2], noise[2])
    assert not zero[2][~real].any()
    for name in zero[3]:
        np.testing.assert_array_equal(zero[3][name], noise[3][name], name)


def test_tap_equals_final_stream_when_tapping_last_layer():
    cfg = PredictorConfig(d=16, L=1, H=2, V=16, tap_layer=1)
    pred = Predictor(cfg, seed=0)
    plan, tokens, *_ = _packed()
    logits, tap = _forward(pred, tokens, plan.allow)
    # with L=1 and tap at 1, the tap is the residual stream feeding the head
    ref = ad.add(ad.matmul(ad.layernorm(tap, pred.lnf_g, pred.lnf_b),
                           pred.head_w), pred.head_b)
    np.testing.assert_allclose(logits.data, ref.data, atol=1e-12)


def test_denied_keys_cannot_influence_output():
    """Perturbing a token no row may attend to leaves other rows unchanged."""
    plan, tokens, b, *_ = _packed()
    seq, pred = plan.layout, b.predictor
    allow = _allow(seq, AttnVariant(text_sees_targets=False))
    assert seq.target_rows.size, "fixture must include target tokens"
    p = seq.target_rows[0]
    blind_rows = [i for i in range(len(seq.roles))
                  if not allow[0, i, p] and i != p]
    assert blind_rows

    base, _ = _forward(pred, tokens, allow)
    bumped = Tensor(tokens.data.copy())
    bumped.data[p] += 10.0
    out, _ = _forward(pred, bumped, allow)
    for i in blind_rows:
        np.testing.assert_array_equal(base.data[i], out.data[i])


def test_forward_matches_plain_numpy_reference():
    """Independent numpy re-implementation of the forward pass."""
    plan, tokens, b, *_ = _packed()
    pred, allow = b.predictor, plan.allow
    logits, tap = _forward(pred, tokens, allow)

    def ln(x, g, b, eps=1e-5):
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + eps) * g + b

    def gelu(x):    # the tanh form
        c, a = math.sqrt(2.0 / math.pi), 0.044715
        return x * 0.5 * (1.0 + np.tanh(c * (x + a * x ** 3)))

    s = len(plan.layout.roles)
    x = tokens.data + sincos_1d(s, pred.cfg.d)
    ref_tap = None
    for li, blk in enumerate(pred.blocks):
        h = ln(x, blk["ln1_g"].data, blk["ln1_b"].data)
        q = h @ blk["wq"].data + blk["bq"].data
        k = h @ blk["wk"].data
        v = h @ blk["wv"].data + blk["bv"].data
        dh = pred.cfg.d // pred.cfg.H
        outs = []
        for i in range(pred.cfg.H):
            sl = slice(i * dh, (i + 1) * dh)
            sc = q[:, sl] @ k[:, sl].T / math.sqrt(dh)
            sc = np.where(allow[0], sc, -np.inf)
            e = np.exp(sc - sc.max(axis=1, keepdims=True))
            e = np.where(allow[0], e, 0.0)
            outs.append((e / e.sum(axis=1, keepdims=True)) @ v[:, sl])
        x = x + np.concatenate(outs, axis=1) @ blk["wo"].data + blk["bo"].data
        h2 = ln(x, blk["ln2_g"].data, blk["ln2_b"].data)
        x = x + gelu(h2 @ blk["w_up"].data + blk["b_up"].data) \
            @ blk["w_down"].data + blk["b_down"].data
        if li + 1 == pred.cfg.tap_layer:
            ref_tap = x
    ref_logits = ln(x, pred.lnf_g.data, pred.lnf_b.data) \
        @ pred.head_w.data + pred.head_b.data
    np.testing.assert_allclose(tap.data, ref_tap, atol=1e-10)
    np.testing.assert_allclose(logits.data, ref_logits, atol=1e-10)


def test_project_tap_rejects_non_target_positions():
    plan, _, b, *_ = _packed()
    proj_tgt = Projector("linear", CFG.d, 8, seed=5)
    _, tap = b.forward(plan)
    out = project_tap(proj_tgt, tap, plan.layout.target_rows)
    assert out.shape == (len(plan.layout.target_rows), 8)


def test_latent_z_gets_no_grad_without_target_tokens():
    plan, _, b, *_ = _packed(masked=False)
    logits, _ = b.forward(plan)
    ad.tsum(logits).backward()
    assert b.latent.z.grad is None


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    pred = Predictor(CFG, seed=6)
    params = pred.named_parameters()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, 17, {"note": "test"}, params)
    header, loaded = load_checkpoint(path)
    assert header["step"] == 17
    assert header["config"] == {"note": "test"}
    for name, p in params.items():
        assert np.array_equal(loaded[name], p.data)

    other = Predictor(CFG, seed=7)
    load_into(other.named_parameters(), loaded)
    for name, p in other.named_parameters().items():
        assert np.array_equal(p.data, params[name].data)


def test_checkpoint_save_that_raises_leaves_the_earlier_file(tmp_path):
    """A checkpoint is written beside its path and moved there once
    complete: a save that raises after its header leaves the earlier file
    byte for byte, and no temporary file."""
    path = tmp_path / "m.ckpt"
    params = Predictor(CFG, seed=6).named_parameters()
    save_checkpoint(path, 1, {}, params)
    before = path.read_bytes()
    broken = {"first": next(iter(params.values())),
              "second": SimpleNamespace(data=np.array([object()]))}
    with pytest.raises(TypeError):
        save_checkpoint(path, 2, {}, broken)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, 0, {}, Predictor(CFG, seed=6).named_parameters())
    with open(path, "ab") as fh:
        fh.write(b"\0" * 4)
    with pytest.raises(ValueError, match="trailing bytes"):
        load_checkpoint(path)


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    pred = Predictor(CFG, seed=6)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, 0, {}, pred.named_parameters())
    _, loaded = load_checkpoint(path)
    small = Predictor(PredictorConfig(d=8, L=2, H=2, V=16, tap_layer=1),
                      seed=0)
    with pytest.raises(ValueError):
        load_into(small.named_parameters(), loaded)


NOT_A_CHECKPOINT = "^not a checkpoint file$"


@pytest.mark.parametrize("header, message", [
    pytest.param([1], NOT_A_CHECKPOINT, id="not-an-object"),
    pytest.param({"params": []}, NOT_A_CHECKPOINT, id="no-format"),
    pytest.param({"format": "latentalign-ckpt"}, NOT_A_CHECKPOINT,
                 id="no-params"),
    pytest.param({"format": "latentalign-ckpt", "params": 5},
                 NOT_A_CHECKPOINT, id="params-not-a-list"),
    pytest.param({"format": "latentalign-ckpt", "params": [["w"]]},
                 NOT_A_CHECKPOINT, id="entry-not-a-pair"),
    pytest.param({"format": "latentalign-ckpt", "params": [[1, [2]]]},
                 NOT_A_CHECKPOINT, id="name-not-a-string"),
    pytest.param({"format": "latentalign-ckpt", "params": [["w", [-1]]]},
                 NOT_A_CHECKPOINT, id="negative-extent"),
    pytest.param({"format": "latentalign-ckpt", "params": []},
                 "^unsupported checkpoint version None$", id="no-version"),
    pytest.param({"format": "latentalign-ckpt", "version": 7, "params": []},
                 "^unsupported checkpoint version 7$", id="version-7"),
    # a duplicate would load, and its second payload would win
    pytest.param({"format": "latentalign-ckpt", "version": 1,
                  "params": [["a", [2]], ["a", [2]]]},
                 "^parameter 'a' listed twice$", id="name-twice"),
])
def test_checkpoint_rejects_malformed_header(tmp_path, header, message):
    path = tmp_path / "m.ckpt"
    path.write_bytes(json.dumps(header).encode() + b"\n")
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


def test_checkpoint_header_read_is_capped_at_one_mib(tmp_path):
    """A header line of 1 MiB, newline included, loads; one byte longer is
    not a checkpoint file."""
    header = json.dumps({"format": "latentalign-ckpt", "version": 1,
                         "params": []})
    path = tmp_path / "m.ckpt"
    path.write_bytes(header.ljust((1 << 20) - 1).encode() + b"\n")
    assert load_checkpoint(path)[0]["params"] == []
    path.write_bytes(header.ljust(1 << 20).encode() + b"\n")
    with pytest.raises(ValueError, match="not a checkpoint file"):
        load_checkpoint(path)
