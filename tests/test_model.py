"""Predictor, projectors, latent tokens, packing, checkpoints."""

import dataclasses
import json
import math
import random

import numpy as np
import pytest

from latentalign import autodiff as ad
from latentalign.attention import (PAD, PAD_ROLE, TARGET, TEXT, AttnVariant,
                                   build_mask, roles_for_mask)
from latentalign.autodiff import Tensor
from latentalign.data import SyntheticVocab, make_sample
from latentalign.encoders import StubEncoder
from latentalign.masking import MaskSpec, PatchGrid, SamplerConfig, sample_mask
from latentalign.model import (LatentTarget, Predictor,
                               PredictorConfig, Projector, load_checkpoint,
                               load_into, pack, project_tap, save_checkpoint,
                               sincos_1d, sincos_2d, tap_layer_default)

CFG = PredictorConfig(d=16, L=2, H=2, V=16, max_seq=64, tap_layer=1)


def _packed_batch(seeds, grid=PatchGrid(3, 3), masked=True):
    """A batch of one sample per seed, each with its own mask."""
    vocab = SyntheticVocab(size=CFG.V)
    samples = [make_sample(seed, 0, grid, vocab) for seed in seeds]
    enc = StubEncoder(1, samples[0].pixels.shape[1], 8, nonlinear=False)
    proj = Projector("linear", 8, CFG.d, seed=2)
    lat = LatentTarget(CFG.d, grid.rows, grid.cols, seed=3)
    pred = Predictor(CFG, seed=4)
    masks = [sample_mask(grid, SamplerConfig(k=2), random.Random(seed))
             if masked else MaskSpec(context=frozenset(range(grid.n)))
             for seed in seeds]
    seq = pack(masks, enc.encode(np.concatenate([s.pixels for s in samples])),
               grid, [s.caption for s in samples], proj,
               lat if masked else None, pred.tok_emb)
    return seq, pred, proj, lat, masks, samples


def _packed(seed=0, grid=PatchGrid(3, 3), masked=True):
    seq, pred, proj, lat, masks, samples = _packed_batch([seed], grid, masked)
    return seq, pred, proj, lat, masks[0], samples[0]


def _allow(seq, variant=AttnVariant()):
    return np.stack([build_mask(roles, variant).allow
                     for roles in seq.sequences()])


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


def test_pack_orders_tokens_by_raster_position():
    seq, *_ , mask, _ = _packed()
    visual = [r for r in seq.roles if r.kind != TEXT]
    idx = [r.patch_index for r in visual]
    assert idx == sorted(idx)
    assert {r.patch_index for r in visual} == set(mask.context) | set(mask.target_union)
    text = [r for r in seq.roles if r.kind == TEXT]
    assert [r.text_position for r in text] == list(range(len(text)))


@pytest.mark.parametrize("masked", [True, False])
def test_pack_follows_roles_for_mask(masked):
    """Roles come from roles_for_mask, and each packed row holds the token
    its role names."""
    seq, pred, proj, lat, mask, sample = _packed(masked=masked)
    assert seq.roles == roles_for_mask(mask, PatchGrid(3, 3),
                                       len(sample.caption))
    ctx = StubEncoder(1, sample.pixels.shape[1], 8).encode(sample.pixels)
    for row, r in zip(seq.tokens.data, seq.roles):
        if r.kind == TEXT:
            want = pred.tok_emb.data[sample.caption[r.text_position]]
        elif r.kind == TARGET:
            want = lat.tokens([r.patch_index]).data[0]
        else:
            want = proj(Tensor(ctx[[r.patch_index]])).data[0]
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)


def test_pack_unmasked_covers_every_patch():
    grid = PatchGrid(3, 3)
    seq, *_ = _packed(masked=False, grid=grid)
    visual = [r for r in seq.roles if r.kind != TEXT]
    assert [r.patch_index for r in visual] == list(range(grid.n))
    assert all(r.kind != TARGET for r in visual)


def test_latent_tokens_are_shared_vector_plus_position():
    lat = LatentTarget(8, 4, 4, seed=0)
    toks = lat.tokens([3, 7]).data
    np.testing.assert_allclose(toks[0] - lat.phi[3], toks[1] - lat.phi[7],
                               atol=1e-12)
    np.testing.assert_allclose(toks[0], lat.z.data[0] + lat.phi[3], atol=1e-12)


def test_forward_shapes_and_tap_position():
    seq, pred, *_ = _packed()
    allow = _allow(seq)
    logits, tap = pred.forward(seq, allow)
    s = len(seq.roles)
    assert logits.shape == (s, CFG.V)
    assert tap.shape == (s, CFG.d)


def test_forward_builds_twelve_nodes_per_block(monkeypatch):
    """Position add, then per block two layernorms, four attention linears,
    one attention node, two residual adds, two MLP linears and a GELU, then
    the final layernorm and the head, however many sequences the batch
    holds."""
    seq, pred, *_ = _packed_batch([0, 1, 2])
    assert PAD in {r.kind for r in seq.roles}, "fixture must pad"
    allow = _allow(seq)
    nodes = []
    from_op = ad._from_op

    def counting(data, parents, vjp):
        nodes.append(data.shape)
        return from_op(data, parents, vjp)

    monkeypatch.setattr(ad, "_from_op", counting)
    pred.forward(seq, allow)
    assert len(nodes) == 1 + 12 * CFG.L + 2


def test_pack_pads_each_sample_to_the_longest():
    """Sample b fills rows b*S onward with what packing it alone gives;
    the rest of its rows are zero pad rows."""
    seeds = [0, 1, 2]
    seq, *_ = _packed_batch(seeds)
    alone = [_packed(seed)[0] for seed in seeds]
    assert seq.seq_len == max(len(a.roles) for a in alone)
    assert len({len(a.roles) for a in alone}) > 1, "fixture must be ragged"
    s = seq.seq_len
    for b, one in enumerate(alone):
        n = len(one.roles)
        rows = seq.tokens.data[b * s:(b + 1) * s]
        assert seq.roles[b * s:(b + 1) * s] == \
            one.roles + [PAD_ROLE] * (s - n)
        np.testing.assert_allclose(rows[:n], one.tokens.data, rtol=0,
                                   atol=1e-15)
        assert not rows[n:].any()


def test_pack_lists_rows_and_target_patch_addresses():
    """On a ragged, masked batch the row lists hold exactly the TEXT and
    TARGET rows, and each target row addresses its sample's patch in the
    stacked (B*N, ...) per-patch arrays as b*N + p."""
    grid = PatchGrid(3, 3)
    seq, *_ = _packed_batch([0, 1, 2], grid)
    s = seq.seq_len
    assert PAD in {r.kind for r in seq.roles}, "fixture must be ragged"
    for rows, kind in ((seq.text_rows, TEXT), (seq.target_rows, TARGET)):
        assert rows.tolist() == [i for i, r in enumerate(seq.roles)
                                 if r.kind == kind]
    assert seq.target_rows.size
    assert seq.target_patches.shape == seq.target_rows.shape
    for row, address in zip(seq.target_rows, seq.target_patches):
        assert address == (row // s) * grid.n + seq.roles[row].patch_index


def test_pad_rows_change_no_real_row():
    """Whatever the pad rows hold, every real row's logits and tap and every
    parameter's gradient stay bit for bit the same, and no gradient reaches
    a pad row."""
    seq, pred, *_ = _packed_batch([0, 1, 2])
    allow = _allow(seq)
    real = np.array([r.kind != PAD for r in seq.roles])
    weight = np.random.default_rng(0).normal(size=(len(seq.roles), CFG.V))
    weight[~real] = 0.0
    tap_weight = np.where(real[:, None], 1.0, 0.0)

    def run(pad_values):
        tokens = Tensor(seq.tokens.data.copy(), requires_grad=True)
        tokens.data[~real] = pad_values
        logits, tap = pred.forward(dataclasses.replace(seq, tokens=tokens),
                                   allow)
        params = pred.named_parameters()
        for p in params.values():
            p.zero_grad()
        loss = (ad.tsum(logits * Tensor(weight))
                + ad.tsum(tap * Tensor(tap_weight)))
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
    cfg = PredictorConfig(d=16, L=1, H=2, V=16, max_seq=64, tap_layer=1)
    pred = Predictor(cfg, seed=0)
    seq, _, proj, lat, mask, sample = _packed()
    allow = _allow(seq)
    logits, tap = pred.forward(seq, allow)
    # with L=1 and tap at 1, the tap is the residual stream feeding the head
    ref = ad.layernorm(tap, pred.lnf_g, pred.lnf_b) @ pred.head_w + pred.head_b
    np.testing.assert_allclose(logits.data, ref.data, atol=1e-12)


def test_denied_keys_cannot_influence_output():
    """Perturbing a token no row may attend to leaves other rows unchanged."""
    seq, pred, *_ = _packed()
    allow = _allow(seq, AttnVariant(text_sees_targets=False))
    assert seq.target_rows.size, "fixture must include target tokens"
    p = seq.target_rows[0]
    blind_rows = [i for i in range(len(seq.roles))
                  if not allow[0, i, p] and i != p]
    assert blind_rows

    base, _ = pred.forward(seq, allow)
    bumped = Tensor(seq.tokens.data.copy())
    bumped.data[p] += 10.0
    seq2 = dataclasses.replace(seq, tokens=bumped)
    out, _ = pred.forward(seq2, allow)
    for i in blind_rows:
        np.testing.assert_array_equal(base.data[i], out.data[i])


def test_forward_matches_plain_numpy_reference():
    """Independent numpy re-implementation of the forward pass."""
    seq, pred, *_ = _packed()
    allow = _allow(seq)
    logits, tap = pred.forward(seq, allow)

    def ln(x, g, b, eps=1e-5):
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + eps) * g + b

    def gelu(x):
        return x * 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))

    s = len(seq.roles)
    x = seq.tokens.data + pred.seq_pos[:s]
    ref_tap = None
    for li, blk in enumerate(pred.blocks):
        h = ln(x, blk["ln1_g"].data, blk["ln1_b"].data)
        q = h @ blk["wq"].data + blk["bq"].data
        k = h @ blk["wk"].data + blk["bk"].data
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
    seq, pred, proj, lat, mask, _ = _packed()
    proj_tgt = Projector("linear", CFG.d, 8, seed=5)
    allow = _allow(seq)
    _, tap = pred.forward(seq, allow)
    out = project_tap(proj_tgt, tap, seq.target_rows)
    assert out.shape == (len(seq.target_rows), 8)


def test_latent_z_gets_no_grad_without_target_tokens():
    seq, pred, proj, lat, _, sample = _packed(masked=False)
    allow = _allow(seq)
    logits, _ = pred.forward(seq, allow)
    ad.tsum(logits).backward()
    assert lat.z.grad is None


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
    small = Predictor(PredictorConfig(d=8, L=2, H=2, V=16, max_seq=64,
                                      tap_layer=1), seed=0)
    with pytest.raises(ValueError):
        load_into(small.named_parameters(), loaded)


@pytest.mark.parametrize("header", [
    pytest.param([1], id="not-an-object"),
    pytest.param({"params": []}, id="no-format"),
    pytest.param({"format": "latentalign-ckpt"}, id="no-params"),
    pytest.param({"format": "latentalign-ckpt", "params": 5},
                 id="params-not-a-list"),
    pytest.param({"format": "latentalign-ckpt", "params": [["w"]]},
                 id="entry-not-a-pair"),
    pytest.param({"format": "latentalign-ckpt", "params": [[1, [2]]]},
                 id="name-not-a-string"),
    pytest.param({"format": "latentalign-ckpt", "params": [["w", [-1]]]},
                 id="negative-extent"),
])
def test_checkpoint_rejects_malformed_header(tmp_path, header):
    path = tmp_path / "m.ckpt"
    path.write_bytes(json.dumps(header).encode() + b"\n")
    with pytest.raises(ValueError, match="not a checkpoint file"):
        load_checkpoint(path)


def test_sequence_beyond_max_seq_rejected():
    cfg = PredictorConfig(d=16, L=1, H=2, V=16, max_seq=4, tap_layer=1)
    pred = Predictor(cfg, seed=0)
    seq, *_ = _packed()
    allow = _allow(seq)
    with pytest.raises(ValueError):
        pred.forward(seq, allow)
