"""Schedule, optimizer, stage contracts, and deterministic replay."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentalign import autodiff as ad
from latentalign.autodiff import NonFiniteError, Tensor
from latentalign.config import bundle_from, default_config
from latentalign.data import generate, learnability_fixture
from latentalign.masking import PatchGrid, SamplerConfig
from latentalign.model import PredictorConfig, load_checkpoint, project_tap
from latentalign.objective import LossConfig, jepa_loss, ntp_loss
from latentalign.training import (STAGE_LR, AdamW, ModelBundle, TrainConfig,
                                  Trainer, derive_seed, lr_at, run_stage)

GRID = PatchGrid(3, 3)
SMALL = PredictorConfig(d=16, L=2, H=2, V=16, max_seq=64, tap_layer=1)


def _bundle(seed=0, **kw):
    kw.setdefault("ctx_dim", 8)
    kw.setdefault("tgt_dim", 8)
    kw.setdefault("sampler", SamplerConfig(k=2))
    return ModelBundle(GRID, SMALL, model_seed=seed, **kw)


def _dataset(n=8, seed=0):
    return generate(seed, n, GRID)


def test_derive_seed_is_stable_and_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(3, 2, 1)
    assert derive_seed(0) != derive_seed(1)


def test_stage_defaults():
    assert TrainConfig(stage="align").lr == STAGE_LR["align"] == 1e-3
    assert TrainConfig(stage="sft").lr == STAGE_LR["sft"] == 2e-5
    with pytest.raises(ValueError):
        TrainConfig(stage="pretrain")


def test_lr_schedule_endpoints_and_shape():
    cfg = TrainConfig(stage="align", lr=1.0, warmup_ratio=0.1)
    total = 100
    warm = 10
    assert lr_at(0, total, cfg) == 0.0
    assert lr_at(warm, total, cfg) == 1.0
    np.testing.assert_allclose(lr_at(5, total, cfg), 0.5)
    np.testing.assert_allclose(lr_at(total, total, cfg), 0.0, atol=1e-12)
    # midpoint of the cosine leg is half the peak
    np.testing.assert_allclose(lr_at(warm + 45, total, cfg), 0.5, atol=1e-12)
    mono = [lr_at(s, total, cfg) for s in range(warm, total + 1)]
    assert all(a >= b for a, b in zip(mono, mono[1:]))


def test_adamw_first_step_size():
    # with a constant grad, step 1 moves by ~lr regardless of grad scale
    p = Tensor(np.array([0.0]), requires_grad=True)
    p.grad = np.array([123.0])
    opt = AdamW({"p": p}, TrainConfig(stage="align"))
    opt.update(0.5)
    np.testing.assert_allclose(p.data, [-0.5], atol=1e-6)


def test_adamw_skips_params_without_grad():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"p": p}, TrainConfig(stage="align"))
    opt.update(0.5)
    np.testing.assert_array_equal(p.data, [1.0])
    assert np.array_equal(opt.m["p"], [0.0])


def test_trainable_scopes_per_stage():
    b = _bundle()
    align = b.trainable_names("align")
    sft = b.trainable_names("sft")
    assert all(n.startswith(("proj.", "proj_tgt.", "latent.")) for n in align)
    assert "latent.z" in align
    assert all(n.startswith(("predictor.", "proj.")) for n in sft)
    assert not any(n.startswith("predictor.") for n in align)
    assert not any(n.startswith(("proj_tgt.", "latent.")) for n in sft)


def test_align_stage_leaves_frozen_parts_untouched():
    b = _bundle()
    before = {n: p.data.copy() for n, p in b.named_parameters().items()}
    enc_before = (b.ctx_encoder.state(), b.tgt_encoder.state())
    run_stage(b, TrainConfig(stage="align", epochs=1, batch_size=4, seed=0),
              _dataset())
    after = b.named_parameters()
    changed = [n for n in before
               if not np.array_equal(before[n], after[n].data)]
    assert changed, "alignment must train something"
    assert all(not n.startswith("predictor.") for n in changed)
    for k in ("weight", "bias"):
        assert np.array_equal(enc_before[0][k], b.ctx_encoder.state()[k])
        assert np.array_equal(enc_before[1][k], b.tgt_encoder.state()[k])


def test_align_step_freezes_the_predictor_in_the_graph():
    b = bundle_from(default_config())
    batch = list(enumerate(generate(0, 8, b.grid, b.vocab)))
    align = Trainer(b, TrainConfig(stage="align"))
    report = align.step(batch, 0, 1)
    assert not report.skipped      # the latent path, too, reached backward
    for name, p in b.named_parameters().items():
        if name.startswith("predictor."):
            assert not p.requires_grad and p.grad is None, name
    for name, p in align.trainable.items():
        assert p.grad is not None and np.isfinite(p.grad).all(), name

    Trainer(b, TrainConfig(stage="sft")).step(batch, 0, 1)
    for name, p in b.named_parameters().items():
        if name.startswith("predictor."):
            assert p.requires_grad and p.grad is not None, name

    # a step follows its own Trainer's stage, whichever Trainer came last
    align.step(batch, 0, 1)
    assert all(p.grad is None for name, p in b.named_parameters().items()
               if name.startswith("predictor."))


def test_identical_seeds_replay_bit_identically(tmp_path):
    logs = []
    for run in range(2):
        b = _bundle()
        path = tmp_path / f"run{run}.jsonl"
        run_stage(b, TrainConfig(stage="align", epochs=2, batch_size=4,
                                 seed=5), _dataset(), log_path=path)
        logs.append(path.read_bytes())
    assert logs[0] == logs[1]


def test_different_seed_changes_the_run(tmp_path):
    outs = []
    for seed in (0, 1):
        b = _bundle()
        path = tmp_path / f"s{seed}.jsonl"
        run_stage(b, TrainConfig(stage="align", epochs=1, batch_size=4,
                                 seed=seed), _dataset(), log_path=path)
        outs.append(path.read_bytes())
    assert outs[0] != outs[1]


def test_log_lines_are_json_with_expected_keys(tmp_path):
    b = _bundle()
    path = tmp_path / "log.jsonl"
    run_stage(b, TrainConfig(stage="align", batch_size=4, seed=0),
              _dataset(), log_path=path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2     # 8 samples / batch 4
    for i, line in enumerate(lines):
        obj = json.loads(line)
        assert obj["step"] == i
        assert set(obj) == {"step", "ntp", "jepa", "total", "skipped"}


def test_sft_resumes_from_checkpoint_and_updates_predictor(tmp_path):
    b = _bundle()
    ckpt = tmp_path / "align.ckpt"
    run_stage(b, TrainConfig(stage="align", batch_size=4, seed=0),
              _dataset(), ckpt_path=ckpt)
    _, saved = load_checkpoint(ckpt)

    b2 = _bundle(seed=3)   # different init, to prove the load matters
    # warmup_ratio=0 so the single step has a nonzero learning rate
    run_stage(b2, TrainConfig(stage="sft", batch_size=8, seed=0,
                              warmup_ratio=0.0), _dataset()[:8],
              init_ckpt=ckpt)
    after = b2.named_parameters()
    # the loaded projector was trained further; predictor moved off the ckpt
    pred_changed = [n for n in saved if n.startswith("predictor.")
                    and not np.array_equal(saved[n], after[n].data)]
    assert pred_changed
    # frozen-in-sft parts still match the checkpoint exactly
    for n in saved:
        if n.startswith(("proj_tgt.", "latent.")):
            assert np.array_equal(saved[n], after[n].data)


def test_control_bundle_has_no_latent_machinery():
    b = _bundle(jepa=False)
    names = b.named_parameters()
    assert b.tgt_encoder is None and b.latent is None
    assert not any(n.startswith(("proj_tgt.", "latent.")) for n in names)
    reports = run_stage(b, TrainConfig(stage="align", batch_size=4, seed=0),
                        _dataset())
    assert all(r.skipped and r.jepa is None for r in reports)


def test_reports_are_finite():
    b = _bundle()
    reports = run_stage(b, TrainConfig(stage="align", batch_size=4, seed=0),
                        _dataset(16))
    for r in reports:
        assert np.isfinite(r.ntp) and np.isfinite(r.total)
        if r.jepa is not None:
            assert np.isfinite(r.jepa)


def test_learnability_fixture_wires_into_bundle():
    samples, tgt = learnability_fixture(0, 8, GRID)
    b = ModelBundle(GRID, SMALL, ctx_dim=8, tgt_dim=8,
                    sampler=SamplerConfig(k=2), tgt_nonlinear=False)
    b.tgt_encoder = tgt
    reports = run_stage(b, TrainConfig(stage="align", batch_size=4, seed=0),
                        samples)
    assert len(reports) == 2


def _per_sample_losses(trainer, samples, masks):
    """The per-sample composition the batch forward replaces: each sample
    packed and run alone with plain-mean losses, then the means averaged
    over the samples (the latent one over the samples with targets)."""
    b = trainer.bundle
    ntps, jepas = [], []
    for sample, mask in zip(samples, masks):
        seq, logits, tap = b.forward([sample], [mask])
        ntps.append(ntp_loss(logits, [sample.caption], seq.text_rows))
        if mask.target_union:
            pred = project_tap(b.proj_tgt, tap, seq.target_rows)
            tgt = b.tgt_encoder.encode(sample.pixels)[
                sorted(mask.target_union)]
            jepas.append(jepa_loss(pred, Tensor(tgt), b.loss))

    def mean(terms):
        acc = terms[0]
        for t in terms[1:]:
            acc = acc + t
        return acc * (1.0 / len(terms))

    return mean(ntps), mean(jepas) if jepas else None


def _losses_and_grads(trainer, forward, samples, masks):
    ntp, jepa = forward(trainer, samples, masks)
    total = ntp if jepa is None else ntp + 2.0 * jepa
    for p in trainer.all_params.values():
        p.zero_grad()
    total.backward()
    losses = [float(t.data) for t in (ntp, total)
              + (() if jepa is None else (jepa,))]
    return losses, {n: p.grad.copy() for n, p in trainer.trainable.items()
                    if p.grad is not None}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16), st.integers(1, 4),
       st.sampled_from(["masked", "skipped", "sft"]),
       st.sampled_from(["cosine", "smooth_l1"]))
def test_batched_step_equals_per_sample_composition(seed, n, mode, dist):
    """Caption lengths and mask sizes differ between the samples, so the
    batch is padded; losses and every trainable grad match the per-sample
    composition."""
    b = _bundle(seed, loss=LossConfig(distance=dist))
    trainer = Trainer(b, TrainConfig(stage="sft" if mode == "sft"
                                     else "align", seed=seed))
    samples = generate(seed, n, GRID, b.vocab)
    masks = [trainer.mask_for(i) if mode == "masked" else trainer.unmasked
             for i in range(n)]
    got = _losses_and_grads(trainer, Trainer._forward, samples, masks)
    want = _losses_and_grads(trainer, _per_sample_losses, samples, masks)
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12)
    assert len(got[0]) == (3 if mode == "masked" else 2)
    assert set(got[1]) == set(want[1])
    # the key-bias grads are zero in exact arithmetic (softmax ignores a
    # shift shared by a whole row), so their rounding noise gets an absolute
    # floor scaled by the largest grad of the model
    floor = 1e-14 * max(np.abs(g).max() for g in want[1].values())
    for name, g in want[1].items():
        np.testing.assert_allclose(got[1][name], g, rtol=1e-12, atol=floor,
                                   err_msg=name)


def test_near_zero_norm_step_is_a_numeric_failure():
    """A zero target projector output fails the cosine distance's norm check
    as a NonFiniteError that names the step."""
    b = _bundle(loss=LossConfig(lam=0.0))
    b.proj_tgt.w2.data[...] = 0.0
    b.proj_tgt.b2.data[...] = 0.0
    trainer = Trainer(b, TrainConfig(stage="align"))
    with pytest.raises(NonFiniteError,
                       match="^step 0: near-zero norm in cosine distance$"):
        trainer.step(list(enumerate(_dataset(4))), 0, 1)


def test_default_align_step_builds_at_most_80_nodes(monkeypatch):
    b = bundle_from(default_config())
    batch = list(enumerate(generate(0, 8, b.grid, b.vocab)))
    trainer = Trainer(b, TrainConfig(stage="align"))
    nodes = []
    from_op = ad._from_op

    def counting(data, parents, vjp):
        nodes.append(data.shape)
        return from_op(data, parents, vjp)

    monkeypatch.setattr(ad, "_from_op", counting)
    report = trainer.step(batch, 0, 1)
    assert not report.skipped
    assert len(nodes) <= 80
