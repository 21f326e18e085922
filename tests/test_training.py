"""Schedule, optimizer, stage contracts, and deterministic replay."""

import ctypes
import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentalign import autodiff as ad
from latentalign import training, verify
from latentalign.attention import (CONTEXT, PAD_ROLE, TARGET, TEXT,
                                   TokenRole, oracle_mask, roles_for_mask)
from latentalign.autodiff import NonFiniteError, Tensor
from latentalign.config import bundle_from, default_config, merge
from latentalign.data import generate
from latentalign.encoders import StubEncoder
from latentalign.masking import PatchGrid, SamplerConfig
from latentalign.model import (PredictorConfig, load_checkpoint, project_tap,
                               sincos_1d)
from latentalign.objective import (LossConfig, combine, jepa_loss,
                                   mean_of_means, ntp_loss, ntp_targets)
from latentalign.training import (STAGE_LR, AdamW, ModelBundle, TrainConfig,
                                  Trainer, derive_seed, lr_at, run_stage)
from latentalign.verify import run_gradcheck

GRID = PatchGrid(3, 3)
SMALL = PredictorConfig(d=16, L=2, H=2, V=16, tap_layer=1)


def _bundle(seed=0, predictor=SMALL, **kw):
    kw.setdefault("ctx_dim", 8)
    kw.setdefault("tgt_dim", 8)
    kw.setdefault("sampler", SamplerConfig(k=2))
    return ModelBundle(GRID, predictor, model_seed=seed, **kw)


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
    opt = AdamW({"p": p})
    opt.update(0.5)
    np.testing.assert_allclose(p.data, [-0.5], atol=1e-6)


def test_adamw_skips_params_without_grad():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"p": p})
    opt.update(0.5)
    np.testing.assert_array_equal(p.data, [1.0])
    assert np.array_equal(opt.m["p"], [0.0])


def test_adamw_rejects_nonfinite_update_and_names_the_parameter():
    """An infinite grad gives a NaN update (inf / inf); it raises before
    it reaches the parameter."""
    good = Tensor(np.array([1.0]), requires_grad=True)
    bad = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    good.grad = np.array([1.0])
    bad.grad = np.array([0.5, np.inf])
    opt = AdamW({"good": good, "bad": bad})
    with pytest.raises(NonFiniteError, match="^non-finite update of bad$"):
        opt.update(0.5)
    np.testing.assert_array_equal(bad.data, [2.0, 3.0])


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
    encoders = (b.ctx_encoder, b.tgt_encoder)
    enc_before = [{k: getattr(enc, k).copy() for k in ("weight", "bias")}
                  for enc in encoders]
    run_stage(b, TrainConfig(stage="align", epochs=1, batch_size=4, seed=0),
              _dataset())
    after = b.named_parameters()
    changed = [n for n in before
               if not np.array_equal(before[n], after[n].data)]
    assert changed, "alignment must train something"
    assert all(not n.startswith("predictor.") for n in changed)
    for k in ("weight", "bias"):
        for enc, snapshot in zip(encoders, enc_before):
            assert np.array_equal(snapshot[k], getattr(enc, k))


@pytest.mark.parametrize("stage", ["sft", "align"])
def test_backward_frees_the_graph_as_it_walks(stage):
    """An 8x8/d=64 sft step and a default masked align step, batch 8: the
    walk frees each node's saved arrays as it passes them, so its peak stays
    near what the forward left live, and after it, with the loss still
    held, little more than the trainable grads is live."""
    over = {"grid": {"rows": 8, "cols": 8}, "predictor": {"d": 64}}
    b = bundle_from(merge(default_config(), over if stage == "sft" else {}))
    trainer = Trainer(b, TrainConfig(stage=stage))
    masks = [trainer.mask_for(i) if stage == "align" else trainer.unmasked
             for i in range(8)]
    plan = b.plan(generate(0, 8, b.grid, b.vocab), masks)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        total, _ = combine(*trainer._forward(plan), b.loss, 0)
        forward = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        total.backward()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grads = sum(p.grad.nbytes for p in trainer.trainable.values())
    assert peak - base <= 1.15 * forward
    assert after - base <= grads + 0.1 * forward


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
    """One row per step, with the step's epoch, learning rate and count of
    target tokens (none when the step skipped the latent loss)."""
    b = _bundle()
    path = tmp_path / "log.jsonl"
    cfg = TrainConfig(stage="align", epochs=2, batch_size=4, seed=0)
    run_stage(b, cfg, _dataset(), log_path=path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4     # 2 epochs of 8 samples / batch 4
    for i, line in enumerate(lines):
        obj = json.loads(line)
        assert obj["step"] == i
        assert set(obj) == {"step", "ntp", "jepa", "total", "skipped",
                            "n_target_tokens", "lr", "epoch"}
        assert obj["epoch"] == i // 2
        assert obj["lr"] == lr_at(i, 4, cfg)
        assert (obj["n_target_tokens"] == 0) == obj["skipped"]


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


def test_init_checkpoint_without_a_recorded_predictor_loads(tmp_path):
    """``run_stage`` without ``config_header`` records an empty config, so
    nothing tells its predictor: names and shapes alone are checked, and a
    bundle with another head count loads it."""
    ckpt = tmp_path / "align.ckpt"
    run_stage(_bundle(), TrainConfig(stage="align", batch_size=4, seed=0),
              _dataset(), ckpt_path=ckpt)
    header, saved = load_checkpoint(ckpt)
    assert header["config"] == {}
    b = _bundle(predictor=dataclasses.replace(SMALL, H=4))
    run_stage(b, TrainConfig(stage="sft", batch_size=8, seed=0),
              _dataset()[:8], init_ckpt=ckpt)
    for n in saved:
        if n.startswith(("proj_tgt.", "latent.")):
            assert np.array_equal(saved[n], b.named_parameters()[n].data)


def _wide_sft_trainer():
    cfg = default_config()
    b = bundle_from(dict(cfg, grid={"rows": 8, "cols": 8},
                         predictor=dict(cfg["predictor"], d=64)))
    batch = list(enumerate(generate(0, 8, b.grid, b.vocab)))
    return Trainer(b, TrainConfig(stage="sft")), batch


@pytest.fixture
def heap_setting_unmade():
    """``_keep_step_memory`` as if no Trainer had been built; the next
    Trainer after the test makes the real setting again."""
    training._keep_step_memory.cache_clear()
    yield
    training._keep_step_memory.cache_clear()


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_warmed_sft_steps_take_few_page_faults():
    """A step's freed arrays stay in the process heap for the next step:
    three 8x8/d=64 sft steps take fewer than 100 minor page faults once
    six steps have grown the heap (7,500 to 15,000 when glibc unmaps and
    trims them)."""
    import resource     # POSIX only, like mallopt
    trainer, batch = _wide_sft_trainer()
    for step in range(6):
        trainer.step(batch, step, 9)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for step in range(6, 9):
        trainer.step(batch, step, 9)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


class _NoMallopt:
    """A C library without ``mallopt``, as on macOS."""


@pytest.mark.parametrize("lookup", [OSError, TypeError, _NoMallopt],
                         ids=["no-dlopen", "no-default-library", "no-mallopt"])
def test_trainer_without_mallopt_builds_and_changes_nothing(
        monkeypatch, heap_setting_unmade, lookup):
    """Where the C library cannot be opened (``OSError``; ``TypeError`` on
    Windows) or has no ``mallopt``, a Trainer builds and steps as it does
    with one."""
    trainer, batch = _wide_sft_trainer()
    want = trainer.step(batch, 0, 1)
    training._keep_step_memory.cache_clear()

    def lookup_away(name):
        if lookup is _NoMallopt:
            return _NoMallopt()
        raise lookup("no C library")

    monkeypatch.setattr(ctypes, "CDLL", lookup_away)
    trainer, batch = _wide_sft_trainer()
    assert trainer.step(batch, 0, 1) == want


def test_second_trainer_does_not_call_mallopt_again(monkeypatch,
                                                    heap_setting_unmade):
    """The thresholds are set once per process, when the first Trainer is
    built: the mmap threshold, then the trim threshold."""
    calls = []

    class Mallopt:
        def __call__(self, param, value):
            calls.append((param, value))
            return 1

    class Libc:
        mallopt = Mallopt()

    monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
    for _ in range(2):
        Trainer(_bundle(), TrainConfig(stage="align"))
    assert calls == [(-3, 16 << 20), (-1, 256 << 20)]


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
    """An affine target stub, as the learnability run uses, can replace the
    bundle's target encoder."""
    samples = generate(0, 8, GRID)
    b = ModelBundle(GRID, SMALL, ctx_dim=8, tgt_dim=8,
                    sampler=SamplerConfig(k=2))
    b.tgt_encoder = StubEncoder(1, 8, nonlinear=False)
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
        plan = b.plan([sample], [mask])
        seq = plan.layout
        logits, tap = b.forward(plan)
        window_rows = seq.text_rows - (seq.seq_len - plan.window)
        ntps.append(ntp_loss(logits, *ntp_targets([sample.caption],
                                                  window_rows)))
        if mask.target_union:
            pred = project_tap(b.proj_tgt, tap, seq.target_rows)
            tgt = b.tgt_encoder.encode(sample.pixels)[
                sorted(mask.target_union)]
            jepas.append(jepa_loss(pred, Tensor(tgt), b.loss,
                                   mean_of_means([len(tgt)])))

    def mean(terms):
        acc = terms[0]
        for t in terms[1:]:
            acc = acc + t
        return ad.mul(acc, Tensor(1.0 / len(terms)))

    return mean(ntps), mean(jepas) if jepas else None


def _plan_and_run(trainer, samples, masks):
    return trainer._forward(trainer.bundle.plan(samples, masks))


def _full_row_forward(pred, tokens, allow):
    """``Predictor.forward`` with no caption window: every block, the last
    one included, runs on every row of the padded layout."""
    bsz, s = allow.shape[:2]
    x = tokens + Tensor(np.tile(sincos_1d(s, pred.cfg.d), (bsz, 1)))
    tap = None
    for i, blk in enumerate(pred.blocks, 1):
        h = ad.layernorm(x, blk["ln1_g"], blk["ln1_b"])
        q = ad.linear(h, blk["wq"], blk["bq"])
        k = ad.matmul(h, blk["wk"])
        v = ad.linear(h, blk["wv"], blk["bv"])
        x = x + ad.linear(ad.attention(q, k, v, allow, pred.cfg.H),
                          blk["wo"], blk["bo"])
        up = ad.linear(ad.layernorm(x, blk["ln2_g"], blk["ln2_b"]),
                       blk["w_up"], blk["b_up"])
        x = x + ad.linear(ad.gelu(up), blk["w_down"], blk["b_down"])
        if i == pred.cfg.tap_layer:
            tap = x
    return ad.linear(ad.layernorm(x, pred.lnf_g, pred.lnf_b),
                     pred.head_w, pred.head_b), tap


def _unsplit_forward(trainer, samples, masks):
    """The batch forward before the plan/run split, the caption window and
    the columnar layout: the layout (one TokenRole per row), the mask (the
    cell-by-cell oracle per sequence), both encoders and the caption ids
    are recomputed with the token rows, which the packing step builds from
    the parameters, and the logits cover every row."""
    b, grid = trainer.bundle, trainer.bundle.grid
    pixels = np.concatenate([s.pixels for s in samples])
    ctx_emb = b.ctx_encoder.encode(pixels)
    captions = [s.caption for s in samples]
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

    target_patches = address(target_rows)
    ids = np.concatenate([np.asarray(c, dtype=np.int64) for c in captions])
    parts = [b.proj(Tensor(ctx_emb[address(ctx_rows)]))]
    if target_rows.size:
        parts.append(b.latent.z
                     + Tensor(b.latent.phi[target_patches % grid.n]))
    if ids.size:
        parts.append(ad.gather_rows(b.predictor.tok_emb, ids))
    parts.append(Tensor(np.zeros((1, b.predictor.cfg.d))))
    real = np.concatenate([ctx_rows, target_rows, text_rows])
    perm = np.full(len(roles), real.size)
    perm[real] = np.arange(real.size)
    tokens = ad.gather_rows(ad.concat(parts, axis=0), perm)
    allow = np.stack([oracle_mask(roles[i:i + s], b.attn).allow
                      for i in range(0, len(roles), s)])
    logits, tap = _full_row_forward(b.predictor, tokens, allow)
    ntp = ntp_loss(logits, *ntp_targets(captions, text_rows))
    if not target_rows.size:
        return ntp, None
    pred = project_tap(b.proj_tgt, tap, target_rows)
    tgt = b.tgt_encoder.encode(pixels)
    per_seq = np.bincount(target_rows // s)
    return ntp, jepa_loss(pred, Tensor(tgt[target_patches]), b.loss,
                          mean_of_means(per_seq[per_seq > 0]))


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
    got = _losses_and_grads(trainer, _plan_and_run, samples, masks)
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


# perfbench's sft-d64 config: every block input of a batch of 4 or more
# holds at least autodiff.SPLIT_MIN values
WIDE = merge(default_config(), {"grid": {"rows": 8, "cols": 8},
                                "predictor": {"d": 64}})


@pytest.mark.parametrize("mode, n", [("sft", 4), ("masked", 8)])
def test_split_batch_equals_per_sample_composition(monkeypatch, live_pool,
                                                   mode, n):
    """A wide batch, whose blocks run in two halves, gives the same bytes
    with the first half on the worker or inline, and matches the
    per-sample composition (B = 1, never split) to the bounds of
    test_batched_step_equals_per_sample_composition."""
    b = bundle_from(merge(WIDE, {"model_seed": 41}))
    trainer = Trainer(b, TrainConfig(stage="sft" if mode == "sft"
                                     else "align", seed=41))
    samples = generate(41, n, b.grid, b.vocab)
    masks = [trainer.mask_for(i) if mode == "masked" else trainer.unmasked
             for i in range(n)]
    plan = b.plan(samples, masks)
    assert plan.allow.shape[1] * n * 64 >= ad.SPLIT_MIN
    got = _losses_and_grads(trainer, _plan_and_run, samples, masks)
    assert live_pool.submits == 2 * b.predictor.cfg.L
    monkeypatch.setattr(ad, "_split_pool", lambda: None)
    inline = _losses_and_grads(trainer, _plan_and_run, samples, masks)
    assert got[0] == inline[0]
    assert {k: g.tobytes() for k, g in got[1].items()} == {
        k: g.tobytes() for k, g in inline[1].items()}
    want = _losses_and_grads(trainer, _per_sample_losses, samples, masks)
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12)
    assert set(got[1]) == set(want[1])
    floor = 1e-14 * max(np.abs(g).max() for g in want[1].values())
    for name, g in want[1].items():
        np.testing.assert_allclose(got[1][name], g, rtol=1e-12, atol=floor,
                                   err_msg=name)


@pytest.mark.parametrize("stage", ["align", "sft"])
def test_split_steps_write_the_same_bytes_with_or_without_the_worker(
        tmp_path, monkeypatch, live_pool, stage):
    """Three wide steps write the same log and checkpoint whether the
    first half of each block runs on the worker or inline."""
    outs = []
    for i, pool in enumerate((live_pool, None)):
        monkeypatch.setattr(ad, "_split_pool", lambda: pool)
        log, ckpt = tmp_path / f"log{i}.jsonl", tmp_path / f"ckpt{i}.bin"
        b = bundle_from(WIDE)
        run_stage(b, TrainConfig(stage=stage, batch_size=8, seed=41),
                  generate(41, 24, b.grid, b.vocab), log_path=log,
                  ckpt_path=ckpt)
        outs.append((log.read_bytes(), ckpt.read_bytes()))
    assert live_pool.submits > 0
    assert len(outs[0][0].splitlines()) == 3
    assert outs[0] == outs[1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16), st.lists(st.integers(2, 9), min_size=1,
                                       max_size=4),
       st.sampled_from(["masked", "skipped", "sft"]),
       st.sampled_from(["cosine", "smooth_l1"]),
       st.sampled_from([1, SMALL.L]))
def test_plan_then_run_equals_the_unsplit_forward(seed, lengths, mode, dist,
                                                  tap_layer):
    """Planning the batch first and running the last block on the caption
    window alone leaves the tap bit for bit as it was, and the losses and
    every trainable grad within float reassociation of the full-row
    forward, on batches whose captions are cut to mixed lengths, with the
    tap before or at the last block."""
    b = _bundle(seed, dataclasses.replace(SMALL, tap_layer=tap_layer),
                loss=LossConfig(distance=dist))
    trainer = Trainer(b, TrainConfig(stage="sft" if mode == "sft"
                                     else "align", seed=seed))
    samples = [dataclasses.replace(sample, caption=sample.caption[:cut])
               for sample, cut in zip(generate(seed, len(lengths), GRID,
                                               b.vocab), lengths)]
    masks = [trainer.mask_for(i) if mode == "masked" else trainer.unmasked
             for i in range(len(samples))]
    got = _losses_and_grads(trainer, _plan_and_run, samples, masks)
    want = _losses_and_grads(trainer, _unsplit_forward, samples, masks)
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12)
    assert set(got[1]) == set(want[1])
    for name, g in want[1].items():
        np.testing.assert_allclose(got[1][name], g, rtol=1e-12, err_msg=name)
    plan = b.plan(samples, masks)
    _, tap = b.forward(plan)
    _, full_tap = _full_row_forward(b.predictor, b.tokens(plan), plan.allow)
    assert tap.shape == full_tap.shape
    assert np.array_equal(tap.data, full_tap.data)


def test_gradcheck_builds_one_attention_mask_per_distance(monkeypatch):
    """run_gradcheck plans its batch once per distance, so the thousands
    of loss evaluations fd_check makes build no mask of their own."""
    calls = []
    build = training.build_mask

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(training, "build_mask", counting)
    errors = run_gradcheck()
    assert set(errors) == {"cosine", "smooth_l1"}
    assert len(calls) == 2


def _tiny_gradcheck_config():
    cfg = default_config()
    cfg["predictor"].update({"d": 8, "L": 1, "H": 2, "V": 16,
                             "tap_layer": 1})
    cfg["ctx_dim"] = cfg["tgt_dim"] = 4
    return cfg


def _recording_fd_check(record):
    """fd_check's loop, also appending (parameter, f(+eps) per entry,
    f(-eps) per entry, analytic gradient) to ``record``."""
    def fd_check(f, params, eps=1e-5):
        for p in params:
            p.zero_grad()
        f().backward()
        for p in params:
            ga = (np.array(p.grad) if p.grad is not None
                  else np.zeros_like(p.data))
            flat = p.data.reshape(-1)
            fp, fm = np.empty(flat.size), np.empty(flat.size)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                fp[i] = float(f().data)
                flat[i] = orig - eps
                fm[i] = float(f().data)
                flat[i] = orig
            record.append((p, fp, fm, ga))
        return 0.0
    return fd_check


def _single_closure_triples(cfg, dist):
    """Every trainable parameter's triples from one fd_check whose loss
    re-runs the whole batch graph, as run_gradcheck did before it checked
    proj_tgt on a fixed tap."""
    bundle = bundle_from(dict(cfg, loss=dict(cfg["loss"], distance=dist)))
    sample = generate(0, 1, bundle.grid, bundle.vocab)[0]
    trainer = Trainer(bundle, TrainConfig(stage="align", batch_size=1,
                                          seed=0))
    mask = trainer.mask_for(0)
    plan = bundle.plan([sample], [mask])

    def loss_fn():
        logits, tap = bundle.forward(plan)
        ntp = ntp_loss(logits, *plan.ntp)
        pred = project_tap(bundle.proj_tgt, tap, plan.layout.target_rows)
        jepa = jepa_loss(pred, plan.tgt, bundle.loss, plan.jepa_weights)
        return combine(ntp, jepa, bundle.loss, len(mask.target_union))[0]

    record = []
    _recording_fd_check(record)(loss_fn, list(trainer.trainable.values()))
    names = {id(p): n for n, p in bundle.named_parameters().items()}
    return {names[id(p)]: rest for p, *rest in record}


def test_gradcheck_triples_equal_the_single_closure_check(monkeypatch):
    """Checking proj_tgt against one predictor run changes no number: every
    entry's f(+eps), f(-eps) and analytic gradient are bit-equal to those
    of one fd_check over every parameter with the full-graph loss."""
    cfg = _tiny_gradcheck_config()
    record, bundles = [], []
    build = verify.config.bundle_from

    def remembered(c):
        bundles.append(build(c))
        return bundles[-1]

    monkeypatch.setattr(verify.config, "bundle_from", remembered)
    monkeypatch.setattr(verify, "fd_check", _recording_fd_check(record))
    dists = ("cosine", "smooth_l1")
    run_gradcheck(cfg, distances=dists)
    assert len(bundles) == 2
    for dist, bundle in zip(dists, bundles):
        names = {id(p): n for n, p in bundle.named_parameters().items()}
        got = {names[id(p)]: rest for p, *rest in record
               if id(p) in names}
        want = _single_closure_triples(cfg, dist)
        assert set(got) == set(want) and len(want) == 9
        assert np.any(want["proj_tgt.w1"][2])    # the head has a gradient
        for name, triple in want.items():
            assert all(np.array_equal(a, b)
                       for a, b in zip(got[name], triple)), (dist, name)
    assert len(record) == 18


def test_proj_tgt_does_not_reach_the_predictor():
    """Nudging any proj_tgt entry leaves the logits and the tap bit-equal:
    the premise of checking proj_tgt on a fixed tap."""
    b = bundle_from(_tiny_gradcheck_config())
    samples = generate(0, 2, b.grid, b.vocab)
    trainer = Trainer(b, TrainConfig(stage="align"))
    plan = b.plan(samples, [trainer.mask_for(i) for i in range(2)])
    assert plan.tgt is not None
    logits, tap = b.forward(plan)
    for name, p in b.proj_tgt.named_parameters().items():
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + 0.5
            nudged = b.forward(plan)
            flat[i] = orig
            assert np.array_equal(nudged[0].data, logits.data), (name, i)
            assert np.array_equal(nudged[1].data, tap.data), (name, i)


def test_text_leakage_check_fails_when_visual_rows_see_text(monkeypatch):
    """The leakage check can fail: with a mask builder that also lets
    visual rows see caption rows, a caption change reaches the taps."""
    assert verify.check_text_leakage(n_models=1)[0]
    build = training.build_mask

    def leaky(roles, blocks, text_pos, variant):
        mask = build(roles, blocks, text_pos, variant)
        visual = (roles == CONTEXT) | (roles == TARGET)
        mask.allow |= visual[:, :, None] & (roles == TEXT)[:, None, :]
        return mask

    monkeypatch.setattr(training, "build_mask", leaky)
    assert verify.check_text_leakage(n_models=1) == \
        (False, "caption change leaked into taps (trial 0)")


def test_training_steps_build_no_token_role_and_one_mask(monkeypatch):
    """A masked and a skipped default align step and an sft step lay out
    their batches as columns: no TokenRole is constructed, and the mask is
    built once per step."""
    made, masks = [], []
    monkeypatch.setattr(TokenRole, "__post_init__",
                        lambda self: made.append(self))
    build = training.build_mask

    def counting(*args, **kwargs):
        masks.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(training, "build_mask", counting)
    b = bundle_from(default_config())
    data = list(enumerate(generate(0, 16, b.grid, b.vocab)))
    align = Trainer(b, TrainConfig(stage="align"))
    skipped = [align.step(batch, i, 2).skipped
               for i, batch in enumerate((data[:8], data[8:]))]
    assert sorted(skipped) == [False, True]
    Trainer(b, TrainConfig(stage="sft")).step(data[:8], 0, 1)
    assert len(masks) == 3
    assert made == []


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


def _nodes_per_call(monkeypatch, fn, *args):
    """The autodiff nodes ``fn(*args)`` builds, and its result."""
    nodes = []
    from_op = ad._from_op

    def counting(data, parents, vjp):
        nodes.append(data.shape)
        return from_op(data, parents, vjp)

    with monkeypatch.context() as m:
        m.setattr(ad, "_from_op", counting)
        out = fn(*args)
    return len(nodes), out


def test_nodes_per_step_are_the_ones_the_readme_states(monkeypatch):
    """A masked and a skipped default align step (steps 0 and 1 of seed
    0), an 8x8/d=64 sft step and, for each distance, one gradcheck
    evaluation of the whole graph and one of the latent head alone build
    the node counts the README's design notes give, word for word."""
    cfg = default_config()
    b = bundle_from(cfg)
    data = generate(0, 16, b.grid, b.vocab)
    trainer = Trainer(b, TrainConfig(stage="align"))
    counts = {}
    for step, batch in enumerate((data[:8], data[8:])):
        n, report = _nodes_per_call(monkeypatch, trainer.step,
                                    list(enumerate(batch)), step, 2)
        counts["skipped" if report.skipped else "masked"] = n
    assert set(counts) == {"skipped", "masked"}
    wide = bundle_from(dict(cfg, grid={"rows": 8, "cols": 8},
                            predictor=dict(cfg["predictor"], d=64)))
    sft = Trainer(wide, TrainConfig(stage="sft"))
    counts["sft"], _ = _nodes_per_call(
        monkeypatch, sft.step,
        list(enumerate(generate(0, 8, wide.grid, wide.vocab))), 0, 1)
    evals = []

    def one_evaluation(f, params, eps):
        evals.append(_nodes_per_call(monkeypatch, f)[0])
        return 0.0

    monkeypatch.setattr(verify, "fd_check", one_evaluation)
    run_gradcheck()
    full, head = evals[:2]
    assert evals == [full, head] * 2 and head < full
    sentence = (f"Nodes per step: {counts['masked']} for a masked default "
                f"align step, {counts['skipped']} for a skipped one, "
                f"{counts['sft']} for an 8x8/d=64 sft step, {full} for a "
                f"`gradcheck` evaluation of the whole graph and {head} for "
                f"one of the latent head alone.")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert sentence in " ".join(readme.split())


def test_default_align_step_feeds_exp_only_finite_values(monkeypatch):
    """No -inf (or other non-finite value) reaches np.exp in a masked
    default align step, forward or backward: the masked softmax zeroes
    denied cells after exp instead of exponentiating -inf."""
    b = bundle_from(default_config())
    batch = list(enumerate(generate(0, 8, b.grid, b.vocab)))
    trainer = Trainer(b, TrainConfig(stage="align"))
    exp = np.exp
    finite = []

    def checked_exp(x, *args, **kwargs):
        finite.append(bool(np.isfinite(x).all()))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", checked_exp)
    report = trainer.step(batch, 0, 1)
    assert not report.skipped
    assert finite and all(finite)
