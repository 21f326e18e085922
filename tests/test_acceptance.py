"""Acceptance gate: nine go/no-go checks with pinned tolerances.

Each test prints one `acceptance[n] ...: PASS|FAIL` line (bypassing pytest's
capture so the line always reaches the console) and then asserts.
"""

import random
import time

import numpy as np
import pytest

from latentalign.attention import (PAD_ROLE, AttnVariant, build_mask,
                                   oracle_mask, roles_for_mask)
from latentalign.cli import main
from latentalign.data import generate
from latentalign.encoders import StubEncoder
from latentalign.masking import (PatchGrid, SamplerConfig, _block_dims,
                                 block_indices, sample_mask)
from latentalign.model import (PredictorConfig, load_checkpoint, pack,
                               save_checkpoint)
from latentalign.training import ModelBundle, TrainConfig, run_stage
from latentalign.verify import (GRADCHECK_TOL, check_text_leakage,
                                gradcheck_config, run_gradcheck)

GRID44 = PatchGrid(4, 4)

_CAPSYS = None


@pytest.fixture(autouse=True)
def _console(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance[{num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with _CAPSYS.disabled():
        print(line, flush=True)
    assert ok, line


# -- 1: mask builder agrees with the cell-by-cell oracle ------------


def test_criterion_1_mask_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(0)
    mismatches = 0
    for trial in range(200):
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
        grid = PatchGrid(rows, cols)
        k = rng.randint(1, 4)
        # a ragged batch of 1 to 3 masks, packed and masked as training does
        mrng = random.Random(trial)
        masks = [sample_mask(grid, SamplerConfig(k=k), mrng)
                 for _ in range(rng.randint(1, 3))]
        caption_lens = [rng.randint(2, 8) for _ in masks]
        variant = AttnVariant(tgt_cross_block=bool(rng.getrandbits(1)),
                              text_sees_targets=bool(rng.getrandbits(1)))
        layout = pack(masks, grid, [range(n) for n in caption_lens])
        allow = build_mask(layout, variant).allow
        for mask, n, a in zip(masks, caption_lens, allow):
            roles = roles_for_mask(mask, grid, n)
            roles += [PAD_ROLE] * (layout.seq_len - len(roles))
            mismatches += not np.array_equal(
                a, oracle_mask(roles, variant).allow)
    dt = time.monotonic() - t0
    _report(1, "mask-builder oracle equivalence",
            mismatches == 0 and dt < 5.0,
            f"{mismatches} mismatches in 200 configs, {dt:.1f}s")


# -- 2: sampler contract at scale -----------------------------------


def test_criterion_2_sampler_contract():
    t0 = time.monotonic()
    grid = PatchGrid(24, 24)
    bad = 0
    for draw in range(10_000):
        m = sample_mask(grid, SamplerConfig(), random.Random(draw))
        if not m.context.isdisjoint(m.target_union):
            bad += 1
            continue
        for b, tset in zip(m.target_blocks, m.targets):
            if (_block_dims(grid, b.scale, b.aspect) != (b.height, b.width)
                    or block_indices(b, grid) != tset):
                bad += 1
                break
    nocfg = SamplerConfig(allow_overlap=False)
    for draw in range(10_000):
        m = sample_mask(grid, nocfg, random.Random(draw))
        seen: set = set()
        for t in m.targets:
            if not seen.isdisjoint(t):
                bad += 1
                break
            seen |= t
    dt = time.monotonic() - t0
    _report(2, "sampler contract over 20k draws", bad == 0 and dt < 30.0,
            f"{bad} violations, {dt:.1f}s")


# -- 3: text cannot leak into visual tap activations ----------------


def test_criterion_3_text_leakage_freedom():
    ok, detail = check_text_leakage(n_models=50)
    _report(3, "text-leakage freedom", ok, detail)


# -- 4: analytic gradients match finite differences -----------------


def test_criterion_4_gradient_correctness():
    t0 = time.monotonic()
    errs = run_gradcheck(gradcheck_config())
    dt = time.monotonic() - t0
    worst = max(errs.values())
    _report(4, "gradient correctness", worst < GRADCHECK_TOL and dt < 120.0,
            f"max rel err {worst:.2e}, {dt:.1f}s")


# -- 5: full-skip run is bit-identical to the plain-captioning control


def test_criterion_5_full_skip_matches_control():
    from latentalign.objective import LossConfig

    grid = PatchGrid(3, 3)
    cfg = PredictorConfig(d=16, L=2, H=2, V=16, tap_layer=1)
    samples = generate(0, 400, grid)
    traces = []
    for jepa in (True, False):
        bundle = ModelBundle(grid, cfg, ctx_dim=8, tgt_dim=8,
                             sampler=SamplerConfig(k=2),
                             loss=LossConfig(lam=1.0), jepa=jepa)
        reports = run_stage(bundle, TrainConfig(stage="align", batch_size=8,
                                                seed=0), samples)
        traces.append([r.ntp for r in reports])
    same = len(traces[0]) == 50 and traces[0] == traces[1]
    _report(5, "skip-probability 1.0 equals the no-latent control", same,
            f"{len(traces[0])} steps, traces {'equal' if same else 'differ'}")


# -- 6 and 9 share one 300-step alignment run -----------------------

_RUN6: dict = {}


def _criterion6_run(tmp_path_factory):
    if _RUN6:
        return _RUN6
    samples = generate(0, 2400, GRID44)
    bundle = ModelBundle(GRID44, PredictorConfig())
    # an affine target stub: target embeddings are exactly linear in patch
    # pixels, so masked prediction is solvable
    bundle.tgt_encoder = StubEncoder(1, 8, nonlinear=False)
    frozen_before = {
        "predictor": {n: p.data.copy()
                      for n, p in bundle.predictor.named_parameters().items()},
        "ctx": {"weight": bundle.ctx_encoder.weight.copy(),
                "bias": bundle.ctx_encoder.bias.copy()},
        "tgt": {"weight": bundle.tgt_encoder.weight.copy(),
                "bias": bundle.tgt_encoder.bias.copy()},
    }
    out = tmp_path_factory.mktemp("align")
    ckpt = out / "align_ckpt.bin"
    t0 = time.monotonic()
    reports = run_stage(bundle, TrainConfig(stage="align", seed=0),
                        samples, ckpt_path=ckpt)
    _RUN6.update(bundle=bundle, reports=reports, samples=samples,
                 frozen_before=frozen_before, ckpt=ckpt,
                 seconds=time.monotonic() - t0)
    return _RUN6


def test_criterion_6_learnability(tmp_path_factory):
    run = _criterion6_run(tmp_path_factory)
    ntp = [r.ntp for r in run["reports"]]
    jep = [r.jepa for r in run["reports"] if r.jepa is not None]
    # smooth single-step noise: initial/final = mean of first/last 10 values
    ntp0, ntp1 = np.mean(ntp[:10]), np.mean(ntp[-10:])
    jep0, jep1 = np.mean(jep[:10]), np.mean(jep[-10:])
    ok = (len(ntp) == 300 and run["seconds"] < 300.0
          and jep1 <= 0.5 * jep0 and ntp1 <= 0.8 * ntp0)
    _report(6, "desk-scale learnability", ok,
            f"ntp {ntp0:.3f}->{ntp1:.3f} (bar {0.8 * ntp0:.3f}), "
            f"latent {jep0:.3f}->{jep1:.3f} (bar {0.5 * jep0:.3f}), "
            f"{run['seconds']:.0f}s")


# -- 7: every ablation axis trains 20 finite steps ------------------


def test_criterion_7_ablation_surface():
    from latentalign.objective import LossConfig

    grid = GRID44
    samples = generate(1, 160, grid)
    L = 4
    variants = []
    for j in sorted({1, -(-L // 4), L}):
        variants.append({"tap": j})
    for kind in ("linear", "mlp"):
        variants.append({"proj": kind})
    for dist in ("cosine", "smooth_l1"):
        variants.append({"dist": dist})
    for lam in (0.0, 0.2, 0.5):
        variants.append({"lam": lam})
    for overlap in (True, False):
        variants.append({"overlap": overlap})
    for tcb in (False, True):
        for tst in (False, True):
            variants.append({"attn": AttnVariant(tcb, tst)})

    failures = []
    for var in variants:
        cfg = PredictorConfig(d=16, L=L, H=2, V=64, tap_layer=var.get("tap"))
        bundle = ModelBundle(
            grid, cfg, proj_kind=var.get("proj", "mlp"),
            ctx_dim=8, tgt_dim=8,
            sampler=SamplerConfig(allow_overlap=var.get("overlap", True)),
            loss=LossConfig(distance=var.get("dist", "cosine"),
                            lam=var.get("lam", 0.2)),
            attn=var.get("attn"))
        reports = run_stage(bundle, TrainConfig(stage="align", batch_size=8,
                                                seed=0), samples)
        finite = all(np.isfinite(r.total) for r in reports)
        if len(reports) != 20 or not finite:
            failures.append(str(var))
    _report(7, "ablation surface", not failures,
            f"{len(variants)} variants x 20 steps"
            + (f"; failed: {failures}" if failures else ""))


# -- 8: determinism and persistence ---------------------------------


def test_criterion_8_determinism_and_persistence(tmp_path):
    grid = PatchGrid(3, 3)
    cfg = PredictorConfig(d=16, L=2, H=2, V=16, tap_layer=1)
    samples = generate(0, 32, grid)
    logs = []
    for run in range(2):
        bundle = ModelBundle(grid, cfg, ctx_dim=8, tgt_dim=8,
                             sampler=SamplerConfig(k=2))
        path = tmp_path / f"log{run}.jsonl"
        run_stage(bundle, TrainConfig(stage="align", batch_size=8, seed=4),
                  samples, log_path=path)
        logs.append(path.read_bytes())
    logs_ok = logs[0] == logs[1]

    params = ModelBundle(grid, cfg, ctx_dim=8, tgt_dim=8).named_parameters()
    ck = tmp_path / "m.ckpt"
    save_checkpoint(ck, 3, {"seed": 4}, params)
    _, loaded = load_checkpoint(ck)
    ckpt_ok = all(np.array_equal(loaded[n], p.data)
                  for n, p in params.items())

    out = tmp_path / "data"
    assert main(["data", "gen", "--seed", "5", "--n", "3", "--rows", "3",
                 "--cols", "3", "--out", str(out)]) == 0
    want = np.stack([s.pixels for s in generate(5, 3, grid)]).astype("<f4")
    got = np.load(out / "pixels.npy")
    data_ok = got.dtype == want.dtype and got.tobytes() == want.tobytes()

    _report(8, "determinism and persistence",
            logs_ok and ckpt_ok and data_ok,
            f"logs {'==' if logs_ok else '!='}, ckpt bit-exact={ckpt_ok}, "
            f"data gen pixels bit-exact={data_ok}")


# -- 9: stage contracts around the criterion-6 run ------------------


def test_criterion_9_frozen_contracts(tmp_path_factory):
    run = _criterion6_run(tmp_path_factory)
    bundle = run["bundle"]
    before = run["frozen_before"]
    pred_frozen = all(
        np.array_equal(before["predictor"][n], p.data)
        for n, p in bundle.predictor.named_parameters().items())
    enc_frozen = all(
        np.array_equal(before[enc][k],
                       getattr(getattr(bundle, f"{enc}_encoder"), k))
        for enc in ("ctx", "tgt") for k in ("weight", "bias"))

    resumed = ModelBundle(GRID44, PredictorConfig())
    resumed.tgt_encoder = run["bundle"].tgt_encoder
    # warmup 0 so the single resume step applies a nonzero learning rate
    run_stage(resumed,
              TrainConfig(stage="sft", batch_size=8, seed=0,
                          warmup_ratio=0.0),
              run["samples"][:8], init_ckpt=run["ckpt"])
    _, saved = load_checkpoint(run["ckpt"])
    moved = [n for n, p in resumed.named_parameters().items()
             if n.startswith("predictor.")
             and not np.array_equal(saved[n], p.data)]
    _report(9, "frozen contracts and stage-2 resume",
            pred_frozen and enc_frozen and bool(moved),
            f"predictor frozen={pred_frozen}, encoders frozen={enc_frozen}, "
            f"{len(moved)} predictor tensors updated by one resume step")
