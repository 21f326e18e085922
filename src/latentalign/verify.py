"""Self-check suite: mask-oracle equivalence, sampler contracts, leakage
freedom, skip-gate equivalence, and the checkpoint round trip.

Each check returns (ok, detail); the CLI maps failures to a nonzero exit.
"""

from __future__ import annotations

import dataclasses
import os
import random
import tempfile

import numpy as np

from . import attention, config
from .attention import (PAD_ROLE, AttnVariant, build_mask, oracle_mask,
                        roles_for_mask)
from .autodiff import Tensor, fd_check
from .data import generate
from .masking import (InputError, MaskSpec, PatchGrid, SamplerConfig,
                      sample_mask)
from .model import load_checkpoint, pack, save_checkpoint
from .objective import combine, ntp_loss
from .training import TrainConfig, Trainer, run_stage


def _random_batch(rng: random.Random):
    """A grid and 1 to 3 specs on it, each with a caption length of 0 to 8;
    a patch is context (one always is), left out, or in 1 to k <= 4 blocks."""
    grid = PatchGrid(rng.randint(1, 6), rng.randint(1, 6))
    specs, caption_lens = [], []
    for _ in range(rng.randint(1, 3)):
        k, anchor = rng.randint(1, 4), rng.randrange(grid.n)
        kinds = ["context" if i == anchor
                 else rng.choice(["context", "target", "skip"])
                 for i in range(grid.n)]
        blocks = {i: rng.sample(range(k), rng.randint(1, k))
                  for i, kind in enumerate(kinds) if kind == "target"}
        tsets = [frozenset(i for i, b in blocks.items() if j in b)
                 for j in range(k)]
        specs.append(MaskSpec(frozenset(i for i, kind in enumerate(kinds)
                                        if kind == "context"), tsets))
        caption_lens.append(rng.randint(0, 8))
    return grid, specs, caption_lens


def check_mask_oracle(n_configs: int = 200):
    """Packs each batch as training does and compares every sequence of its
    mask with the oracle's."""
    rng = random.Random(0)
    for i in range(n_configs):
        grid, specs, caption_lens = _random_batch(rng)
        variant = AttnVariant(tgt_cross_block=rng.random() < 0.5,
                              text_sees_targets=rng.random() < 0.5)
        layout = pack(specs, grid, [range(n) for n in caption_lens])
        allow = build_mask(layout, variant).allow
        for spec, n, a in zip(specs, caption_lens, allow):
            roles = roles_for_mask(spec, grid, n)
            roles += [PAD_ROLE] * (layout.seq_len - len(roles))
            if not np.array_equal(a, oracle_mask(roles, variant).allow):
                return False, f"mismatch at config {i}"
    return True, f"{n_configs} configurations agree"


def _round_half_up(x: float) -> int:
    return int(x + 0.5)


def check_sampler(n_draws: int = 2000):
    grid = PatchGrid(24, 24)
    for overlap in (True, False):
        cfg = SamplerConfig(allow_overlap=overlap)
        rng = random.Random(0)
        for i in range(n_draws):
            spec = sample_mask(grid, cfg, rng)
            if spec.context & spec.target_union:
                return False, f"context/target intersection at draw {i}"
            if not spec.context:
                return False, f"empty context at draw {i}"
            if spec.target_union != frozenset().union(*spec.targets):
                return False, f"union mismatch at draw {i}"
            if max(spec.target_union | spec.context) >= grid.n:
                return False, f"index out of range at draw {i}"
            for b in spec.target_blocks + [spec.context_block]:
                area = b.scale * grid.n
                h = min(max(_round_half_up((area * b.aspect) ** 0.5), 1),
                        grid.rows)
                w = min(max(_round_half_up((area / b.aspect) ** 0.5), 1),
                        grid.cols)
                if (h, w) != (b.height, b.width):
                    return False, f"dimension formula violated at draw {i}"
            if not overlap:
                total = sum(len(t) for t in spec.targets)
                if total != len(spec.target_union):
                    return False, f"overlap despite no-overlap at draw {i}"
    return True, f"{n_draws} draws per variant satisfy the contracts"


def check_text_leakage(n_models: int = 5):
    for trial in range(n_models):
        cfg = config.default_config()
        cfg["model_seed"] = trial
        bundle = config.bundle_from(cfg)
        samples = generate(trial, 2, bundle.grid, bundle.vocab)
        mask = sample_mask(bundle.grid, bundle.sampler, random.Random(trial))
        taps = []
        rng = np.random.default_rng(trial)
        for caption in (samples[0].caption,
                        np.concatenate([[bundle.vocab.bos],
                                        rng.integers(3, bundle.vocab.size,
                                                     size=5),
                                        [bundle.vocab.eos]])):
            plan = bundle.plan(
                [dataclasses.replace(samples[0], caption=caption)], [mask])
            _, tap = bundle.forward(plan)
            taps.append(tap.data[plan.layout.roles != attention.TEXT])
        if not np.array_equal(taps[0], taps[1]):
            return False, f"caption change leaked into taps (trial {trial})"
    return True, f"{n_models} parameterizations leak-free"


def check_lambda_equivalence(n_samples: int = 24):
    base = config.default_config()
    base["train"]["batch_size"] = 4
    base["loss"]["lam"] = 1.0
    with_jepa = config.bundle_from(base)
    ctrl_cfg = dict(base, jepa=False)
    control = config.bundle_from(ctrl_cfg)
    data = generate(0, n_samples, with_jepa.grid, with_jepa.vocab)
    r1 = run_stage(with_jepa, config.train_config_from(base), data)
    r2 = run_stage(control, config.train_config_from(ctrl_cfg), data)
    # a step the gate lets through packs a masked image, so its caption
    # loss leaves the control's too: test the skips first to name the fault
    if any(not r.skipped for r in r1):
        return False, "lam=1 run still computed the latent loss"
    t1 = [r.ntp for r in r1]
    t2 = [r.ntp for r in r2]
    if t1 != t2:
        return False, "NTP traces differ between skip-always and control"
    return True, f"{len(t1)} steps bit-identical to the control run"


def check_checkpoint_roundtrip():
    cfg = config.default_config()
    bundle = config.bundle_from(cfg)
    params = bundle.named_parameters()
    before = {n: p.data.copy() for n, p in params.items()}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ckpt.bin")
        save_checkpoint(path, 0, cfg, params)
        _, loaded = load_checkpoint(path)
    for name, arr in before.items():
        if arr.tobytes() != loaded[name].tobytes():
            return False, f"parameter {name} not bit-exact"
    return True, f"{len(before)} parameters round-trip bit-exactly"


CHECKS = {
    "mask": check_mask_oracle,
    "sampler": check_sampler,
    "leakage": check_text_leakage,
    "lambda": check_lambda_equivalence,
    "checkpoint": check_checkpoint_roundtrip,
}


def run_checks(names=None):
    """Runs the named checks (all by default)."""
    results = []
    for name, fn in CHECKS.items():
        if names and name not in names:
            continue
        ok, detail = fn()
        results.append((name, ok, detail))
    return results


# gradient checking over a full training objective --------------------

# a gradcheck passes when each distance's largest relative error is below it
GRADCHECK_TOL = 1e-4


def gradcheck_config() -> dict:
    cfg = config.default_config()
    cfg["predictor"].update({"d": 16, "L": 2, "H": 2, "V": 16,
                             "tap_layer": 1})
    cfg["ctx_dim"] = 8
    cfg["tgt_dim"] = 8
    return cfg


def run_gradcheck(cfg: dict | None = None,
                  distances=("cosine", "smooth_l1")) -> dict:
    """fd_check over every stage-1 trainable parameter of a tiny model,
    for the combined caption + latent objective, per distance kind: the
    largest error of two checks, one over the parameters the predictor
    reads (``proj``, ``latent.z``) and one over ``proj_tgt``, whose loss
    runs only the latent head on a fixed tap."""
    cfg = cfg or gradcheck_config()
    if cfg["predictor"]["d"] > 16 or cfg["predictor"]["L"] > 2:
        raise InputError("gradcheck wants a tiny config (d <= 16, L <= 2)")
    if not cfg["jepa"]:
        raise InputError("gradcheck checks the latent objective, "
                         "so it wants jepa: true")
    bundle = config.bundle_from(cfg)
    sample = config._build(generate, {
        "seed": 0, "n": 1, "grid": bundle.grid, "vocab": bundle.vocab})[0]
    trainer = Trainer(bundle, TrainConfig(stage="align", batch_size=1, seed=0))
    mask = trainer.mask_for(0)
    plan = bundle.plan([sample], [mask])

    def total(ntp, jepa):
        loss, _ = combine(ntp, jepa, bundle.loss, len(mask.target_union))
        return loss

    # proj_tgt reads only the tap, so its entries are checked against one
    # predictor run, with the caption loss and the tap held fixed
    params = trainer.trainable.items()
    head = [p for n, p in params if n.startswith("proj_tgt.")]
    fed = [p for n, p in params if not n.startswith("proj_tgt.")]
    logits, tap = bundle.forward(plan)
    ntp0 = Tensor(ntp_loss(logits, *plan.ntp).data)
    tap0 = Tensor(tap.data)
    results = {}
    # fd_check puts back every entry it perturbs, so each distance is
    # checked at the same parameters
    for dist in distances:
        bundle.loss = dataclasses.replace(bundle.loss, distance=dist)
        results[dist] = max(
            fd_check(lambda: total(*trainer._forward(plan)), fed, eps=1e-5),
            fd_check(lambda: total(ntp0, trainer._latent(tap0, plan)), head,
                     eps=1e-5))
    return results
