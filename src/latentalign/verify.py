"""Self-check suite: mask-oracle equivalence, sampler contracts, leakage
freedom, skip-gate equivalence, and persistence round trips.

Each check returns (ok, detail); the CLI maps failures to a nonzero exit.
"""

from __future__ import annotations

import dataclasses
import os
import random
import tempfile

import numpy as np

from . import attention, autodiff, config
from .attention import AttnVariant, TokenRole, build_mask, oracle_mask
from .autodiff import Tensor, fd_check
from .data import generate
from .encoders import EmbeddingFile, read_embedding_file, write_embedding_file
from .masking import (InputError, PatchGrid, SamplerConfig, sample_mask,
                      _round_half_up)
from .model import load_checkpoint, save_checkpoint
from .objective import combine
from .training import TrainConfig, Trainer, run_stage


def _random_roles(rng: random.Random):
    rows = rng.randint(1, 6)
    cols = rng.randint(1, 6)
    n = rows * cols
    k = rng.randint(1, 4)
    roles = []
    for i in range(n):
        kind = rng.choice(["context", "target", "skip"])
        if kind == "context":
            roles.append(TokenRole(attention.CONTEXT, patch_index=i))
        elif kind == "target":
            blocks = frozenset(rng.sample(range(k), rng.randint(1, k)))
            roles.append(TokenRole(attention.TARGET, patch_index=i,
                                   blocks=blocks))
    for t in range(rng.randint(0, 8)):
        roles.append(TokenRole(attention.TEXT, text_position=t))
    return roles + [attention.PAD_ROLE] * rng.randint(0, 3)


def check_mask_oracle(n_configs: int = 200, seed: int = 0,
                      negative_control: bool = False):
    """``negative_control`` flips one cell of every built mask, so the
    check must fail."""
    rng = random.Random(seed)
    for i in range(n_configs):
        roles = _random_roles(rng)
        if not roles:
            continue
        variant = AttnVariant(tgt_cross_block=rng.random() < 0.5,
                              text_sees_targets=rng.random() < 0.5)
        a = build_mask(roles, variant).allow
        if negative_control:
            a[0, 0] = not a[0, 0]
        b = oracle_mask(roles, variant).allow
        if not np.array_equal(a, b):
            return False, f"mismatch at config {i}"
    return True, f"{n_configs} configurations agree"


def check_sampler(n_draws: int = 2000, seed: int = 0):
    grid = PatchGrid(24, 24)
    for overlap in (True, False):
        cfg = SamplerConfig(allow_overlap=overlap)
        rng = random.Random(seed)
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


def check_text_leakage(n_models: int = 5, seed: int = 0):
    for trial in range(n_models):
        cfg = config.default_config()
        cfg["model_seed"] = seed + trial
        bundle = config.bundle_from(cfg)
        samples = generate(seed + trial, 2, bundle.grid, bundle.vocab)
        mrng = random.Random(seed + trial)
        mask = sample_mask(bundle.grid, bundle.sampler, mrng)
        taps = []
        rng = np.random.default_rng(seed + trial)
        for caption in (samples[0].caption,
                        np.concatenate([[bundle.vocab.bos],
                                        rng.integers(3, bundle.vocab.size,
                                                     size=5),
                                        [bundle.vocab.eos]])):
            seq, _, tap = bundle.forward(
                [dataclasses.replace(samples[0], caption=caption)], [mask])
            taps.append(tap.data[[r.kind != attention.TEXT
                                  for r in seq.roles]].copy())
        if not np.array_equal(taps[0], taps[1]):
            return False, f"caption change leaked into taps (trial {trial})"
    return True, f"{n_models} parameterizations leak-free"


def check_lambda_equivalence(n_samples: int = 24, seed: int = 0):
    base = config.default_config()
    base["train"]["seed"] = seed
    base["train"]["batch_size"] = 4
    base["loss"]["lam"] = 1.0
    with_jepa = config.bundle_from(base)
    ctrl_cfg = dict(base, jepa=False)
    control = config.bundle_from(ctrl_cfg)
    data = generate(seed, n_samples, with_jepa.grid, with_jepa.vocab)
    r1 = run_stage(with_jepa, config.train_config_from(base), data)
    r2 = run_stage(control, config.train_config_from(ctrl_cfg), data)
    t1 = [r.ntp for r in r1]
    t2 = [r.ntp for r in r2]
    if t1 != t2:
        return False, "NTP traces differ between skip-always and control"
    if any(not r.skipped for r in r1):
        return False, "lam=1 run still computed the latent loss"
    return True, f"{len(t1)} steps bit-identical to the control run"


def check_checkpoint_roundtrip(seed: int = 0):
    cfg = config.default_config()
    cfg["model_seed"] = seed
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


def check_embedding_roundtrip(seed: int = 0):
    rng = np.random.default_rng(seed)
    ef = EmbeddingFile(3, 16, 8,
                       rng.standard_normal((3, 16, 8)).astype("<f4"))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "emb.bin")
        write_embedding_file(ef, path)
        back = read_embedding_file(path)
    if ef.payload.tobytes() != back.payload.tobytes():
        return False, "payload not bit-exact"
    return True, "payload round-trips bit-exactly"


CHECKS = {
    "mask": check_mask_oracle,
    "sampler": check_sampler,
    "leakage": check_text_leakage,
    "lambda": check_lambda_equivalence,
    "checkpoint": check_checkpoint_roundtrip,
    "embedfile": check_embedding_roundtrip,
}


def run_checks(names=None, negative_control: bool = False):
    """Runs the named checks (all by default).  ``negative_control`` injects
    a fault into the mask-oracle check, which must then fail."""
    results = []
    for name, fn in CHECKS.items():
        if names and name not in names:
            continue
        if negative_control and fn is check_mask_oracle:
            ok, detail = fn(negative_control=True)
        else:
            ok, detail = fn()
        results.append((name, ok, detail))
    return results


# gradient checking over a full training objective --------------------


def gradcheck_config() -> dict:
    cfg = config.default_config()
    cfg["predictor"].update({"d": 16, "L": 2, "H": 2, "V": 16,
                             "tap_layer": 1})
    cfg["ctx_dim"] = 8
    cfg["tgt_dim"] = 8
    return cfg


def _skewed_identity(x: Tensor) -> Tensor:
    """Identity whose vjp is 1% off: a fault gradcheck must catch."""
    return autodiff._from_op(x.data, (x,), lambda g: (1.01 * g,))


def run_gradcheck(cfg: dict | None = None, eps: float = 1e-5,
                  distances=("cosine", "smooth_l1"),
                  negative_control: bool = False) -> dict:
    """fd_check over every stage-1 trainable parameter of a tiny model,
    for the combined caption + latent objective, per distance kind.
    ``negative_control`` ends the loss in a skewed identity node, so every
    distance must fail."""
    cfg = cfg or gradcheck_config()
    if cfg["predictor"]["d"] > 16 or cfg["predictor"]["L"] > 2:
        raise InputError("gradcheck wants a tiny config (d <= 16, L <= 2)")
    results = {}
    for dist in distances:
        c = dict(cfg)
        c["loss"] = dict(cfg["loss"], distance=dist)
        bundle = config.bundle_from(c)
        sample = generate(0, 1, bundle.grid, bundle.vocab)[0]
        trainer = Trainer(bundle, TrainConfig(stage="align",
                                              batch_size=1, seed=0))

        def loss_fn():
            mask = trainer.mask_for(0)
            ntp, jepa = trainer._forward([sample], [mask])
            loss, _ = combine(ntp, jepa, bundle.loss, len(mask.target_union))
            return _skewed_identity(loss) if negative_control else loss

        params = list(trainer.trainable.values())
        results[dist] = fd_check(loss_fn, params, eps=eps)
    return results
