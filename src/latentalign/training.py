"""Two-stage training loop.

Stage "align" trains the projectors and the latent vector against both
losses with the predictor frozen; stage "sft" trains predictor + projector
on unmasked images with the caption loss only.  Every source of randomness
is derived from integer seeds so identical configs replay bit-identically.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

from .attention import AttnVariant, build_mask
from .autodiff import NonFiniteError, Tensor
from .data import PATCH_PIXELS, SyntheticVocab
from .encoders import StubEncoder
from .masking import (InputError, MaskSpec, PatchGrid, SamplerConfig,
                      sample_mask)
from .model import (LatentTarget, Predictor, PredictorConfig, Projector,
                    load_checkpoint, load_into, pack, project_tap,
                    save_checkpoint)
from .objective import (LossConfig, LossReport, combine, jepa_loss,
                        lambda_gate, ntp_loss)

STAGE_LR = {"align": 1e-3, "sft": 2e-5}
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def derive_seed(*parts: int) -> int:
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h = (h * 1000003 + int(p)) % (1 << 63)
    return h


@dataclass
class TrainConfig:
    stage: str = "align"
    lr: float | None = None
    warmup_ratio: float = 0.03
    weight_decay: float = 0.0
    epochs: int = 1
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.stage not in STAGE_LR:
            raise ValueError(f"unknown stage: {self.stage}")
        if self.lr is None:
            self.lr = STAGE_LR[self.stage]
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ValueError("warmup_ratio must be in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")


def lr_at(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Linear warmup to lr, then cosine decay to zero."""
    if not 0 <= step <= total_steps:
        raise ValueError("step out of range")
    warm = math.ceil(cfg.warmup_ratio * total_steps)
    if step < warm:
        return cfg.lr * step / warm
    if total_steps == warm:
        return cfg.lr
    progress = (step - warm) / (total_steps - warm)
    return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * progress))


class AdamW:
    """Decoupled-weight-decay adaptive-moment update over named tensors."""

    def __init__(self, params: dict, cfg: TrainConfig):
        self.params = params
        self.b1, self.b2 = ADAM_BETAS
        self.eps = ADAM_EPS
        self.weight_decay = cfg.weight_decay
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.t = 0

    def update(self, lr: float) -> None:
        self.t += 1
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[name] = self.b1 * self.m[name] + (1 - self.b1) * g
            self.v[name] = self.b2 * self.v[name] + (1 - self.b2) * g * g
            mhat = self.m[name] / (1 - self.b1 ** self.t)
            vhat = self.v[name] / (1 - self.b2 ** self.t)
            p.data -= lr * (mhat / (np.sqrt(vhat) + self.eps)
                            + self.weight_decay * p.data)


class ModelBundle:
    """Everything the loop needs: encoders, predictor, projectors, configs.

    ``jepa=False`` builds the plain-captioning control: no target encoder,
    no target projector, no latent vector.
    """

    def __init__(self, grid: PatchGrid, predictor: PredictorConfig,
                 proj_kind: str = "mlp", ctx_dim: int = 16, tgt_dim: int = 8,
                 ctx_seed: int = 11, tgt_seed: int = 22, model_seed: int = 0,
                 sampler: SamplerConfig | None = None,
                 loss: LossConfig | None = None,
                 attn: AttnVariant | None = None,
                 jepa: bool = True, tgt_nonlinear: bool = True):
        self.grid = grid
        self.predictor_cfg = predictor
        self.sampler = sampler or SamplerConfig()
        self.loss = loss or LossConfig()
        self.attn = attn or AttnVariant()
        self.jepa = jepa
        self.vocab = SyntheticVocab(size=predictor.V)
        self.ctx_encoder = StubEncoder(ctx_seed, PATCH_PIXELS, ctx_dim,
                                       nonlinear=False)
        self.predictor = Predictor(predictor, seed=model_seed)
        self.proj = Projector(proj_kind, ctx_dim, predictor.d,
                              seed=model_seed * 4 + 1)
        if jepa:
            self.tgt_encoder = StubEncoder(tgt_seed, PATCH_PIXELS, tgt_dim,
                                           nonlinear=tgt_nonlinear)
            self.proj_tgt = Projector(proj_kind, predictor.d, tgt_dim,
                                      seed=model_seed * 4 + 2)
            self.latent = LatentTarget(predictor.d, grid.rows, grid.cols,
                                       seed=model_seed)
        else:
            self.tgt_encoder = None
            self.proj_tgt = None
            self.latent = None

    def forward(self, samples, masks):
        """Packs a batch, one mask per sample, and runs the predictor on it:
        (PackedBatch, logits, hidden states after the tap)."""
        pixels = np.concatenate([s.pixels for s in samples])
        seq = pack(masks, self.ctx_encoder.encode(pixels), self.grid,
                   [s.caption for s in samples], self.proj, self.latent,
                   self.predictor.tok_emb)
        allow = np.stack([build_mask(roles, self.attn).allow
                          for roles in seq.sequences()])
        return (seq, *self.predictor.forward(seq, allow))

    def named_parameters(self) -> dict:
        params = {}
        for name, p in self.predictor.named_parameters().items():
            params[f"predictor.{name}"] = p
        for name, p in self.proj.named_parameters().items():
            params[f"proj.{name}"] = p
        if self.proj_tgt is not None:
            for name, p in self.proj_tgt.named_parameters().items():
                params[f"proj_tgt.{name}"] = p
            params["latent.z"] = self.latent.z
        return params

    def trainable_names(self, stage: str) -> list:
        names = self.named_parameters()
        if stage == "align":
            scopes = ("proj.", "proj_tgt.", "latent.")
        else:
            scopes = ("predictor.", "proj.")
        return [n for n in names if n.startswith(scopes)]


class Trainer:
    def __init__(self, bundle: ModelBundle, cfg: TrainConfig):
        self.bundle = bundle
        self.cfg = cfg
        self.gate_rng = random.Random(derive_seed(cfg.seed, 0xA7E))
        all_params = bundle.named_parameters()
        self.trainable = {n: all_params[n]
                          for n in bundle.trainable_names(cfg.stage)}
        self.all_params = all_params
        self.freeze()
        self.opt = AdamW(self.trainable, cfg)
        # plain captioning: every patch is context, no latent targets
        self.unmasked = MaskSpec(context=frozenset(range(bundle.grid.n)))

    def freeze(self) -> None:
        """Frozen in the graph: only this stage's trainable parameters
        require grad, so backward computes no gradient for the others.
        ``step`` applies it again, because another Trainer on the same
        bundle may have set the flags for its own stage since."""
        for name, p in self.all_params.items():
            p.requires_grad = name in self.trainable

    def mask_for(self, index: int) -> MaskSpec:
        """The mask of dataset item ``index``, drawn from train.seed."""
        mrng = random.Random(derive_seed(self.cfg.seed, 0x3A5C, index))
        return sample_mask(self.bundle.grid, self.bundle.sampler, mrng)

    def _forward(self, samples, masks):
        """The batch forward: (caption loss, latent loss), each the mean over
        the samples of the sample's mean; the latent loss is None when no
        mask has targets and otherwise averages the samples that have."""
        b = self.bundle
        seq, logits, tap = b.forward(samples, masks)
        ntp = ntp_loss(logits, [s.caption for s in samples], seq.text_rows)
        if not seq.target_rows.size:
            return ntp, None
        pred = project_tap(b.proj_tgt, tap, seq.target_rows)
        tgt = b.tgt_encoder.encode(np.concatenate([s.pixels for s in samples]))
        per_seq = np.bincount(seq.target_rows // seq.seq_len)
        return ntp, jepa_loss(pred, Tensor(tgt[seq.target_patches]), b.loss,
                              per_seq[per_seq > 0])

    def step(self, batch, step_idx: int, total_steps: int) -> LossReport:
        """One optimization step over a batch of (dataset_index, sample)."""
        b = self.bundle
        self.freeze()
        masked = (self.cfg.stage == "align" and b.jepa
                  and not lambda_gate(b.loss, self.gate_rng))
        masks = [self.mask_for(index) if masked else self.unmasked
                 for index, _ in batch]
        try:
            ntp, jepa = self._forward([sample for _, sample in batch], masks)
            total, report = combine(ntp, jepa, b.loss,
                                    sum(len(m.target_union) for m in masks))
            for p in self.all_params.values():
                p.zero_grad()
            total.backward()
            self.opt.update(lr_at(step_idx, total_steps, self.cfg))
            return report
        except NonFiniteError as e:
            raise NonFiniteError(f"step {step_idx}: {e}") from e


def run_stage(bundle: ModelBundle, cfg: TrainConfig, dataset,
              log_path=None, ckpt_path=None, init_ckpt=None,
              config_header: dict | None = None):
    """One or more epochs over the dataset; returns the per-step reports."""
    if init_ckpt is not None:
        try:
            _, loaded = load_checkpoint(init_ckpt)
            load_into(bundle.named_parameters(), loaded)
        except (OSError, ValueError) as e:
            raise InputError(f"init checkpoint {init_ckpt}: {e}") from e
    trainer = Trainer(bundle, cfg)
    n = len(dataset)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    reports = []
    log_fh = open(log_path, "w") if log_path else None
    try:
        step_idx = 0
        for epoch in range(cfg.epochs):
            order = list(range(n))
            random.Random(derive_seed(cfg.seed, 0xE0C, epoch)).shuffle(order)
            for start in range(0, n, cfg.batch_size):
                batch = [(i, dataset[i])
                         for i in order[start: start + cfg.batch_size]]
                report = trainer.step(batch, step_idx, total_steps)
                reports.append(report)
                if log_fh:
                    log_fh.write(json.dumps(report.to_json_obj(step_idx),
                                            sort_keys=True) + "\n")
                step_idx += 1
    finally:
        if log_fh:
            log_fh.close()
    if ckpt_path:
        save_checkpoint(ckpt_path, len(reports), config_header or {},
                        bundle.named_parameters())
    return reports
