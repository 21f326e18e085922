"""Two-stage training loop.

Stage "align" trains the projectors and the latent vector against both
losses with the predictor frozen; stage "sft" trains predictor + projector
on unmasked images with the caption loss only.  Every source of randomness
is derived from integer seeds so identical configs replay bit-identically.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import random
from dataclasses import dataclass

import numpy as np

from .attention import AttnVariant, build_mask
from .autodiff import NonFiniteError, Tensor, concat, gather_rows
from .data import MAX_CAPTION_LEN, SyntheticVocab
from .encoders import CTX_SEED, TGT_SEED, StubEncoder
from .masking import (InputError, MaskSpec, PatchGrid, SamplerConfig,
                      sample_mask)
from .model import (LatentTarget, PackedBatch, Predictor, PredictorConfig,
                    Projector, load_checkpoint, load_into, pack, project_tap,
                    replaced_on_success, save_checkpoint, sincos_1d)
from .objective import (LossConfig, LossReport, combine, jepa_loss,
                        lambda_gate, mean_of_means, ntp_loss, ntp_targets)

STAGE_LR = {"align": 1e-3, "sft": 2e-5}
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
MAX_SEQ = 256       # the most rows of a sequence: visual tokens + caption
# the most a run may ask for of each size, by config key; each is far
# above any size the project runs (the widest is d=64 on an 8x8 grid)
SIZE_LIMITS = {"ctx_dim": 512, "tgt_dim": 512, "predictor.d": 512,
               "predictor.L": 32, "predictor.V": 65536,
               "train.batch_size": 256, "data.n": 10000}
# glibc's mallopt parameters, and the values that keep a step's memory in
# the process heap: arrays below 16 MiB (a step's largest is about 1.4 MB)
# come from the heap instead of their own mmap, and up to 256 MiB freed at
# its top stays mapped, so the next step reuses the last one's pages
# instead of faulting them in again.  Both are set: setting either turns
# off glibc's dynamic mmap threshold, and the trim threshold alone faults
# more than neither.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD, MMAP_THRESHOLD = 256 << 20, 16 << 20


def check_extents(grid: PatchGrid, k: int = 1,
                  sizes: dict | None = None) -> None:
    """Reject a grid whose longest sequence exceeds MAX_SEQ rows, more
    target blocks than it has patches, and a size in ``sizes`` (config
    key -> value) above its SIZE_LIMITS entry, before anything of their
    extent is built."""
    if grid.n + MAX_CAPTION_LEN > MAX_SEQ:
        raise InputError(f"the longest sequence, {grid.n} patches and "
                         f"{MAX_CAPTION_LEN} tokens, exceeds {MAX_SEQ}")
    if k > grid.n:
        raise InputError(f"k={k} target blocks exceed the grid's "
                         f"{grid.n} patches")
    for key, value in (sizes or {}).items():
        if value > SIZE_LIMITS[key]:
            raise InputError(f"{key}={value} exceeds its limit of "
                             f"{SIZE_LIMITS[key]}")


@functools.cache
def _keep_step_memory() -> None:
    """Sets glibc's malloc thresholds for the process, once; does nothing
    where the C library has no ``mallopt``.  glibc reads its ``MALLOC_*``
    variables only at start-up, before a library is imported, so the
    library sets the thresholds through ``mallopt``."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, no dlopen
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


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
    epochs: int = 1
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.stage not in STAGE_LR:
            raise ValueError(f"unknown stage: {self.stage}")
        if self.lr is None:
            self.lr = STAGE_LR[self.stage]
        if isinstance(self.lr, bool) or not 0 < self.lr < math.inf:
            raise ValueError("lr must be a finite number above 0")
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
    """Adaptive-moment update over named tensors; it applies no weight
    decay."""

    def __init__(self, params: dict):
        self.params = params
        self.b1, self.b2 = ADAM_BETAS
        self.eps = ADAM_EPS
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.t = 0

    def update(self, lr: float) -> None:
        """One step per parameter with a grad; a non-finite update raises
        NonFiniteError naming its parameter before it is applied."""
        self.t += 1
        with np.errstate(over="ignore", invalid="ignore"):
            for name, p in self.params.items():
                if p.grad is None:
                    continue
                g = p.grad
                m = self.b1 * self.m[name] + (1 - self.b1) * g
                v = self.b2 * self.v[name] + (1 - self.b2) * g * g
                mhat = m / (1 - self.b1 ** self.t)
                vhat = v / (1 - self.b2 ** self.t)
                step = lr * (mhat / (np.sqrt(vhat) + self.eps))
                if not np.isfinite(step).all():
                    raise NonFiniteError(f"non-finite update of {name}")
                self.m[name], self.v[name] = m, v
                p.data -= step


@dataclass(frozen=True)
class BatchPlan:
    """What no parameter touches in a batch: its layout, B x S x S mask,
    position rows, encoder rows at the layout's patch addresses (``tgt``
    None without targets), the latent tokens' rows of ``phi``, caption ids,
    caption after caption, and the zero pad row.  ``window`` is T, the tail
    rows of each sequence whose logits the forward computes.  ``ntp`` is
    ``ntp_targets``' rows of those logits, next tokens and weights, and
    ``jepa_weights`` the latent loss's row weights (None without
    targets)."""
    layout: PackedBatch
    allow: np.ndarray
    window: int
    pos: Tensor
    ctx: Tensor
    tgt: Tensor | None
    phi: Tensor | None
    ids: np.ndarray
    pad: Tensor
    ntp: tuple
    jepa_weights: np.ndarray | None


class ModelBundle:
    """Everything the loop needs: encoders, predictor, projectors, configs.

    ``jepa=False`` builds the plain-captioning control: no target encoder,
    no target projector, no latent vector.
    """

    def __init__(self, grid: PatchGrid, predictor: PredictorConfig,
                 proj_kind: str = "mlp", ctx_dim: int = 16, tgt_dim: int = 8,
                 model_seed: int = 0, sampler: SamplerConfig | None = None,
                 loss: LossConfig | None = None,
                 attn: AttnVariant | None = None,
                 jepa: bool = True):
        if min(ctx_dim, tgt_dim) < 1:
            raise ValueError("ctx_dim and tgt_dim must be at least 1")
        self.sampler = sampler or SamplerConfig()
        check_extents(grid, self.sampler.k, {
            "ctx_dim": ctx_dim, "tgt_dim": tgt_dim, "predictor.d": predictor.d,
            "predictor.L": predictor.L, "predictor.V": predictor.V})
        self.grid = grid
        self.predictor_cfg = predictor
        self.loss = loss or LossConfig()
        self.attn = attn or AttnVariant()
        self.jepa = jepa
        self.vocab = SyntheticVocab(size=predictor.V)
        self.ctx_encoder = StubEncoder(CTX_SEED, ctx_dim)
        self.predictor = Predictor(predictor, seed=model_seed)
        self.proj = Projector(proj_kind, ctx_dim, predictor.d,
                              seed=model_seed * 4 + 1)
        if jepa:
            self.tgt_encoder = StubEncoder(TGT_SEED, tgt_dim, nonlinear=True)
            self.proj_tgt = Projector(proj_kind, predictor.d, tgt_dim,
                                      seed=model_seed * 4 + 2)
            self.latent = LatentTarget(predictor.d, grid.rows, grid.cols,
                                       seed=model_seed)
        else:
            self.tgt_encoder = None
            self.proj_tgt = None
            self.latent = None

    def plan(self, samples, masks) -> BatchPlan:
        """The fixed part of a batch with one mask per sample, built once:
        no parameter is read."""
        pixels = np.concatenate([s.pixels for s in samples])
        if pixels.shape[0] != len(samples) * self.grid.n:
            raise ValueError("pixels must cover every patch")
        captions = [s.caption for s in samples]
        layout = pack(masks, self.grid, captions)
        s, bsz = layout.seq_len, len(samples)
        allow = build_mask(*layout.columns(), self.attn).allow
        # visual rows come first in every sequence, so the window from the
        # earliest caption row on holds every caption; a tap at the last
        # block reads every row
        text = layout.text_rows
        cfg = self.predictor_cfg
        window = (s if cfg.tap_layer == cfg.L
                  else s - int((text % s).min(initial=s)))
        window_text_rows = text // s * window + text % s - (s - window)
        ctx = Tensor(self.ctx_encoder.encode(pixels)[layout.context_patches])
        tgt = phi = jepa_weights = None
        if layout.target_rows.size:
            tgt = Tensor(self.tgt_encoder.encode(pixels)[
                layout.target_patches])
            phi = Tensor(self.latent.phi[layout.target_patches % self.grid.n])
            per_seq = np.bincount(layout.target_rows // s)
            jepa_weights = mean_of_means(per_seq[per_seq > 0])
        ids = np.concatenate(captions).astype(np.int64)
        return BatchPlan(layout, allow, window,
                         Tensor(np.tile(sincos_1d(s, cfg.d), (bsz, 1))), ctx,
                         tgt, phi, ids, Tensor(np.zeros((1, cfg.d))),
                         ntp_targets(captions, window_text_rows),
                         jepa_weights)

    def tokens(self, plan: BatchPlan) -> Tensor:
        """The planned batch's padded (B*S, d) input rows: projected context,
        latent targets and caption embeddings; pad rows are zero."""
        parts = [self.proj(plan.ctx)]
        if plan.phi is not None:
            parts.append(self.latent.z + plan.phi)
        if plan.ids.size:
            parts.append(gather_rows(self.predictor.tok_emb, plan.ids))
        parts.append(plan.pad)
        return gather_rows(concat(parts, axis=0), plan.layout.order)

    def forward(self, plan: BatchPlan):
        """Runs the predictor on a planned batch: (logits at the plan's
        window rows, hidden states after the tap at every row of the padded
        layout)."""
        return self.predictor.forward(self.tokens(plan), plan.allow,
                                      plan.window, plan.pos)

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
        check_extents(bundle.grid, sizes={"train.batch_size": cfg.batch_size})
        _keep_step_memory()
        self.bundle = bundle
        self.cfg = cfg
        self.gate_rng = random.Random(derive_seed(cfg.seed, 0xA7E))
        all_params = bundle.named_parameters()
        self.trainable = {n: all_params[n]
                          for n in bundle.trainable_names(cfg.stage)}
        self.all_params = all_params
        self.freeze()
        self.opt = AdamW(self.trainable)
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

    def _forward(self, plan: BatchPlan):
        """The batch graph: (caption loss, latent loss), each the mean over
        the samples of the sample's mean; the latent loss is None when no
        mask has targets and otherwise averages the samples that have."""
        logits, tap = self.bundle.forward(plan)
        return ntp_loss(logits, *plan.ntp), self._latent(tap, plan)

    def _latent(self, tap: Tensor, plan: BatchPlan):
        """The latent loss from the tap, None when no mask has targets: the
        only reader of ``proj_tgt``, which the predictor never reads."""
        if plan.tgt is None:
            return None
        b = self.bundle
        pred = project_tap(b.proj_tgt, tap, plan.layout.target_rows)
        return jepa_loss(pred, plan.tgt, b.loss, plan.jepa_weights)

    def step(self, batch, step_idx: int, total_steps: int) -> LossReport:
        """One optimization step over a batch of (dataset_index, sample)."""
        b = self.bundle
        self.freeze()
        masked = (self.cfg.stage == "align" and b.jepa
                  and not lambda_gate(b.loss, self.gate_rng))
        masks = [self.mask_for(index) if masked else self.unmasked
                 for index, _ in batch]
        try:
            plan = b.plan([sample for _, sample in batch], masks)
            ntp, jepa = self._forward(plan)
            total, report = combine(ntp, jepa, b.loss,
                                    sum(len(m.target_union) for m in masks))
            for p in self.all_params.values():
                p.zero_grad()
            # an overflow in backward is reported below, once, by name
            with np.errstate(all="ignore"):
                total.backward()
            for name, p in self.trainable.items():
                if p.grad is not None and not np.isfinite(p.grad).all():
                    raise NonFiniteError(f"non-finite gradient of {name}")
            self.opt.update(lr_at(step_idx, total_steps, self.cfg))
            return report
        except NonFiniteError as e:
            raise NonFiniteError(f"step {step_idx}: {e}") from e


def _check_saved_predictor(saved, cfg: PredictorConfig) -> None:
    """Rejects a checkpoint whose header config ``saved`` records another
    predictor than ``cfg``, compared resolved, so a null ``tap_layer``
    equals its default: the head count and the tap change no tensor
    shape, which is all ``load_into`` compares.  A config that records no
    predictor (``run_stage`` without ``config_header`` writes ``{}``)
    leaves the names and shapes to check."""
    if not isinstance(saved, dict):
        raise ValueError("checkpoint header has no config object")
    if "predictor" not in saved:
        return
    try:
        saved = PredictorConfig(**saved["predictor"])
    except (TypeError, ValueError) as e:
        raise ValueError(f"checkpoint predictor rejected: {e}") from e
    for name, theirs in vars(saved).items():
        if getattr(cfg, name) != theirs:
            raise ValueError(f"predictor.{name} is {theirs} in the "
                             f"checkpoint and {getattr(cfg, name)} in the "
                             "config")


def run_stage(bundle: ModelBundle, cfg: TrainConfig, dataset,
              log_path=None, ckpt_path=None, init_ckpt=None,
              config_header: dict | None = None):
    """One or more epochs over the dataset; returns the per-step reports."""
    if init_ckpt is not None:
        try:
            header, loaded = load_checkpoint(init_ckpt)
            _check_saved_predictor(header.get("config"),
                                   bundle.predictor_cfg)
            load_into(bundle.named_parameters(), loaded)
            del loaded      # no name keeps the loaded arrays past the copy
        except (OSError, ValueError) as e:
            raise InputError(f"init checkpoint {init_ckpt}: {e}") from e
    trainer = Trainer(bundle, cfg)
    n = len(dataset)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    reports = []
    with (replaced_on_success(log_path, "w") if log_path
          else contextlib.nullcontext()) as log_fh:
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
                    row = report.to_json_obj(step_idx)
                    row.update(epoch=epoch,
                               lr=lr_at(step_idx, total_steps, cfg))
                    log_fh.write(json.dumps(row, sort_keys=True) + "\n")
                step_idx += 1
        if ckpt_path:
            save_checkpoint(ckpt_path, len(reports), config_header or {},
                            bundle.named_parameters())
    return reports
