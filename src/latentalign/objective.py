"""Training objectives: latent-prediction loss, next-token loss, and the
probabilistic skip gate that swaps masked batches for plain captioning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

NORM_FLOOR = 1e-12


@dataclass
class LossConfig:
    distance: str = "cosine"        # or "smooth_l1"
    lam: float = 0.2                # P(skip the latent-prediction loss)
    jepa_weight: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must be a probability")
        if self.distance not in ("cosine", "smooth_l1"):
            raise ValueError(f"unknown distance: {self.distance}")


@dataclass
class LossReport:
    ntp: float
    jepa: float | None
    total: float
    skipped: bool
    n_target_tokens: int

    def to_json_obj(self, step: int) -> dict:
        return {"step": step, "ntp": self.ntp, "jepa": self.jepa,
                "total": self.total, "skipped": self.skipped}


def jepa_loss(pred: Tensor, tgt: Tensor, cfg: LossConfig) -> Tensor:
    """Mean distance between predicted and reference target embeddings,
    one row per unique masked patch."""
    if pred.shape != tgt.shape:
        raise ValueError("prediction/target shape mismatch")
    m = pred.shape[0]
    if m == 0:
        raise ValueError("no target rows")
    if cfg.distance == "smooth_l1":
        return ad.smooth_l1(pred, tgt)
    norms_p = np.linalg.norm(pred.data, axis=1)
    norms_t = np.linalg.norm(tgt.data, axis=1)
    if norms_p.min() < NORM_FLOOR or norms_t.min() < NORM_FLOOR:
        raise ValueError("near-zero norm in cosine distance")
    dots = ad.tsum(pred * tgt, axis=1)
    inv = (ad.tsum(pred * pred, axis=1) ** 0.5
           * ad.tsum(tgt * tgt, axis=1) ** 0.5) ** -1.0
    return ad.mean(-1.0 * dots * inv)


def ntp_loss(logits: Tensor, caption, text_positions) -> Tensor:
    """Mean cross-entropy over caption positions only: the logit at text
    position i predicts caption token i+1.  Visual positions never enter."""
    caption = np.asarray(caption, dtype=np.int64)
    if caption.size < 2:
        raise ValueError("caption too short for next-token prediction")
    if len(text_positions) != caption.size:
        raise ValueError("one text position per caption token expected")
    rows = ad.gather_rows(logits, np.asarray(text_positions[:-1], dtype=np.int64))
    return ad.cross_entropy(rows, caption[1:])


def lambda_gate(cfg: LossConfig, rng) -> bool:
    """True = skip the latent loss this batch and train on unmasked images."""
    return rng.random() < cfg.lam


def combine(ntp: Tensor, jepa: Tensor | None, cfg: LossConfig,
            n_target_tokens: int) -> tuple[Tensor, LossReport]:
    if jepa is None:
        return ntp, LossReport(ntp=float(ntp.data), jepa=None,
                               total=float(ntp.data), skipped=True,
                               n_target_tokens=0)
    total = ntp + cfg.jepa_weight * jepa
    return total, LossReport(ntp=float(ntp.data), jepa=float(jepa.data),
                             total=float(total.data), skipped=False,
                             n_target_tokens=n_target_tokens)
