"""Training objectives: latent-prediction loss, next-token loss, and the
probabilistic skip gate that swaps masked batches for plain captioning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


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
        w = self.jepa_weight
        if isinstance(w, bool) or not isinstance(w, (int, float)) \
                or not 0.0 <= w < float("inf"):
            raise ValueError("jepa_weight must be a finite real >= 0")


@dataclass
class LossReport:
    ntp: float
    jepa: float | None
    total: float
    skipped: bool
    n_target_tokens: int


def mean_of_means(sizes) -> np.ndarray:
    """Row weights under which a weighted sum over rows, grouped in runs of
    ``sizes`` rows, equals the mean over the groups of each group's mean."""
    sizes = np.asarray(sizes, dtype=np.int64)
    return np.repeat(1.0 / (sizes.size * sizes), sizes)


def jepa_loss(pred: Tensor, tgt: Tensor, cfg: LossConfig,
              weights) -> Tensor:
    """Distance between predicted and reference target embeddings, one row
    per unique masked patch, summed under the row ``weights``
    (``mean_of_means`` of the rows per sequence: the mean over the
    sequences of each sequence's mean)."""
    if pred.shape != tgt.shape:
        raise ValueError("prediction/target shape mismatch")
    if pred.shape[0] == 0:
        raise ValueError("no target rows")
    if cfg.distance == "smooth_l1":
        return ad.smooth_l1(pred, tgt, weights)
    return ad.cosine_distance(pred, tgt, weights)


def ntp_targets(captions, text_positions) -> tuple:
    """The fixed part of the next-token loss of a batch of captions, for
    ``ntp_loss``: the logits rows that predict a token, the token each
    predicts and row weights under which each caption's mean counts
    equally.  In each caption the logit at text position i predicts token
    i+1.  ``text_positions`` lists the logits rows of every caption's
    tokens, caption after caption; no other row enters."""
    captions = [np.asarray(c, dtype=np.int64) for c in captions]
    sizes = np.array([c.size for c in captions], dtype=np.int64)
    if sizes.size == 0 or sizes.min() < 2:
        raise ValueError("caption too short for next-token prediction")
    positions = np.asarray(text_positions, dtype=np.int64)
    if positions.shape != (sizes.sum(),):
        raise ValueError("one text position per caption token expected")
    predicts = np.ones(positions.size, dtype=bool)
    predicts[np.cumsum(sizes) - 1] = False      # a caption's last token
    return (positions[predicts], np.concatenate([c[1:] for c in captions]),
            mean_of_means(sizes - 1))


def ntp_loss(logits: Tensor, rows, next_tokens, weights) -> Tensor:
    """Next-token cross-entropy at the logits ``rows`` that
    ``ntp_targets`` lists, under its row weights."""
    return ad.cross_entropy(ad.gather_rows(logits, rows), next_tokens,
                            weights)


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
