"""JSON run configuration: defaults, file merging, and bundle construction."""

from __future__ import annotations

import copy
import json

from .attention import AttnVariant
from .data import PATCH_PIXELS
from .masking import PatchGrid, SamplerConfig
from .model import PredictorConfig
from .objective import LossConfig
from .training import ModelBundle, TrainConfig


def default_config() -> dict:
    return {
        "grid": {"rows": 4, "cols": 4},
        "patch_pixels": PATCH_PIXELS,
        "predictor": {"d": 32, "L": 4, "H": 4, "V": 64, "max_seq": 256,
                      "tap_layer": None},
        "proj_kind": "mlp",
        "ctx_dim": 16,
        "tgt_dim": 8,
        "ctx_seed": 11,
        "tgt_seed": 22,
        "tgt_nonlinear": True,
        "model_seed": 0,
        "jepa": True,
        "sampler": {"k": 4, "target_scale": [0.15, 0.20],
                    "target_aspect": [0.75, 1.5],
                    "context_scale": [0.85, 1.0],
                    "context_aspect": [0.75, 1.5],
                    "allow_overlap": True},
        "loss": {"distance": "cosine", "lam": 0.2, "jepa_weight": 1.0},
        "attn": {"tgt_cross_block": False, "text_sees_targets": True},
        "train": {"stage": "align", "lr": None, "warmup_ratio": 0.03,
                  "weight_decay": 0.0, "epochs": 1, "batch_size": 8,
                  "seed": 0},
        "data": {"seed": 0, "n": 64},
    }


def merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if key not in out:
            raise ValueError(f"unknown config key: {key}")
        if isinstance(val, dict) and isinstance(out[key], dict):
            out[key] = merge(out[key], val)
        else:
            out[key] = val
    return out


def load_config(path=None, overrides: dict | None = None) -> dict:
    cfg = default_config()
    if path is not None:
        with open(path) as fh:
            cfg = merge(cfg, json.load(fh))
    if overrides:
        cfg = merge(cfg, overrides)
    return cfg


def grid_from(cfg: dict) -> PatchGrid:
    return PatchGrid(cfg["grid"]["rows"], cfg["grid"]["cols"])


def sampler_from(cfg: dict) -> SamplerConfig:
    s = cfg["sampler"]
    return SamplerConfig(k=s["k"], target_scale=tuple(s["target_scale"]),
                         target_aspect=tuple(s["target_aspect"]),
                         context_scale=tuple(s["context_scale"]),
                         context_aspect=tuple(s["context_aspect"]),
                         allow_overlap=s["allow_overlap"])


def bundle_from(cfg: dict) -> ModelBundle:
    p = cfg["predictor"]
    return ModelBundle(
        grid=grid_from(cfg),
        predictor=PredictorConfig(d=p["d"], L=p["L"], H=p["H"], V=p["V"],
                                  max_seq=p["max_seq"],
                                  tap_layer=p["tap_layer"]),
        proj_kind=cfg["proj_kind"], ctx_dim=cfg["ctx_dim"],
        tgt_dim=cfg["tgt_dim"], ctx_seed=cfg["ctx_seed"],
        tgt_seed=cfg["tgt_seed"], model_seed=cfg["model_seed"],
        sampler=sampler_from(cfg),
        loss=LossConfig(distance=cfg["loss"]["distance"],
                        lam=cfg["loss"]["lam"],
                        jepa_weight=cfg["loss"]["jepa_weight"]),
        attn=AttnVariant(**cfg["attn"]),
        jepa=cfg["jepa"], patch_pixels=cfg["patch_pixels"],
        tgt_nonlinear=cfg["tgt_nonlinear"])


def train_config_from(cfg: dict) -> TrainConfig:
    t = cfg["train"]
    return TrainConfig(stage=t["stage"], lr=t["lr"],
                       warmup_ratio=t["warmup_ratio"],
                       weight_decay=t["weight_decay"], epochs=t["epochs"],
                       batch_size=t["batch_size"], seed=t["seed"])
