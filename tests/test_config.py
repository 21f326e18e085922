"""Config defaults, merge semantics, and object construction."""

import json

import numpy as np
import pytest

from latentalign import config
from latentalign.model import Predictor
from latentalign.training import ModelBundle, TrainConfig

# a valid non-default value for every leaf key of default_config() but data.*
NON_DEFAULT = {
    "grid.rows": 5, "grid.cols": 3,
    "predictor.d": 16, "predictor.L": 2, "predictor.H": 2, "predictor.V": 32,
    "predictor.max_seq": 128, "predictor.tap_layer": 2,
    "sampler.k": 2, "sampler.target_scale": [0.1, 0.3],
    "sampler.target_aspect": [0.5, 2.0], "sampler.context_scale": [0.7, 0.9],
    "sampler.context_aspect": [0.6, 1.8], "sampler.allow_overlap": False,
    "loss.distance": "smooth_l1", "loss.lam": 0.5, "loss.jepa_weight": 2.0,
    "attn.tgt_cross_block": True, "attn.text_sees_targets": False,
    "train.stage": "sft", "train.lr": 0.01, "train.warmup_ratio": 0.1,
    "train.weight_decay": 0.01, "train.epochs": 2, "train.batch_size": 4,
    "train.seed": 5,
    "proj_kind": "linear", "ctx_dim": 12, "tgt_dim": 6, "ctx_seed": 5,
    "tgt_seed": 6, "model_seed": 7, "jepa": False, "tgt_nonlinear": False,
}

# the bundle attribute holding each section's object
SECTION_ATTRS = {"grid": "grid", "predictor": "predictor_cfg",
                 "sampler": "sampler", "loss": "loss", "attn": "attn"}


def _predictor_seed(bundle):
    """The seed that reproduces the bundle's predictor weights."""
    return next(s for s in range(10) if np.array_equal(
        Predictor(bundle.predictor_cfg, seed=s).tok_emb.data,
        bundle.predictor.tok_emb.data))


# where each top-level key shows up on the bundle
TOP_LEVEL = {
    "proj_kind": lambda b: b.proj.kind,
    "ctx_dim": lambda b: b.ctx_encoder.out_dim,
    "tgt_dim": lambda b: b.tgt_encoder.out_dim,
    "ctx_seed": lambda b: b.ctx_encoder.seed,
    "tgt_seed": lambda b: b.tgt_encoder.seed,
    "model_seed": _predictor_seed,
    "jepa": lambda b: b.jepa,
    "tgt_nonlinear": lambda b: b.tgt_encoder.nonlinear,
}


def _leaf_keys(cfg: dict) -> list:
    keys = []
    for k, v in cfg.items():
        keys += [f"{k}.{leaf}" for leaf in v] if isinstance(v, dict) else [k]
    return keys


def test_defaults_are_internally_consistent():
    cfg = config.default_config()
    bundle = config.bundle_from(cfg)
    assert isinstance(bundle, ModelBundle)
    assert bundle.grid.n == 16
    assert bundle.predictor_cfg.d % bundle.predictor_cfg.H == 0
    tc = config.train_config_from(cfg)
    assert tc.stage == "align" and tc.lr == 1e-3


def test_merge_rejects_unknown_keys():
    with pytest.raises(ValueError):
        config.merge(config.default_config(), {"learning_rate": 0.1})
    with pytest.raises(ValueError):
        config.merge(config.default_config(), {"train": {"momentum": 0.9}})


def test_merge_is_deep_and_nondestructive():
    base = config.default_config()
    out = config.merge(base, {"train": {"seed": 9}})
    assert out["train"]["seed"] == 9
    assert out["train"]["batch_size"] == base["train"]["batch_size"]
    assert base["train"]["seed"] == 0


def test_load_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": {"rows": 3, "cols": 3},
                                "loss": {"distance": "smooth_l1"}}))
    cfg = config.load_config(path, overrides={"train": {"stage": "sft"}})
    assert cfg["grid"] == {"rows": 3, "cols": 3}
    assert cfg["loss"]["distance"] == "smooth_l1"
    assert cfg["train"]["stage"] == "sft"


def test_tap_layer_default_resolves_from_depth():
    cfg = config.default_config()
    bundle = config.bundle_from(cfg)
    L = cfg["predictor"]["L"]
    assert bundle.predictor_cfg.tap_layer == -(-L // 4)


def test_control_flag_builds_control_bundle():
    cfg = config.merge(config.default_config(), {"jepa": False})
    bundle = config.bundle_from(cfg)
    assert bundle.latent is None and bundle.tgt_encoder is None


def test_default_config_matches_the_dataclass_defaults():
    cfg = config.default_config()
    bundle = config.bundle_from(cfg)
    for name, cls in config.BUNDLE_SECTIONS.items():
        assert getattr(bundle, SECTION_ATTRS[name]) == cls()
    assert config.train_config_from(cfg) == TrainConfig()


@pytest.mark.parametrize(
    "key", [k for k in _leaf_keys(config.default_config())
            if not k.startswith("data.")])
def test_every_config_key_reaches_its_object(key):
    value = NON_DEFAULT[key]
    section, _, leaf = key.rpartition(".")
    default = config.default_config()
    assert (default[section][leaf] if section else default[key]) != value
    cfg = config.merge(default,
                       {section: {leaf: value}} if section else {key: value})
    bundle = config.bundle_from(cfg)
    if section == "train":
        got = getattr(config.train_config_from(cfg), leaf)
    elif section:
        got = getattr(getattr(bundle, SECTION_ATTRS[section]), leaf)
    else:
        got = TOP_LEVEL[key](bundle)
    assert got == (tuple(value) if isinstance(value, list) else value)
