"""JSON run configuration: defaults, file merging, and bundle construction.

Each section configures one dataclass and its defaults are that class's
field defaults; the top-level keys are the keyword defaults of
``ModelBundle``.  Only ``data`` has no class: the CLI reads it directly.
"""

from __future__ import annotations

import copy
import inspect
import json
import math
from dataclasses import fields

from .attention import AttnVariant
from .masking import InputError, PatchGrid, SamplerConfig
from .model import PredictorConfig
from .objective import LossConfig
from .training import ModelBundle, TrainConfig

# the ModelBundle arguments that take a whole section
BUNDLE_SECTIONS = {"grid": PatchGrid, "predictor": PredictorConfig,
                   "sampler": SamplerConfig, "loss": LossConfig,
                   "attn": AttnVariant}
BUNDLE_KEYWORDS = {name: p.default for name, p
                   in inspect.signature(ModelBundle).parameters.items()
                   if name not in BUNDLE_SECTIONS}


def _field_defaults(cls) -> dict:
    return {f.name: list(f.default) if isinstance(f.default, tuple)
            else f.default for f in fields(cls)}


def default_config() -> dict:
    return {**{name: _field_defaults(cls)
               for name, cls in BUNDLE_SECTIONS.items()},
            **BUNDLE_KEYWORDS,
            "train": _field_defaults(TrainConfig),
            "data": {"seed": 0, "n": 64}}


def _fits(default, val) -> bool:
    """A leaf keeps its default's JSON type: a float default also takes an
    int, a number must be finite, and a None default takes anything."""
    if type(default) is float:
        return type(val) is int or type(val) is float and math.isfinite(val)
    return default is None or type(val) is type(default)


def merge(base: dict, override: dict) -> dict:
    if not isinstance(override, dict):
        raise InputError("a config must be a JSON object")
    out = copy.deepcopy(base)
    for key, val in override.items():
        if key not in out:
            raise InputError(f"unknown config key: {key}")
        section = isinstance(out[key], dict)
        if section != isinstance(val, dict):
            kind = "an object" if section else "a single value"
            raise InputError(f"config key {key} takes {kind}")
        if not (section or _fits(out[key], val)):
            raise InputError(f"config key {key} takes a finite value of "
                             f"its default's type, {type(out[key]).__name__}")
        out[key] = merge(out[key], val) if section else val
    return out


def read_json(path, what: str):
    """The JSON document at ``path``; ``what`` names it in the error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as e:   # nested too deep
        raise InputError(f"cannot read {what}: {e}") from e


def load_config(path=None, overrides: dict | None = None) -> dict:
    cfg = default_config()
    if path is not None:
        cfg = merge(cfg, read_json(path, "config"))
    if overrides:
        cfg = merge(cfg, overrides)
    return cfg


def _build(cls, kwargs: dict):
    """``cls(**kwargs)``, where a value ``cls`` rejects is bad input."""
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise InputError(f"{cls.__name__} rejected: {e}") from e


def bundle_from(cfg: dict) -> ModelBundle:
    return _build(ModelBundle, {
        **{name: _build(cls, cfg[name])
           for name, cls in BUNDLE_SECTIONS.items()},
        **{name: cfg[name] for name in BUNDLE_KEYWORDS}})


def train_config_from(cfg: dict) -> TrainConfig:
    return _build(TrainConfig, cfg["train"])
