"""Each ``verify`` check can fail: a fault in what it reads makes it return
``(False, detail)`` naming the fault."""

import dataclasses

import numpy as np
import pytest

from latentalign import training, verify
from latentalign.masking import sample_mask
from latentalign.objective import lambda_gate


def _block_off_by_one(spec):
    block = spec.context_block
    return dataclasses.replace(spec, context_block=dataclasses.replace(
        block, height=block.height + 1))


def _union_short(spec):
    spec.target_union = spec.target_union - {min(spec.target_union)}
    return spec


@pytest.mark.parametrize("fault, detail", [
    pytest.param(lambda s: dataclasses.replace(
        s, context=s.context | s.targets[0]),
        "context/target intersection at draw 0", id="context-overlaps"),
    pytest.param(lambda s: dataclasses.replace(s, context=frozenset()),
                 "empty context at draw 0", id="empty-context"),
    pytest.param(_union_short, "union mismatch at draw 0",
                 id="union-mismatch"),
    pytest.param(lambda s: dataclasses.replace(
        s, context=s.context | {24 * 24}),
        "index out of range at draw 0", id="index-out-of-range"),
    pytest.param(_block_off_by_one, "dimension formula violated at draw 0",
                 id="block-dimensions"),
    pytest.param(lambda s: dataclasses.replace(
        s, targets=s.targets + s.targets[:1]),
        "overlap despite no-overlap at draw 0", id="no-overlap-overlaps"),
])
def test_sampler_check_fails_on_a_faulty_sampler(monkeypatch, fault, detail):
    """A sampler whose draws break one contract fails the check with that
    contract's detail; a duplicated target block breaks only the
    no-overlap variant's contract."""
    assert verify.check_sampler(n_draws=1)[0]

    def faulty(grid, cfg, rng):
        return fault(sample_mask(grid, cfg, rng))

    monkeypatch.setattr(verify, "sample_mask", faulty)
    assert verify.check_sampler(n_draws=1) == (False, detail)


def test_lambda_check_fails_when_a_step_computes_the_latent_loss(
        monkeypatch):
    """With lam=1, a gate that lets the first step through is named as
    such, though its masked image also moves the caption losses."""
    assert verify.check_lambda_equivalence(n_samples=8)[0]
    calls = []

    def leaky(cfg, rng):
        calls.append(None)
        return lambda_gate(cfg, rng) and len(calls) > 1

    monkeypatch.setattr(training, "lambda_gate", leaky)
    assert verify.check_lambda_equivalence(n_samples=8) == \
        (False, "lam=1 run still computed the latent loss")
    assert len(calls) == 2


def test_lambda_check_fails_when_the_control_differs(monkeypatch):
    """Every lam=1 step skips the latent loss, but a control built from
    another model seed gives other caption losses."""
    build = verify.config.bundle_from

    def other_seed_control(cfg):
        if not cfg["jepa"]:
            cfg = dict(cfg, model_seed=cfg["model_seed"] + 1)
        return build(cfg)

    monkeypatch.setattr(verify.config, "bundle_from", other_seed_control)
    assert verify.check_lambda_equivalence(n_samples=8) == \
        (False, "NTP traces differ between skip-always and control")


def test_lambda_check_fails_when_a_step_reports_unskipped(monkeypatch):
    """A run whose caption losses match the control's but whose last step
    reports the latent loss computed fails the check."""
    run = verify.run_stage

    def last_unskipped(bundle, cfg, data):
        reports = run(bundle, cfg, data)
        return reports[:-1] + [dataclasses.replace(reports[-1],
                                                   skipped=False)]

    monkeypatch.setattr(verify, "run_stage", last_unskipped)
    assert verify.check_lambda_equivalence(n_samples=8) == \
        (False, "lam=1 run still computed the latent loss")


def test_checkpoint_check_fails_when_a_byte_changes(monkeypatch):
    """A loader that flips one byte of one tensor fails the round trip and
    names the tensor."""
    load = verify.load_checkpoint

    def flipping(path):
        header, params = load(path)
        params["latent.z"].view(np.uint8)[0] ^= 1
        return header, params

    monkeypatch.setattr(verify, "load_checkpoint", flipping)
    assert verify.check_checkpoint_roundtrip() == \
        (False, "parameter latent.z not bit-exact")
