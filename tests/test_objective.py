"""Loss functions, the skip gate, and loss combination."""

import math
import random

import numpy as np
import pytest

from latentalign import autodiff as ad
from latentalign.autodiff import NonFiniteError, Tensor
from latentalign.objective import (LossConfig, LossReport, combine,
                                   jepa_loss, lambda_gate, ntp_loss)

COSINE = LossConfig(distance="cosine")


def _cosine(p, t):
    """jepa_loss of a single (p, t) row pair: their negative cosine."""
    return jepa_loss(Tensor(np.atleast_2d(p)), Tensor(np.atleast_2d(t)),
                     COSINE).data


def test_cosine_distance_anchors():
    u = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(_cosine(u, u), -1.0, atol=1e-12)
    np.testing.assert_allclose(_cosine(u, -2.0 * u), 1.0, atol=1e-12)
    w = np.array([3.0, 0.0, -1.0])             # dot = 3 + 0 - 3 = 0
    np.testing.assert_allclose(_cosine(u, w), 0.0, atol=1e-12)


def test_cosine_distance_scale_invariant():
    rng = np.random.default_rng(0)
    p, t = rng.normal(size=5), rng.normal(size=5)
    np.testing.assert_allclose(_cosine(p, t), _cosine(7.0 * p, 0.3 * t),
                               atol=1e-12)


def test_cosine_distance_rejects_zero_norm():
    with pytest.raises(NonFiniteError):
        _cosine(np.zeros(3), np.ones(3))


def test_jepa_loss_mixed_rows_average():
    # row 0 aligned (-1), row 1 anti-aligned (+1): mean = 0
    pred = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    tgt = Tensor(np.array([[2.0, 0.0], [0.0, -3.0]]))
    cfg = LossConfig(distance="cosine")
    np.testing.assert_allclose(jepa_loss(pred, tgt, cfg).data, 0.0, atol=1e-12)


def test_jepa_loss_smooth_l1_hand_value():
    pred = Tensor(np.array([[0.5, 2.0]]))
    tgt = Tensor(np.zeros((1, 2)))
    cfg = LossConfig(distance="smooth_l1")
    np.testing.assert_allclose(jepa_loss(pred, tgt, cfg).data,
                               (0.125 + 1.5) / 2, atol=1e-12)


def test_jepa_loss_shape_mismatch():
    cfg = LossConfig()
    with pytest.raises(ValueError):
        jepa_loss(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))), cfg)


def test_jepa_loss_grad_matches_fd():
    rng = np.random.default_rng(1)
    pred = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    tgt = Tensor(rng.normal(size=(3, 4)))
    for dist in ("cosine", "smooth_l1"):
        cfg = LossConfig(distance=dist)
        assert ad.fd_check(lambda: jepa_loss(pred, tgt, cfg), [pred]) < 1e-6


def test_ntp_loss_uses_only_text_rows():
    """Gradient w.r.t. logits is exactly zero at visual positions."""
    rng = np.random.default_rng(2)
    logits = Tensor(rng.normal(size=(7, 8)), requires_grad=True)
    caption = np.array([1, 3, 4, 2])
    text_positions = [3, 4, 5, 6]
    ntp_loss(logits, [caption], text_positions).backward()
    assert np.array_equal(logits.grad[:3], np.zeros((3, 8)))
    # the last text row predicts nothing and gets no grad either
    assert np.array_equal(logits.grad[6], np.zeros(8))
    assert np.abs(logits.grad[3:6]).sum() > 0


def test_ntp_loss_hand_value():
    # two text rows, uniform logits: loss = log V for the single transition
    v = 8
    logits = Tensor(np.zeros((2, v)))
    loss = ntp_loss(logits, [np.array([1, 2])], [0, 1])
    np.testing.assert_allclose(loss.data, math.log(v), atol=1e-12)


def test_ntp_loss_rejects_short_captions():
    with pytest.raises(ValueError):
        ntp_loss(Tensor(np.zeros((1, 4))), [np.array([1])], [0])


def test_lambda_gate_rate():
    cfg = LossConfig(lam=0.2)
    rng = random.Random(0)
    n = 10_000
    rate = sum(lambda_gate(cfg, rng) for _ in range(n)) / n
    # 3 sigma around 0.2 with n = 1e4 is about +/- 0.012
    assert 0.18 <= rate <= 0.22


def test_lambda_gate_extremes():
    assert not any(lambda_gate(LossConfig(lam=0.0), random.Random(i))
                   for i in range(50))
    assert all(lambda_gate(LossConfig(lam=1.0), random.Random(i))
               for i in range(50))


def test_combine_with_and_without_jepa():
    ntp = Tensor(np.array(2.0))
    jepa = Tensor(np.array(-0.5))
    cfg = LossConfig(jepa_weight=1.0)
    total, rep = combine(ntp, jepa, cfg, n_target_tokens=6)
    np.testing.assert_allclose(total.data, 1.5, atol=1e-12)
    assert rep == LossReport(ntp=2.0, jepa=-0.5, total=1.5, skipped=False,
                             n_target_tokens=6)
    total2, rep2 = combine(ntp, None, cfg, 0)
    assert total2 is ntp
    assert rep2.skipped and rep2.jepa is None


def test_combine_weight_scales_jepa():
    total, _ = combine(Tensor(np.array(1.0)), Tensor(np.array(2.0)),
                       LossConfig(jepa_weight=0.25), 1)
    np.testing.assert_allclose(total.data, 1.5, atol=1e-12)


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(lam=1.5)
    with pytest.raises(ValueError):
        LossConfig(distance="l2")


def test_report_json_shape():
    rep = LossReport(ntp=1.0, jepa=None, total=1.0, skipped=True,
                     n_target_tokens=0)
    obj = rep.to_json_obj(step=4)
    assert obj == {"step": 4, "ntp": 1.0, "jepa": None, "total": 1.0,
                   "skipped": True}
