"""Frozen stub encoders."""

import numpy as np

from latentalign.encoders import StubEncoder


def test_stub_encoder_deterministic():
    pixels = np.random.default_rng(0).random((8, 48))
    a = StubEncoder(7, 16).encode(pixels)
    b = StubEncoder(7, 16).encode(pixels)
    assert np.array_equal(a, b)
    assert a.shape == (8, 16)


def test_different_seeds_decorrelate():
    pixels = np.random.default_rng(1).random((32, 48))
    a = StubEncoder(1, 8).encode(pixels).ravel()
    b = StubEncoder(2, 8).encode(pixels).ravel()
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.99


def test_linear_stub_is_affine():
    enc = StubEncoder(5, 8, nonlinear=False)
    x = np.random.default_rng(2).random((4, 48))
    y = np.random.default_rng(3).random((4, 48))
    lhs = enc.encode(0.5 * x + 0.5 * y)
    rhs = 0.5 * enc.encode(x) + 0.5 * enc.encode(y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_nonlinear_stub_is_not_affine():
    enc = StubEncoder(5, 8, nonlinear=True)
    x = np.random.default_rng(2).random((4, 48))
    y = np.random.default_rng(3).random((4, 48))
    lhs = enc.encode(0.5 * x + 0.5 * y)
    rhs = 0.5 * enc.encode(x) + 0.5 * enc.encode(y)
    assert not np.allclose(lhs, rhs, atol=1e-6)
