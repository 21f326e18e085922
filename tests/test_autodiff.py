"""Unit and property tests for the reverse-mode autodiff core.

Hand-computed values anchor each op; finite differences check the vjps.
"""

import math
import os
import signal
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentalign import autodiff as ad
from latentalign.autodiff import NonFiniteError, Tensor


def _scalar_fd(f, x, eps=1e-6):
    return (f(x + eps) - f(x - eps)) / (2 * eps)


# gelu's tanh form: Phi(x) ~ 0.5 * (1 + tanh(C * (x + A * x^3)))
_C, _A = math.sqrt(2.0 / math.pi), 0.044715


def _tanh_phi(t: float) -> float:
    return 0.5 * (1.0 + math.tanh(_C * (t + _A * t ** 3)))


def _exact_gelu(x: np.ndarray) -> np.ndarray:
    """x * Phi(x) with the Gaussian cdf from ``math.erf``."""
    return x * 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


# -- forward values -------------------------------------------------


def test_matmul_hand_value():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor(np.array([[0.0], [1.0]]))
    assert np.array_equal(ad.matmul(a, b).data, np.array([[2.0], [4.0]]))


def test_softmax_hand_value():
    logits = Tensor(np.array([[0.0, math.log(3.0)]]))
    out = ad.softmax_masked(logits, np.ones((1, 2), dtype=bool))
    np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_denied_column_is_exact_zero():
    logits = Tensor(np.array([[5.0, 100.0, -3.0]]))
    allow = np.array([[True, False, True]])
    out = ad.softmax_masked(logits, allow)
    assert out.data[0, 1] == 0.0
    np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-12)


def test_softmax_all_denied_row_rejected():
    with pytest.raises(ValueError):
        ad.softmax_masked(Tensor(np.zeros((1, 2))), np.zeros((1, 2), bool))


def test_gelu_hand_value():
    # tanh form: gelu(1) = 0.5 * (1 + tanh(C * 1.044715)) = 0.8411920...,
    # 1.5e-4 below the exact 1 * Phi(1) = 0.8413447...
    out = ad.gelu(Tensor(np.array([1.0])))
    np.testing.assert_allclose(out.data, [_tanh_phi(1.0)], atol=1e-12)


def test_cross_entropy_uniform_logits():
    v = 16
    loss = ad.cross_entropy(Tensor(np.zeros((3, v))), np.array([0, 5, 15]),
                            np.full(3, 1 / 3))
    np.testing.assert_allclose(loss.data, math.log(v), atol=1e-12)


def test_cross_entropy_hand_value():
    # softmax([0, ln 3]) = [0.25, 0.75]; -log p[target]
    logits = Tensor(np.array([[0.0, math.log(3.0)]]))
    loss = ad.cross_entropy(logits, np.array([1]), np.ones(1))
    np.testing.assert_allclose(loss.data, -math.log(0.75), atol=1e-12)


def test_smooth_l1_hand_values():
    # |d| = 2 -> 2 - 0.5 = 1.5 ; |d| = 0.5 -> 0.5 * 0.25 = 0.125
    big = ad.smooth_l1(Tensor(np.array([2.0])), Tensor(np.array([0.0])),
                       np.ones(1))
    small = ad.smooth_l1(Tensor(np.array([0.5])), Tensor(np.array([0.0])),
                         np.ones(1))
    np.testing.assert_allclose(big.data, 1.5, atol=1e-12)
    np.testing.assert_allclose(small.data, 0.125, atol=1e-12)


def test_layernorm_forward_standardizes():
    x = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
    out = ad.layernorm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data.mean(), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.data.std(), 1.0, atol=1e-3)


def test_broadcast_add_unbroadcasts_grad():
    a = Tensor(np.zeros((3, 4)), requires_grad=True)
    b = Tensor(np.zeros((1, 4)), requires_grad=True)
    ad.tsum(a + b).backward()
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (1, 4)
    np.testing.assert_allclose(b.grad, 3.0 * np.ones((1, 4)))


def test_gather_rows_accumulates_duplicates():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    ad.tsum(ad.gather_rows(x, np.array([1, 1, 2]))).backward()
    np.testing.assert_allclose(x.grad, [[0, 0], [2, 2], [1, 1]])


def test_concat_splits_grad():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((1, 3)), requires_grad=True)
    out = ad.concat([a, b], axis=0)
    ad.tsum(ad.mul(out, Tensor(2.0))).backward()
    np.testing.assert_allclose(a.grad, 2.0 * np.ones((2, 3)))
    np.testing.assert_allclose(b.grad, 2.0 * np.ones((1, 3)))


def test_slice_cols_grad_zero_outside():
    x = Tensor(np.ones((2, 4)), requires_grad=True)
    ad.tsum(ad.slice_cols(x, 1, 3)).backward()
    np.testing.assert_allclose(x.grad, [[0, 1, 1, 0], [0, 1, 1, 0]])


# -- backward properties --------------------------------------------


def test_backward_linearity():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(3, 3))

    def grad_of(scale):
        x = Tensor(x0.copy(), requires_grad=True)
        (scale * ad.tsum(ad.gelu(x))).backward()
        return x.grad

    np.testing.assert_allclose(grad_of(3.0), 3.0 * grad_of(1.0), atol=1e-12)


def test_grad_accumulates_over_shared_parent():
    x = Tensor(np.array([2.0]), requires_grad=True)
    ad.mul(x, x).backward()      # d/dx x^2 = 2x
    np.testing.assert_allclose(x.grad, [4.0])


def test_nonfinite_forward_raises():
    with np.errstate(divide="ignore"):
        with pytest.raises(NonFiniteError):
            ad.pow_const(Tensor(np.array([0.0])), -1.0)


def test_fd_check_on_composite():
    rng = np.random.default_rng(1)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(2,)), requires_grad=True)
    params = [w, b]
    x = np.array([[0.3, -1.2, 0.7]])

    def f():
        h = ad.gelu(ad.add(ad.matmul(Tensor(x), w), b))
        return ad.tsum(ad.mul(h, h))

    assert ad.fd_check(f, params) < 1e-6


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=6))
def test_softmax_rows_sum_to_one(vals):
    logits = Tensor(np.array([vals]))
    out = ad.softmax_masked(logits, np.ones((1, len(vals)), bool))
    np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-10)
    assert (out.data >= 0).all()


@settings(max_examples=30, deadline=None)
@given(st.floats(-2.5, 2.5))
def test_gelu_grad_matches_fd(x0):
    x = Tensor(np.array([x0]), requires_grad=True)
    ad.gelu(x).backward()
    gelu = lambda t: t * _tanh_phi(t)
    np.testing.assert_allclose(x.grad[0], _scalar_fd(gelu, x0), atol=1e-7)


def test_layernorm_grad_matches_fd():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    g = Tensor(rng.normal(size=(5,)) + 1.0, requires_grad=True)
    b = Tensor(rng.normal(size=(5,)), requires_grad=True)
    params = [x, g, b]

    def f():
        return ad.tsum(ad.pow_const(ad.layernorm(x, g, b), 3.0))

    assert ad.fd_check(f, params) < 1e-5


def _layernorm_with_mean_and_var(x, gain, bias, g, eps=1e-5):
    """Forward value and (x, gain, bias) grads of layernorm written with
    np.mean and np.var."""
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    xhat = (x - mu) * inv
    dxhat = g * gain
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    axes = tuple(range(g.ndim - 1))
    return xhat * gain + bias, dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 70),
       st.integers(-3, 3))
def test_layernorm_equals_mean_and_var_reference(seed, n, d, scale):
    """The forward value and every grad are bit for bit those of the
    np.mean / np.var formulation."""
    rng = np.random.default_rng(seed)
    x = rng.normal(rng.normal(), 10.0 ** scale, size=(n, d))
    gain, bias = rng.normal(size=d), rng.normal(size=d)
    g = rng.normal(size=(n, d))
    out = ad.layernorm(Tensor(x, requires_grad=True),
                       Tensor(gain, requires_grad=True),
                       Tensor(bias, requires_grad=True))
    got = (out.data, *out._vjp(g))
    want = _layernorm_with_mean_and_var(x, gain, bias, g)
    for name, a, b in zip(("value", "x", "gain", "bias"), got, want):
        assert np.array_equal(a, b), name


def test_cross_entropy_grad_matches_fd():
    rng = np.random.default_rng(3)
    z = Tensor(rng.normal(size=(4, 7)), requires_grad=True)
    params = [z]
    tgt = np.array([0, 3, 6, 2])

    def f():
        return ad.cross_entropy(z, tgt, np.full(4, 1 / 4))

    assert ad.fd_check(f, params) < 1e-6


def test_masked_softmax_grad_matches_fd():
    rng = np.random.default_rng(4)
    allow = np.array([[True, False, True, True],
                      [True, True, False, False]])
    z = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    params = [z]

    def f():
        return ad.tsum(ad.mul(ad.softmax_masked(z, allow),
                              Tensor(np.arange(8.0).reshape(2, 4))))

    assert ad.fd_check(f, params) < 1e-6


# -- fused ops: linear and multi-head attention ------------------------


def _allow(rng, s):
    """A random permission matrix that keeps one permitted column per row."""
    allow = rng.random((s, s)) < 0.5
    allow[np.arange(s), rng.integers(0, s, size=s)] = True
    return allow


def _operands(rng, shapes):
    return [Tensor(rng.normal(size=shape), requires_grad=True)
            for shape in shapes]


def _reference_attention(q, k, v, allow, heads):
    """The per-head composition ``attention`` replaces."""
    dh = q.shape[1] // heads
    outs = []
    for i in range(heads):
        qh, kh, vh = (ad.slice_cols(t, i * dh, (i + 1) * dh)
                      for t in (q, k, v))
        scores = ad.mul(ad.matmul(qh, ad.transpose(kh)),
                        Tensor(1.0 / math.sqrt(dh)))
        outs.append(ad.matmul(ad.softmax_masked(scores, allow), vh))
    return ad.concat(outs, axis=1)


def test_linear_grad_matches_fd():
    rng = np.random.default_rng(5)
    x, w, b = _operands(rng, [(4, 3), (3, 5), (5,)])
    weight = Tensor(rng.normal(size=(4, 5)))

    def f():
        return ad.tsum(ad.mul(ad.linear(x, w, b), weight))

    assert ad.fd_check(f, [x, w, b]) < 1e-6


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_grad_matches_fd(heads):
    rng = np.random.default_rng(heads)
    s, d = 5, 8
    q, k, v = _operands(rng, [(s, d)] * 3)
    allow = _allow(rng, s)[None]
    weight = Tensor(rng.normal(size=(s, d)))

    def f():
        return ad.tsum(ad.mul(ad.attention(q, k, v, allow, heads), weight))

    assert ad.fd_check(f, [q, k, v]) < 1e-6


def _value_and_grads(build, shapes, seed):
    """Forward value of ``build(*operands)`` and the grads of a fixed random
    projection of it with respect to every operand."""
    rng = np.random.default_rng(seed)
    ops = _operands(rng, shapes)
    out = build(*ops)
    ad.tsum(ad.mul(out, Tensor(rng.normal(size=out.shape)))).backward()
    return [out.data] + [t.grad for t in ops]


def _assert_equivalent(fused, reference, atol=1e-14):
    for got, want in zip(fused, reference):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6),
       st.integers(1, 6))
def test_linear_matches_matmul_then_add(seed, n, k, m):
    shapes = [(n, k), (k, m), (m,)]
    _assert_equivalent(
        _value_and_grads(ad.linear, shapes, seed),
        _value_and_grads(lambda x, w, b: ad.add(ad.matmul(x, w), b), shapes,
                         seed))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12),
       st.sampled_from([1, 2, 4]), st.sampled_from([1, 2, 4, 8]))
def test_attention_matches_per_head_composition(seed, s, heads, dh):
    allow = _allow(np.random.default_rng([seed, 1]), s)
    shapes = [(s, heads * dh)] * 3
    _assert_equivalent(
        _value_and_grads(
            lambda q, k, v: ad.attention(q, k, v, allow[None], heads), shapes,
            seed),
        _value_and_grads(
            lambda q, k, v: _reference_attention(q, k, v, allow, heads),
            shapes, seed))


def _ragged_allow(rng, lengths, s):
    """B x s x s mask for sequences of ``lengths`` padded to ``s``: random
    within each sequence, a pad row reading only itself."""
    allow = np.zeros((len(lengths), s, s), dtype=bool)
    allow[:, np.arange(s), np.arange(s)] = True
    for b, n in enumerate(lengths):
        allow[b, :n, :n] = _allow(rng, n)
    return allow


def _per_sequence_attention(q, k, v, allow, heads):
    """Each sequence alone through the per-head composition, restacked."""
    s = allow.shape[1]
    outs = []
    for b in range(allow.shape[0]):
        rows = np.arange(b * s, (b + 1) * s)
        outs.append(_reference_attention(
            *(ad.gather_rows(t, rows) for t in (q, k, v)), allow[b], heads))
    return ad.concat(outs, axis=0)


@pytest.mark.parametrize("lengths", [(4,), (4, 2), (1, 4, 3)],
                         ids=["B1", "B2", "B3"])
def test_batched_attention_grad_matches_fd(lengths):
    rng = np.random.default_rng(len(lengths))
    s, d = max(lengths), 4
    allow = _ragged_allow(rng, lengths, s)
    q, k, v = _operands(rng, [(len(lengths) * s, d)] * 3)
    weight = Tensor(rng.normal(size=(len(lengths) * s, d)))

    def f():
        return ad.tsum(ad.mul(ad.attention(q, k, v, allow, 2), weight))

    assert ad.fd_check(f, [q, k, v]) < 1e-6


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.integers(1, 6), min_size=1, max_size=3),
       st.sampled_from([1, 2]), st.sampled_from([1, 4]))
def test_batched_attention_matches_per_sequence(seed, lengths, heads, dh):
    s = max(lengths)
    allow = _ragged_allow(np.random.default_rng([seed, 1]), lengths, s)
    shapes = [(len(lengths) * s, heads * dh)] * 3
    _assert_equivalent(
        _value_and_grads(
            lambda q, k, v: ad.attention(q, k, v, allow, heads), shapes, seed),
        _value_and_grads(
            lambda q, k, v: _per_sequence_attention(q, k, v, allow, heads),
            shapes, seed))


def _query_rows(rng, lengths, s, sq):
    """``sq`` sorted rows of each sequence padded to ``s``, as rows of the
    stacked (B*s) layout, sequence after sequence."""
    return np.concatenate([b * s + np.sort(rng.choice(s, sq, replace=False))
                           for b in range(len(lengths))])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.integers(1, 6), min_size=1, max_size=3),
       st.integers(1, 6), st.sampled_from([1, 2]), st.sampled_from([1, 4]))
def test_query_subset_attention_equals_rows_of_the_full_call(
        seed, lengths, sq, heads, dh):
    """Attention over Sq < S query rows per sequence, under those rows of
    the mask, equals the full call's output at those rows; its grads equal
    the full call's when the full output is read at those rows alone."""
    s = max(lengths)
    sq = min(sq, s)
    rng = np.random.default_rng([seed, 1])
    allow = _ragged_allow(rng, lengths, s)
    rows = _query_rows(rng, lengths, s, sq)
    q, k, v = _operands(np.random.default_rng(seed),
                        [(len(lengths) * s, heads * dh)] * 3)
    weight = np.random.default_rng([seed, 2]).normal(size=(rows.size,
                                                           heads * dh))
    full = ad.attention(q, k, v, allow, heads)
    full_weight = np.zeros(full.shape)
    full_weight[rows] = weight
    ad.tsum(ad.mul(full, Tensor(full_weight))).backward()
    qw = Tensor(q.data[rows], requires_grad=True)
    kw, vw = (Tensor(t.data, requires_grad=True) for t in (k, v))
    sub_allow = allow[np.arange(len(lengths))[:, None],
                      (rows % s).reshape(len(lengths), sq)]
    out = ad.attention(qw, kw, vw, sub_allow, heads)
    ad.tsum(ad.mul(out, Tensor(weight))).backward()
    _assert_equivalent([out.data, qw.grad, kw.grad, vw.grad],
                       [full.data[rows], q.grad[rows], k.grad, v.grad])
    assert not np.delete(q.grad, rows, axis=0).any()


@pytest.mark.parametrize("lengths", [(5,), (5, 3)], ids=["B1", "B2"])
def test_query_subset_attention_grad_matches_fd(lengths):
    rng = np.random.default_rng(len(lengths) + 10)
    s, sq, d = max(lengths), 2, 4
    allow = _ragged_allow(rng, lengths, s)[:, s - sq:]
    q, = _operands(rng, [(len(lengths) * sq, d)])
    k, v = _operands(rng, [(len(lengths) * s, d)] * 2)
    weight = Tensor(rng.normal(size=(len(lengths) * sq, d)))

    def f():
        return ad.tsum(ad.mul(ad.attention(q, k, v, allow, 2), weight))

    assert ad.fd_check(f, [q, k, v]) < 1e-6


@pytest.mark.parametrize("q_shape, k_shape, v_shape, allow_shape, match", [
    pytest.param((4, 4), (6, 4), (6, 4), (2, 3), "B x Sq x S",
                 id="2-D-mask"),
    pytest.param((6, 4), (6, 4), (6, 4), (2, 2, 3), "q must be",
                 id="query-rows"),
    pytest.param((3, 4), (6, 4), (6, 4), (2, 2, 3), "q must be",
                 id="query-rows-short"),
    pytest.param((4, 2), (6, 4), (6, 4), (2, 2, 3), "q must be",
                 id="query-width"),
    pytest.param((4, 4), (4, 4), (4, 4), (2, 2, 3), "k must have",
                 id="key-rows"),
    pytest.param((4, 4), (6, 4), (5, 4), (2, 2, 3), "k and v",
                 id="value-rows"),
    pytest.param((4, 4), (6, 4), (6, 2), (2, 2, 3), "k and v",
                 id="value-width"),
])
def test_attention_rejects_bad_shapes(q_shape, k_shape, v_shape,
                                      allow_shape, match):
    """Under a B x Sq x S mask with B=2, Sq=2, S=3 and width 4."""
    q, k, v = (Tensor(np.zeros(shape)) for shape in (q_shape, k_shape,
                                                     v_shape))
    with pytest.raises(ValueError, match=match):
        ad.attention(q, k, v, np.ones(allow_shape, bool), 2)


def test_query_subset_attention_all_denied_row_rejected():
    allow = np.ones((2, 2, 3), bool)
    allow[1, 0] = False
    q, kv = Tensor(np.zeros((4, 4))), Tensor(np.zeros((6, 4)))
    with pytest.raises(ValueError, match="zero permitted columns"):
        ad.attention(q, kv, kv, allow, 2)


def _weights(rng, n):
    return rng.random(n) + 0.1


def test_weighted_cross_entropy_grad_matches_fd():
    rng = np.random.default_rng(8)
    z = Tensor(rng.normal(size=(4, 7)), requires_grad=True)
    tgt, w = np.array([0, 3, 6, 2]), _weights(rng, 4)
    assert ad.fd_check(lambda: ad.cross_entropy(z, tgt, w), [z]) < 1e-6


def test_weighted_smooth_l1_grad_matches_fd():
    rng = np.random.default_rng(9)
    p, t = _operands(rng, [(4, 3), (4, 3)])
    p.data *= 2.0                  # both sides of the unit-error kink
    w = _weights(rng, 4)
    assert ad.fd_check(lambda: ad.smooth_l1(p, t, w), [p, t]) < 1e-6


def test_cosine_distance_grad_matches_fd():
    rng = np.random.default_rng(10)
    p, t = _operands(rng, [(4, 3), (4, 3)])
    w = _weights(rng, 4)
    assert ad.fd_check(lambda: ad.cosine_distance(p, t, w), [p, t]) < 1e-6


def test_weighted_losses_sum_weighted_row_losses():
    """A weighted call equals the weighted sum of one-row calls."""
    rng = np.random.default_rng(11)
    z = Tensor(rng.normal(size=(5, 6)))
    tgt = np.array([0, 1, 2, 3, 4])
    p, t = Tensor(3.0 * rng.normal(size=(5, 3))), Tensor(rng.normal(size=(5, 3)))
    w = _weights(rng, 5)
    for fn, rows in ((ad.cross_entropy, lambda i: (Tensor(z.data[i]),
                                                   tgt[i])),
                     (ad.smooth_l1, lambda i: (Tensor(p.data[i]),
                                               Tensor(t.data[i]))),
                     (ad.cosine_distance, lambda i: (Tensor(p.data[i]),
                                                     Tensor(t.data[i])))):
        args = rows(list(range(5)))
        want = sum(w[i] * float(fn(*rows([i]), np.ones(1)).data)
                   for i in range(5))
        np.testing.assert_allclose(fn(*args, w).data, want, rtol=1e-13)
    with pytest.raises(ValueError, match="one weight per row"):
        ad.cross_entropy(z, tgt, np.ones(4))


def _reference_cosine(pred, tgt, weights):
    """The composition cosine_distance replaces, weighted."""
    dots = ad.tsum(ad.mul(pred, tgt), axis=1)
    inv = ad.pow_const(
        ad.mul(ad.pow_const(ad.tsum(ad.mul(pred, pred), axis=1), 0.5),
               ad.pow_const(ad.tsum(ad.mul(tgt, tgt), axis=1), 0.5)), -1.0)
    return ad.tsum(ad.mul(ad.mul(-1.0 * dots, inv), Tensor(weights)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
def test_cosine_distance_matches_composition(seed, n, d):
    w = _weights(np.random.default_rng([seed, 2]), n)
    shapes = [(n, d), (n, d)]
    # the vjp's terms grow like 1/norm and may cancel to an exact zero
    # (always at d = 1), so absolute rounding scales with 1/norm
    rows = [t.data for t in _operands(np.random.default_rng(seed), shapes)]
    scale = 1.0 / min(np.linalg.norm(r, axis=1).min() for r in rows)
    _assert_equivalent(
        _value_and_grads(lambda p, t: ad.cosine_distance(p, t, w), shapes,
                         seed),
        _value_and_grads(lambda p, t: _reference_cosine(p, t, w), shapes,
                         seed), atol=1e-14 * max(1.0, scale))


def test_cosine_distance_rejects_near_zero_norm():
    with pytest.raises(NonFiniteError, match="near-zero norm"):
        ad.cosine_distance(Tensor(np.ones((2, 3))),
                           Tensor(np.array([[1.0, 0, 0], [0, 0, 0]])),
                           np.full(2, 0.5))


def test_attention_all_denied_row_rejected():
    q = Tensor(np.zeros((2, 4)))
    allow = np.array([[[True, False], [False, False]]])
    with pytest.raises(ValueError, match="zero permitted columns"):
        ad.attention(q, q, q, allow, 2)


_FREEZABLE = {
    "matmul": (ad.matmul, [(3, 4), (4, 2)]),
    "add": (ad.add, [(3, 4), (4,)]),
    "linear": (ad.linear, [(3, 4), (4, 2), (2,)]),
    "layernorm": (ad.layernorm, [(3, 4), (4,), (4,)]),
    "attention": (lambda q, k, v: ad.attention(
        q, k, v, np.ones((1, 3, 3), bool), 2), [(3, 4)] * 3),
    "concat": (lambda a, b: ad.concat([a, b], axis=0), [(2, 4), (3, 4)]),
    "mul": (ad.mul, [(3, 4), (4,)]),
    "mlp": (ad.mlp, [(3, 4), (4, 8), (8,), (8, 4), (4,)]),
}


@pytest.mark.parametrize("op", sorted(_FREEZABLE))
def test_frozen_operand_gets_no_grad(op):
    fn, shapes = _FREEZABLE[op]
    rng = np.random.default_rng(7)
    ops = _operands(rng, shapes)
    out = fn(*ops)
    g = rng.normal(size=out.shape)
    unfrozen = out._vjp(g)
    for i, frozen in enumerate(ops):
        frozen.requires_grad = False
        grads = out._vjp(g)
        frozen.requires_grad = True
        assert grads[i] is None
        for j, (got, want) in enumerate(zip(grads, unfrozen)):
            if j != i:
                assert np.array_equal(got, want)


# -- per-node cost: each check kept, each result unchanged -------------


def test_op_output_overflow_raises():
    """An op's output is checked where the node is built: 1e200 squared
    overflows to inf in ``mul``, which has no check of its own."""
    big = Tensor(np.array([1.0, 1e200]))
    with np.errstate(over="ignore"), \
            pytest.raises(NonFiniteError, match="^non-finite value in tensor$"):
        ad.mul(big, big)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructor_rejects_nonfinite(bad):
    with pytest.raises(NonFiniteError, match="^non-finite value in tensor$"):
        Tensor(np.array([[0.0, bad]]))


def _inf_masked_softmax(logits, allow):
    """The -inf composition ``_masked_softmax`` replaced."""
    shifted = np.where(allow, logits, -np.inf)
    m = shifted.max(axis=-1, keepdims=True)
    e = np.exp(shifted - m)
    return e / e.sum(axis=-1, keepdims=True)


def _inf_masked_softmax_vjp(y, g):
    inner = (g * y).sum(axis=-1, keepdims=True)
    return y * (g - inner)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.integers(1, 6), min_size=1, max_size=3),
       st.integers(0, 2), st.sampled_from([1, 2]),
       st.sampled_from([0.0, 5.0, 800.0]))
def test_masked_softmax_matches_inf_composition(seed, lengths, pad, heads,
                                                lift):
    """Bit for bit, forward and vjp, on B x H x S x S logits under a
    broadcast B x 1 x S x S mask with pad rows; denied logits sit ``lift``
    above the allowed ones, far enough at 800 that exp would overflow."""
    rng = np.random.default_rng(seed)
    s = max(lengths) + pad
    allow = _ragged_allow(rng, lengths, s)[:, None]
    logits = rng.normal(size=(len(lengths), heads, s, s))
    logits += np.where(allow, 0.0, lift * (1.0 + rng.random(logits.shape)))
    y = ad._masked_softmax(logits, allow)
    assert np.array_equal(y, _inf_masked_softmax(logits, allow))
    g = rng.normal(size=y.shape)
    assert np.array_equal(ad._masked_softmax_vjp(y, g),
                          _inf_masked_softmax_vjp(y, g))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-40, 40), min_size=1, max_size=8))
def test_gelu_matches_reference_formula(vals):
    """Bit for bit the tanh form in gelu's float order: the argument is
    x * (C + C * A * x^2), the derivative g Phi + x * g Phi (1 - Phi) *
    (2C + 6CA x^2), with x clamped to +-10 wherever it is squared."""
    x = np.array(vals)
    out = ad.gelu(Tensor(x, requires_grad=True))
    xc = np.clip(x, -10.0, 10.0)
    cdf = 0.5 * (1.0 + np.tanh((xc * xc * (_A * _C) + _C) * x))
    g = np.linspace(-1.0, 2.0, x.size)
    gcdf = g * cdf
    slope = (xc * xc * (6.0 * _A * _C) + 2.0 * _C) * (1.0 - cdf)
    assert np.array_equal(out.data, x * cdf)
    assert np.array_equal(out._vjp(g)[0], slope * gcdf * x + gcdf)


def test_gelu_stays_within_its_bound_of_the_exact_form():
    """The tanh form is within 4.8e-4 of x * Phi(x) on a 1e-4 grid over
    [-12, 12]; the largest gap is 4.73e-4, at |x| = 2.699."""
    x = np.arange(-120_000, 120_001) * 1e-4
    gap = np.abs(ad.gelu(Tensor(x)).data - _exact_gelu(x))
    assert gap.max() < 4.8e-4
    assert abs(abs(x[gap.argmax()]) - 2.699) < 1e-3


def test_normal_cdf_equals_the_unclamped_argument_bit_for_bit():
    """Multiplying by x clamped to +-10 gives what multiplying by x gave,
    bit for bit, wherever that product is finite: past +-10 both exceed 43
    in size, where tanh is exactly +-1.  The grid crosses +-10 by single
    ulps and runs out to 1e307."""
    near = np.array([10.0, -10.0])
    x = np.concatenate([
        np.arange(-400_000, 400_001) * 5e-5,
        np.nextafter(near, 0.0), near, np.nextafter(near, 2 * near),
        np.geomspace(10.0, 1e307, 2000), -np.geomspace(10.0, 1e307, 2000)])
    xc = np.clip(x, -10.0, 10.0)
    unclamped = (xc * xc * (_A * _C) + _C) * x
    assert np.isfinite(unclamped).all()
    assert np.array_equal(ad._normal_cdf(x), 0.5 * (np.tanh(unclamped) + 1.0))


@pytest.mark.parametrize("u", [1e200, -1e200, 1e300, -1e300, 1e308, -1e308,
                               np.finfo(float).max, -np.finfo(float).max])
def test_gelu_and_mlp_saturate_without_overflow(u):
    """Far out, gelu is x or -0.0 with slope 1 or 0, as the exact form is:
    the cubic sees x clamped to +-10, and no inf * 0 reaches a gradient.
    Any numpy RuntimeWarning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = Tensor(np.array([u]), requires_grad=True)
        out = ad.gelu(x)
        ad.tsum(out).backward()
        if u > 0:
            assert out.data[0] == u and x.grad[0] == 1.0
        else:
            assert out.data[0] == 0.0 and np.signbit(out.data[0])
            assert x.grad[0] == 0.0
        ops = [Tensor(np.array(v), requires_grad=True)
               for v in ([[u]], [[1.0]], [0.0], [[1.0]], [0.0])]
        out = ad.mlp(*ops)
        ad.tsum(out).backward()
        assert out.data[0, 0] == max(u, 0.0)
        assert ops[0].grad[0, 0] == (1.0 if u > 0 else 0.0)
        assert ops[3].grad[0, 0] == max(u, 0.0)


def test_add_gives_each_parent_its_own_grad():
    """``add``'s vjp hands one array to both parents; each keeps a copy."""
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    ad.tsum(ad.add(a, b)).backward()
    assert a.grad is not b.grad
    ad.tsum(ad.mul(a, Tensor(2.0))).backward()
    np.testing.assert_array_equal(a.grad, np.full((2, 3), 3.0))
    np.testing.assert_array_equal(b.grad, np.ones((2, 3)))


def test_op_without_grad_parents_records_no_graph():
    x = Tensor(np.ones((2, 3)))
    w = Tensor(np.ones((3, 2)))
    for out in (ad.add(x, x), ad.gelu(x), ad.linear(x, w, Tensor(np.ones(2))),
                ad.tsum(x)):
        assert not out.requires_grad
        assert out._parents == ()
        assert out._vjp is None
    w.requires_grad = True
    out = ad.matmul(x, w)
    assert out.requires_grad and out._parents == (x, w)


def test_backward_releases_the_graph_it_walks():
    """A walked op node keeps no grad, parents or vjp, so what it saved for
    backward can be freed; the leaves keep their grads."""
    x0 = np.array([[0.5, -1.0], [2.0, 0.25]])
    w0 = np.array([[1.0, 2.0], [-0.5, 3.0]])
    x = Tensor(x0, requires_grad=True)
    w = Tensor(w0, requires_grad=True)
    z = ad.matmul(x, w)
    h = ad.gelu(z)
    loss = ad.tsum(ad.mul(h, h))
    loss.backward()
    for node in (z, h, loss):
        assert node.grad is None and node._parents == ()
    # d/dz sum(gelu(z)^2) = 2 gelu(z) gelu'(z), with gelu's tanh form
    zd = x0 @ w0
    cdf = 0.5 * (1.0 + np.tanh(_C * (zd + _A * zd ** 3)))
    dcdf = 2.0 * cdf * (1.0 - cdf) * _C * (1.0 + 3.0 * _A * zd * zd)
    dz = 2.0 * zd * cdf * (cdf + zd * dcdf)
    np.testing.assert_allclose(x.grad, dz @ w0.T, rtol=1e-14)
    np.testing.assert_allclose(w.grad, x0.T @ dz, rtol=1e-14)


def test_a_graph_is_walked_once():
    """Walking a released node again raises instead of adding nothing."""
    x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
    h = ad.gelu(x)
    loss = ad.tsum(h)
    loss.backward()
    with pytest.raises(RuntimeError, match="graph already walked"):
        loss.backward()
    with pytest.raises(RuntimeError, match="graph already walked"):
        ad.tsum(ad.mul(h, x)).backward()    # a new loss over a walked node


# -- the MLP node and in-place arithmetic -----------------------------


def test_mlp_grad_matches_fd():
    rng = np.random.default_rng(9)
    ops = _operands(rng, [(4, 3), (3, 6), (6,), (6, 2), (2,)])
    weight = Tensor(rng.normal(size=(4, 2)))

    def f():
        return ad.tsum(ad.mul(ad.mlp(*ops), weight))

    assert ad.fd_check(f, ops) < 1e-6


@pytest.mark.parametrize("w1_trains", [True, False], ids=["w1", "w1-frozen"])
@pytest.mark.parametrize("w2_trains", [True, False], ids=["w2", "w2-frozen"])
def test_mlp_is_bit_identical_to_linear_gelu_linear(w1_trains, w2_trains):
    """Output and every gradient equal the three-node composition bit for
    bit; a frozen weight gets no gradient on either side."""
    def run(build):
        rng = np.random.default_rng(3)
        ops = _operands(rng, [(9, 8), (8, 32), (32,), (32, 8), (8,)])
        ops[1].requires_grad, ops[3].requires_grad = w1_trains, w2_trains
        out = build(*ops)
        ad.tsum(ad.mul(out, Tensor(rng.normal(size=out.shape)))).backward()
        return [out.data] + [t.grad for t in ops]

    fused = run(ad.mlp)
    composed = run(lambda x, w1, b1, w2, b2: ad.linear(
        ad.gelu(ad.linear(x, w1, b1)), w2, b2))
    for got, want in zip(fused, composed):
        assert (got is None) == (want is None)
        assert got is None or np.array_equal(got, want)


@pytest.mark.parametrize("x0, w1_0, w2_0", [
    (1e200, 1e200, 0.0),    # u = inf, hidden inf, inf * 0 in the output
    (-1e200, 1e200, 1.0),   # u = -inf, hidden -inf * Phi(-inf) = nan
    (1e200, 1.0, 1e200),    # finite u and hidden, the output overflows
], ids=["u-inf", "hidden-nan", "output-overflow"])
def test_mlp_rejects_a_non_finite_u_hidden_or_output(x0, w1_0, w2_0):
    x = Tensor(np.array([[x0, 1.0]]))
    w1 = Tensor(np.array([[w1_0, 0.0], [0.0, 1.0]]))
    w2 = Tensor(np.array([[w2_0], [1.0]]))
    zero1, zero2 = Tensor(np.zeros(2)), Tensor(np.zeros(1))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteError, match="^non-finite value in tensor$"):
        ad.mlp(x, w1, zero1, w2, zero2)


# a padded B*S batch: 3 sequences of 3, 1 and 2 rows padded to S = 3
_PADDED_ALLOW = _ragged_allow(np.random.default_rng(11), (3, 1, 2), 3)
_PADDED_BATCH = {
    "linear": (ad.linear, [(9, 8), (8, 16), (16,)]),
    "gelu": (ad.gelu, [(9, 8)]),
    "layernorm": (ad.layernorm, [(9, 8), (8,), (8,)]),
    "attention": (lambda q, k, v: ad.attention(q, k, v, _PADDED_ALLOW, 2),
                  [(9, 8)] * 3),
    "mlp": (ad.mlp, [(9, 8), (8, 32), (32,), (32, 8), (8,)]),
}


@pytest.mark.parametrize("frozen", [False, True], ids=["trainable", "frozen"])
@pytest.mark.parametrize("op", sorted(_PADDED_BATCH))
def test_ops_leave_inputs_and_incoming_grad_untouched(op, frozen):
    """Forward then backward leaves every input's data and the incoming
    gradient byte-equal to copies taken before, and a second backward
    gives the same gradients: no op writes into an array it did not make.
    ``frozen`` freezes every operand but the first."""
    fn, shapes = _PADDED_BATCH[op]
    rng = np.random.default_rng(12)
    ops = _operands(rng, shapes)
    for t in ops[1:]:
        t.requires_grad = not frozen
    before = [t.data.copy() for t in ops]
    out = fn(*ops)
    g = rng.normal(size=out.shape)
    g_before = g.copy()
    grads = out._vjp(g)
    again = out._vjp(g)
    for t, copy in zip(ops, before):
        assert t.data.tobytes() == copy.tobytes()
    assert g.tobytes() == g_before.tobytes()
    for got, want in zip(grads, again):
        assert (got is None) == (want is None)
        assert got is None or got.tobytes() == want.tobytes()


# -- the transformer block node ----------------------------------------


def _block_operands(rng, n, d=8, f=16):
    """x (n x d) and a block's tensors, keyed by ``BLOCK_PARAMS``."""
    v, m = (d,), (d, d)
    x, *ps = _operands(rng, [(n, d), v, v, m, v, m, m, v, m, v, v, v,
                             (d, f), (f,), (f, d), v])
    return x, dict(zip(ad.BLOCK_PARAMS, ps))


def _composed_block(x, blk, allow, heads, rows=None):
    """The composition ``block`` replaces, as ``Predictor.forward`` ran it."""
    h = ad.layernorm(x, blk["ln1_g"], blk["ln1_b"])
    k = ad.matmul(h, blk["wk"])
    v = ad.linear(h, blk["wv"], blk["bv"])
    if rows is not None:
        x, h = ad.gather_rows(x, rows), ad.gather_rows(h, rows)
    q = ad.linear(h, blk["wq"], blk["bq"])
    x = x + ad.linear(ad.attention(q, k, v, allow, heads), blk["wo"],
                      blk["bo"])
    return x + ad.mlp(ad.layernorm(x, blk["ln2_g"], blk["ln2_b"]),
                      blk["w_up"], blk["b_up"], blk["w_down"], blk["b_down"])


# 3 sequences of 4, 2 and 3 rows padded to S = 4, and the last T = 2 rows
# of each as a caption window
_S, _T = 4, 2
_BLOCK_ALLOW = _ragged_allow(np.random.default_rng(21), (4, 2, 3), _S)
_WINDOW = (np.arange(3)[:, None] * _S + np.arange(_S - _T, _S)).ravel()


def _block_case(window):
    """(mask, rows) of the whole padded batch or of its window."""
    return (_BLOCK_ALLOW[:, _S - _T:], _WINDOW) if window else (_BLOCK_ALLOW,
                                                                 None)


@pytest.mark.parametrize("window", [False, True], ids=["full", "window"])
def test_block_grad_matches_fd(window):
    rng = np.random.default_rng(22)
    allow, rows = _block_case(window)
    x, blk = _block_operands(rng, 3 * _S)
    weight = Tensor(rng.normal(size=(3 * allow.shape[1], 8)))

    def f():
        return ad.tsum(ad.mul(ad.block(x, blk, allow, 2, rows), weight))

    assert ad.fd_check(f, [x, *blk.values()]) < 1e-6


@pytest.mark.parametrize("window", [False, True], ids=["full", "window"])
@pytest.mark.parametrize("trainable", [True, False], ids=["sft", "align"])
def test_block_is_bit_identical_to_its_composition(trainable, window):
    """Output and every gradient equal the composition's bit for bit on a
    padded batch, with the block's tensors trainable (sft) or frozen
    (align: only x gets a gradient); forward then backward leaves every
    input byte-equal."""
    allow, rows = _block_case(window)

    def run(build):
        rng = np.random.default_rng(23)
        x, blk = _block_operands(rng, 3 * _S)
        for p in blk.values():
            p.requires_grad = trainable
        inputs = [x, *blk.values()]
        before = [t.data.tobytes() for t in inputs]
        out = build(x, blk, allow, 2, rows)
        ad.tsum(ad.mul(out, Tensor(rng.normal(size=out.shape)))).backward()
        assert [t.data.tobytes() for t in inputs] == before
        return [out.data] + [t.grad for t in inputs]

    for got, want in zip(run(ad.block), run(_composed_block)):
        assert (got is None) == (want is None)
        assert got is None or np.array_equal(got, want)


@pytest.mark.parametrize("weight", ["wk", "wv"], ids=["key", "value"])
def test_block_rejects_a_non_finite_key_or_value_no_query_reads(weight):
    """Row 0 of a 3-row sequence lies outside a 1-row window whose query
    may not read it.  Only row 0 deviates from its mean in column 3, where
    a huge ln1 gain and one huge entry of ``wk`` or ``wv`` make that row's
    key or value overflow and nothing else.  An infinite key gives the
    denied cell weight 0, so the output stays finite: only the check on k
    and v sees it."""
    d = 4
    x = Tensor(np.array([[0.0, 0.0, 0.0, 1.0], [1.0, -1.0, 0.0, 0.0],
                         [1.0, -1.0, 0.0, 0.0]]))
    arrays = {name: np.zeros(d) for name in ad.BLOCK_PARAMS}
    arrays.update({name: np.eye(d) for name in
                   ("wq", "wk", "wv", "wo", "w_up", "w_down")})
    arrays["ln1_g"] = np.array([1.0, 1.0, 1.0, 1e300])
    arrays["ln2_g"] = np.ones(d)
    arrays[weight][3, 0] = 1e10
    blk = {name: Tensor(a) for name, a in arrays.items()}
    allow = np.array([[[False, True, True]]])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteError, match="^non-finite value in tensor$"):
        ad.block(x, blk, allow, 2, np.array([2]))


def test_block_rejects_bad_shapes():
    x, blk = _block_operands(np.random.default_rng(24), 3 * _S)
    allow, rows = _block_case(True)
    for args, match in [
            ((blk, allow[0], 2), "B x Sq x S mask"),
            ((blk, _BLOCK_ALLOW[:2], 2), r"B\*S rows of x"),
            ((blk, allow, 2), r"B\*Sq query rows"),    # a window, no rows
            ((blk, allow, 2, rows[1:]), r"B\*Sq query rows"),
            ((blk, _BLOCK_ALLOW, 3), "divisible by the heads"),
            # sequence 1's first query is row 1 of sequence 0
            ((blk, allow, 2, np.array([2, 3, 1, 7, 10, 11])),
             "in their own sequence"),
            ((dict(blk, bv=Tensor(np.zeros(1))), _BLOCK_ALLOW, 2),
             "width of 8")]:
        with pytest.raises(ValueError, match=match):
            ad.block(x, *args)


# -- a wide block's two halves -----------------------------------------


def _wide_block(rng, lengths, s, d=64):
    """x, tensors and a ragged mask for sequences of ``lengths`` padded to
    ``s`` rows of width ``d``."""
    x, blk = _block_operands(rng, len(lengths) * s, d, 2 * d)
    return x, blk, _ragged_allow(rng, lengths, s)


def _block_pass(x, blk, allow, heads, rows=None, build=ad.block):
    """Output and every gradient of a forward and backward pass."""
    inputs = [x, *blk.values()]
    for t in inputs:
        t.zero_grad()
    out = build(x, blk, allow, heads, rows)
    weight = np.random.default_rng(0).normal(size=out.shape)
    ad.tsum(ad.mul(out, Tensor(weight))).backward()
    return [out.data] + [t.grad for t in inputs]


@pytest.mark.parametrize("bsz, s, splits", [
    (4, 64, True),      # 16,384 values: SPLIT_MIN
    (4, 63, False),     # 16,128 values
    (1, 256, False)])   # 16,384 values in one sequence
def test_block_splits_from_split_min_values(live_pool, bsz, s, splits):
    """The split is set by the input's size and batch alone: one half goes
    to the worker in forward and one in backward."""
    x, blk, allow = _wide_block(np.random.default_rng(30), [s] * bsz, s)
    assert (x.data.size >= ad.SPLIT_MIN) == (bsz * s == 256)
    out = ad.block(x, blk, allow, 4)
    assert live_pool.submits == int(splits)
    ad.tsum(out).backward()
    assert live_pool.submits == 2 * int(splits)


@pytest.mark.parametrize("window", [False, True], ids=["full", "window"])
def test_split_block_matches_its_composition(monkeypatch, live_pool,
                                             window):
    """Three ragged sequences split 2 + 1: output and every gradient are
    byte-equal with the first half on the worker or inline, and within
    rtol 1e-12 of the unsplit composition, the gradients with an absolute
    floor scaled by the largest of them: a half's sums round apart from
    the whole's, and BLAS may sum a product of fewer rows in another
    order."""
    s, t = 86, 9
    rng = np.random.default_rng(31)
    x, blk, allow = _wide_block(rng, [86, 40, 73], s)
    rows = None
    if window:
        allow = allow[:, s - t:]
        rows = (np.arange(3)[:, None] * s + np.arange(s - t, s)).ravel()
    got = _block_pass(x, blk, allow, 4, rows)
    assert live_pool.submits == 2
    monkeypatch.setattr(ad, "_split_pool", lambda: None)
    inline = _block_pass(x, blk, allow, 4, rows)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in inline]
    want = _block_pass(x, blk, allow, 4, rows, _composed_block)
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12)
    floor = 1e-14 * max(np.abs(g).max() for g in want[1:])
    for name, a, b in zip(("x",) + ad.BLOCK_PARAMS, got[1:], want[1:]):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=floor,
                                   err_msg=name)


def test_split_block_under_the_process_pool_matches_inline(monkeypatch):
    """The pool ``_split_pool`` gives this process, a live worker where
    BLAS runs on one thread, leaves every byte as the inline run does."""
    x, blk, allow = _wide_block(np.random.default_rng(35), [64, 64, 30], 86)
    got = _block_pass(x, blk, allow, 4)
    monkeypatch.setattr(ad, "_split_pool", lambda: None)
    assert [a.tobytes() for a in got] == [
        a.tobytes() for a in _block_pass(x, blk, allow, 4)]


def _first_half_overflow():
    """A block over 4 sequences of 64 rows at d = 64 whose key overflows in
    the first half alone.  Every row's entries are integers summing to 0,
    so its mean is exactly 0; only first-half rows are non-zero in column
    3, where a huge ln1 gain and one huge entry of ``wk`` reach the key."""
    rng = np.random.default_rng(32)
    x, blk, allow = _wide_block(rng, [64] * 4, 64)
    data = rng.integers(-3, 4, size=x.shape).astype(np.float64)
    data[:128, 3], data[128:, 3] = 3.0, 0.0
    data[:, -1] -= data.sum(axis=1)
    x.data = data
    blk["ln1_g"].data[3] = 1e300
    blk["wk"].data[3, 0] = 1e10
    return x, blk, allow


def test_a_non_finite_first_half_raises_as_inline(monkeypatch, live_pool):
    """The worker's NonFiniteError reaches the caller with the message the
    inline run gives, and the next call runs on the same worker."""
    x, blk, allow = _first_half_overflow()
    raised = []
    for pool in (None, live_pool):
        monkeypatch.setattr(ad, "_split_pool", lambda: pool)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError) as err:
            ad.block(x, blk, allow, 4)
        raised.append(str(err.value))
    assert raised == ["non-finite value in tensor"] * 2
    assert live_pool.submits == 1
    x, blk, allow = _wide_block(np.random.default_rng(33), [64] * 4, 64)
    got = _block_pass(x, blk, allow, 4)
    assert live_pool.submits == 3
    monkeypatch.setattr(ad, "_split_pool", lambda: None)
    assert [a.tobytes() for a in got] == [
        a.tobytes() for a in _block_pass(x, blk, allow, 4)]


@pytest.mark.parametrize("state, error", [
    ({"all": "ignore"}, NonFiniteError),
    ({"over": "raise"}, FloatingPointError)], ids=["ignore", "raise"])
def test_the_worker_runs_under_the_callers_errstate(live_pool, state,
                                                    error):
    """The first half's overflow happens on the worker under the caller's
    ``np.errstate``: ignored, it warns of nothing and the key check
    raises; set to raise, numpy raises there."""
    x, blk, allow = _first_half_overflow()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(**state), pytest.raises(error):
            ad.block(x, blk, allow, 4)
    assert live_pool.submits == 1


@pytest.mark.parametrize("on_worker", [True, False], ids=["worker",
                                                       "inline"])
def test_a_failed_half_waits_for_the_other(monkeypatch, live_pool,
                                           on_worker):
    """When the second half raises, the call returns only once the first
    has ended; when both raise, the first half's error is the one raised."""
    if not on_worker:
        monkeypatch.setattr(ad, "_split_pool", lambda: None)
    ended = []

    def half(i, fails):
        if i == 0:
            time.sleep(0.05)
            ended.append(i)
        if fails:
            raise ValueError(f"half {i}")

    with pytest.raises(ValueError, match="^half 1$"):
        ad._in_halves(half, (0, False), (1, True))
    assert ended == [0]
    with pytest.raises(ValueError, match="^half 0$"):
        ad._in_halves(half, (0, True), (1, True))
    assert live_pool.submits == 2 * on_worker


def test_split_block_replays_under_a_tiny_switch_interval(live_pool):
    """20 forward and backward passes with the GIL handed over every
    microsecond give the same bytes."""
    x, blk, allow = _wide_block(np.random.default_rng(34), [64, 50, 64, 20],
                                64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = {b"".join(a.tobytes() for a in _block_pass(x, blk, allow, 4))
                for _ in range(20)}
    finally:
        sys.setswitchinterval(interval)
    assert len(runs) == 1
    assert live_pool.submits == 40


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_forked_child_gets_a_worker_of_its_own(monkeypatch):
    """A child forked after the worker started has no worker thread; it
    builds its own pool instead of waiting on the parent's forever."""
    monkeypatch.setattr(ad, "_blas_threads", lambda: 1)
    monkeypatch.setattr(ad.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    x, blk, allow = _wide_block(np.random.default_rng(36), [64] * 4, 64)
    ad._split_pool.cache_clear()
    try:
        parent_pool = ad._split_pool()
        ad.block(x, blk, allow, 4)          # starts the worker thread
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                if ad._split_pool() in (None, parent_pool):
                    code = 2
                else:
                    ad.block(x, blk, allow, 4)
                    code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while not (done := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung on a split block")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(done[1]) == 0
    finally:
        ad._split_pool().shutdown()
        ad._split_pool.cache_clear()


def test_split_pool_needs_two_cpus_and_one_blas_thread(monkeypatch):
    """A worker only where the process may use two CPUs (the CPU count
    stands in where there is no affinity call) and BLAS reports exactly
    one thread."""
    threads = ad._blas_threads()
    assert threads is None or threads >= 1
    cases = [({0, 1}, 1, True), ({0}, 1, False), ({0, 1}, 2, False),
             ({0, 1}, None, False)]
    try:
        for cpus, blas, live in cases:
            monkeypatch.setattr(ad.os, "sched_getaffinity", lambda pid: cpus,
                                raising=False)
            monkeypatch.setattr(ad, "_blas_threads", lambda: blas)
            ad._split_pool.cache_clear()
            pool = ad._split_pool()
            assert (pool is not None) == live
            assert ad._split_pool() is pool
            if pool is not None:
                pool.shutdown()
        monkeypatch.delattr(ad.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(ad, "_blas_threads", lambda: 1)
        for count, live in [(1, False), (2, True), (None, False)]:
            monkeypatch.setattr(ad.os, "cpu_count", lambda: count)
            ad._split_pool.cache_clear()
            pool = ad._split_pool()
            assert (pool is not None) == live
            if pool is not None:
                pool.shutdown()
    finally:
        ad._split_pool.cache_clear()
