"""Unit and property tests for the reverse-mode autodiff core.

Hand-computed values anchor each op; finite differences check the vjps.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentalign import autodiff as ad
from latentalign.autodiff import NonFiniteError, Tensor


def _scalar_fd(f, x, eps=1e-6):
    return (f(x + eps) - f(x - eps)) / (2 * eps)


# -- forward values -------------------------------------------------


def test_matmul_hand_value():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor(np.array([[0.0], [1.0]]))
    assert np.array_equal((a @ b).data, np.array([[2.0], [4.0]]))


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
    # exact form x * Phi(x): gelu(1) = 1 * Phi(1) = 0.8413447...
    out = ad.gelu(Tensor(np.array([1.0])))
    phi = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    np.testing.assert_allclose(out.data, [phi], atol=1e-12)


def test_cross_entropy_uniform_logits():
    v = 16
    loss = ad.cross_entropy(Tensor(np.zeros((3, v))), np.array([0, 5, 15]))
    np.testing.assert_allclose(loss.data, math.log(v), atol=1e-12)


def test_cross_entropy_hand_value():
    # softmax([0, ln 3]) = [0.25, 0.75]; -log p[target]
    logits = Tensor(np.array([[0.0, math.log(3.0)]]))
    loss = ad.cross_entropy(logits, np.array([1]))
    np.testing.assert_allclose(loss.data, -math.log(0.75), atol=1e-12)


def test_smooth_l1_hand_values():
    # |d| = 2 -> 2 - 0.5 = 1.5 ; |d| = 0.5 -> 0.5 * 0.25 = 0.125
    big = ad.smooth_l1(Tensor(np.array([2.0])), Tensor(np.array([0.0])))
    small = ad.smooth_l1(Tensor(np.array([0.5])), Tensor(np.array([0.0])))
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
    ad.tsum(out * 2.0).backward()
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
    (x * x).backward()           # d/dx x^2 = 2x
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
        h = ad.gelu(Tensor(x) @ w + b)
        return ad.tsum(h * h)

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
    phi = lambda t: 0.5 * t * (1.0 + math.erf(t / math.sqrt(2.0)))
    np.testing.assert_allclose(x.grad[0], _scalar_fd(phi, x0), atol=1e-7)


def test_layernorm_grad_matches_fd():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    g = Tensor(rng.normal(size=(5,)) + 1.0, requires_grad=True)
    b = Tensor(rng.normal(size=(5,)), requires_grad=True)
    params = [x, g, b]

    def f():
        return ad.tsum(ad.layernorm(x, g, b) ** 3.0)

    assert ad.fd_check(f, params) < 1e-5


def test_cross_entropy_grad_matches_fd():
    rng = np.random.default_rng(3)
    z = Tensor(rng.normal(size=(4, 7)), requires_grad=True)
    params = [z]
    tgt = np.array([0, 3, 6, 2])

    def f():
        return ad.cross_entropy(z, tgt)

    assert ad.fd_check(f, params) < 1e-6


def test_masked_softmax_grad_matches_fd():
    rng = np.random.default_rng(4)
    allow = np.array([[True, False, True, True],
                      [True, True, False, False]])
    z = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    params = [z]

    def f():
        return ad.tsum(ad.softmax_masked(z, allow)
                       * Tensor(np.arange(8.0).reshape(2, 4)))

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
        scores = (qh @ ad.transpose(kh)) * (1.0 / math.sqrt(dh))
        outs.append(ad.softmax_masked(scores, allow) @ vh)
    return ad.concat(outs, axis=1)


def test_linear_grad_matches_fd():
    rng = np.random.default_rng(5)
    x, w, b = _operands(rng, [(4, 3), (3, 5), (5,)])
    weight = Tensor(rng.normal(size=(4, 5)))

    def f():
        return ad.tsum(ad.linear(x, w, b) * weight)

    assert ad.fd_check(f, [x, w, b]) < 1e-6


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_grad_matches_fd(heads):
    rng = np.random.default_rng(heads)
    s, d = 5, 8
    q, k, v = _operands(rng, [(s, d)] * 3)
    allow = _allow(rng, s)[None]
    weight = Tensor(rng.normal(size=(s, d)))

    def f():
        return ad.tsum(ad.attention(q, k, v, allow, heads) * weight)

    assert ad.fd_check(f, [q, k, v]) < 1e-6


def _value_and_grads(build, shapes, seed):
    """Forward value of ``build(*operands)`` and the grads of a fixed random
    projection of it with respect to every operand."""
    rng = np.random.default_rng(seed)
    ops = _operands(rng, shapes)
    out = build(*ops)
    ad.tsum(out * Tensor(rng.normal(size=out.shape))).backward()
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
        _value_and_grads(lambda x, w, b: x @ w + b, shapes, seed))


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
        return ad.tsum(ad.attention(q, k, v, allow, 2) * weight)

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
        want = sum(w[i] * float(fn(*rows([i])).data) for i in range(5))
        np.testing.assert_allclose(fn(*args, w).data, want, rtol=1e-13)
    with pytest.raises(ValueError, match="one weight per row"):
        ad.cross_entropy(z, tgt, np.ones(4))


def _reference_cosine(pred, tgt, weights):
    """The composition cosine_distance replaces, weighted."""
    dots = ad.tsum(pred * tgt, axis=1)
    inv = (ad.tsum(pred * pred, axis=1) ** 0.5
           * ad.tsum(tgt * tgt, axis=1) ** 0.5) ** -1.0
    return ad.tsum(-1.0 * dots * inv * Tensor(weights))


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
                           Tensor(np.array([[1.0, 0, 0], [0, 0, 0]])))


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
