"""Dense float64 tensors with reverse-mode automatic differentiation.

Every tensor op records its inputs and a vector-Jacobian product, so a
scalar loss can be back-propagated through arbitrary compositions.  All
arithmetic is 64-bit and deterministic; any op producing a NaN or Inf
raises immediately instead of propagating it.
"""

from __future__ import annotations

import contextvars
import functools
import math
import operator
import os

import numpy as np


class NonFiniteError(ArithmeticError):
    """An op produced (or was fed) a NaN or Inf."""


# ndarray.sum/.max/.min/.all reach these C reducers through Python
# wrappers in numpy's _methods module, whose cost per call rules at a
# gradcheck evaluation's sizes; without an axis they reduce axis 0
_sum = np.add.reduce
_max = np.maximum.reduce
_min = np.minimum.reduce
_all = np.logical_and.reduce


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _check_finite(arr: np.ndarray) -> None:
    if not _all(np.isfinite(arr), axis=None):
        raise NonFiniteError("non-finite value in tensor")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape of a broadcast operand."""
    while grad.ndim > len(shape):
        grad = _sum(grad, axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = _sum(grad, axis=axis, keepdims=True)
    return grad


def _walked(g):
    raise RuntimeError("graph already walked: backward releases it as it goes")


class Tensor:
    """A node in the computation graph: float64 data plus an optional grad."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        _check_finite(self.data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a copy: add's vjp hands one array to both parents
            self.grad = g.copy()
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-topological gradient accumulation from a scalar loss.

        Each op node drops its grad, vjp and parents once its gradients
        reach its parents, so a graph is walked once; leaves keep their
        grads, which accumulate across graphs until ``zero_grad``.
        """
        if self.data.size != 1:
            raise ValueError("backward requires a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._vjp is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if parent.requires_grad and g is not None:
                    parent._accumulate(g)
            node.grad, node._vjp, node._parents = None, _walked, ()

    # operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _from_op(data: np.ndarray, parents: tuple, vjp) -> Tensor:
    """An op's output, checked like ``Tensor(data)`` but built without it."""
    out = Tensor.__new__(Tensor)
    out.data = _as_array(data)
    _check_finite(out.data)
    out.grad = None
    for p in parents:
        if p.requires_grad:
            out.requires_grad, out._parents, out._vjp = True, parents, vjp
            return out
    out.requires_grad, out._parents, out._vjp = False, (), None
    return out


# primitive ops ------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    return _from_op(data, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape) if a.requires_grad else None,
        _unbroadcast(g, b.data.shape) if b.requires_grad else None))


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    return _from_op(data, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
        _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None))


def pow_const(a: Tensor, n: float) -> Tensor:
    return _from_op(a.data ** n, (a,),
                    lambda g: (g * n * a.data ** (n - 1.0),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    return _from_op(a.data @ b.data, (a, b), lambda g: _affine_vjp(
        g, a.data, b.data, (a.requires_grad, b.requires_grad, False))[:2])


def _check_affine(shape: tuple, w: Tensor, b: Tensor, op: str) -> None:
    """``x @ w + b`` for an input of ``shape`` is 2-D and shapes match."""
    if len(shape) != 2 or w.data.ndim != 2:
        raise ValueError(f"{op} expects a 2-D input and weight")
    if shape[1] != w.data.shape[0] or b.data.shape != w.data.shape[1:]:
        raise ValueError(f"{op} shape mismatch: {shape} @ "
                         f"{w.data.shape} + {b.data.shape}")


def _wants(*ts) -> tuple:
    """Which of ``ts`` need a gradient; a vjp asks when it runs."""
    return tuple(t.requires_grad for t in ts)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` in one fresh array."""
    out = x @ w
    out += b
    return out


def _affine_vjp(g, x, w, wants) -> tuple:
    """The gradients of ``x @ w + b`` for x, w and b; None where ``wants``
    says none is needed."""
    return (g @ w.T if wants[0] else None,
            x.T @ g if wants[1] else None,
            _sum(g, axis=0) if wants[2] else None)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node, bit-identical to ``matmul`` then ``add``."""
    _check_affine(x.data.shape, w, b, "linear")
    return _from_op(_affine(x.data, w.data, b.data), (x, w, b),
                    lambda g: _affine_vjp(g, x.data, w.data, _wants(x, w, b)))


def transpose(a: Tensor) -> Tensor:
    return _from_op(a.data.T.copy(), (a,), lambda g: (g.T,))


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return _from_op(data, (a,), vjp)


# GELU in its tanh form (Hendrycks & Gimpel 2016, as in GPT-2 and BERT):
# Phi(x) ~ 0.5 * (1 + tanh(c * (x + a * x^3))), within 4.8e-4 of x * Phi(x)
_TANH_C = math.sqrt(2.0 / math.pi)
_TANH_A = 0.044715
# past +-10 the tanh is exactly +-1, so x is clamped there and neither
# x^2 nor the tanh's argument can overflow
_CLAMP = 10.0


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) in the tanh form.  The argument is xc * (c + c * a * xc^2)
    for x clamped to +-10, bit-equal to the unclamped one wherever that is
    finite: past +-10 both exceed 43 in size, where tanh is exactly +-1."""
    xc = np.minimum(x, _CLAMP)      # two ufunc calls cost less than np.clip
    np.maximum(xc, -_CLAMP, out=xc)
    cdf = xc * xc
    cdf *= _TANH_A * _TANH_C
    cdf += _TANH_C
    cdf *= xc
    np.tanh(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_grad(x: np.ndarray, cdf: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g * (Phi(x) + x * Phi'(x)), gelu's vjp for the tanh form, where
    Phi' = 2 Phi (1 - Phi) * c * (1 + 3 a x^2), in one fresh array.  It
    overwrites ``g``.  Past +-10 Phi (1 - Phi) is exactly 0, and it is
    applied before x, so a huge x gives a gradient of g or 0, not NaN."""
    out = np.minimum(x, _CLAMP)
    np.maximum(out, -_CLAMP, out=out)
    out *= out
    out *= 6.0 * _TANH_A * _TANH_C
    out += 2.0 * _TANH_C
    g *= cdf
    out *= 1.0 - cdf
    out *= g
    out *= x
    out += g
    return out


def gelu(a: Tensor) -> Tensor:
    """GELU in the tanh form, x * Phi(x)."""
    x = a.data
    cdf = _normal_cdf(x)
    return _from_op(x * cdf, (a,), lambda g: (
        _gelu_grad(x, cdf, g.copy()),))


def _mlp(x, w1, b1, w2, b2) -> tuple:
    """``mlp`` on arrays: (output, u, Phi(u)) for the pre-activation u."""
    u = _affine(x, w1, b1)
    cdf = _normal_cdf(u)
    return _affine(u * cdf, w2, b2), u, cdf


def _mlp_vjp(g, x, w1, w2, u, cdf, wants) -> tuple:
    """``mlp``'s gradients for x, w1, b1, w2 and b2.  The hidden output
    u * Phi(u) is rebuilt only when ``w2`` needs a gradient."""
    gw2 = (u * cdf).T @ g if wants[3] else None
    gu = _gelu_grad(u, cdf, g @ w2.T) if any(wants[:3]) else None
    return (*_affine_vjp(gu, x, w1, wants[:3]), gw2,
            _sum(g, axis=0) if wants[4] else None)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``linear(gelu(linear(x, w1, b1)), w2, b2)`` as one node, bit-identical
    to it.  It keeps the pre-activation u and Phi(u) for backward, not the
    hidden output u * Phi(u).  Only the output is checked for non-finite
    values; a non-finite u or hidden output always reaches it."""
    _check_affine(x.data.shape, w1, b1, "mlp")
    _check_affine((x.data.shape[0], w1.data.shape[1]), w2, b2, "mlp")
    data, u, cdf = _mlp(x.data, w1.data, b1.data, w2.data, b2.data)
    return _from_op(data, (x, w1, b1, w2, b2), lambda g: _mlp_vjp(
        g, x.data, w1.data, w2.data, u, cdf, _wants(x, w1, b1, w2, b2)))


# added to a layernorm's variance before its square root
LN_EPS = 1e-5


def _layernorm(x: np.ndarray, gain, bias) -> tuple:
    """``layernorm`` on arrays: (output, xhat, 1 / std)."""
    d = x.shape[-1]
    # centred, then scaled in place; sum / d is how np.mean and np.var divide
    xhat = x - _sum(x, axis=-1, keepdims=True) / d
    data = xhat * xhat              # the squared deviations, then the output
    var = _sum(data, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    np.multiply(xhat, gain, out=data)
    data += bias
    return data, xhat, inv


def _layernorm_vjp(g, gain, xhat, inv, wants) -> tuple:
    """``layernorm``'s gradients for x, gain and bias."""
    dx = None
    if wants[0]:
        # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        d = xhat.shape[-1]
        dx = g * gain
        proj = dx * xhat
        np.multiply(xhat, _sum(proj, axis=-1, keepdims=True) / d, out=proj)
        dx -= _sum(dx, axis=-1, keepdims=True) / d
        dx -= proj
        dx *= inv
    axes = tuple(range(g.ndim - 1))
    return (dx, _sum(g * xhat, axis=axes) if wants[1] else None,
            _sum(g, axis=axes) if wants[2] else None)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ValueError("layernorm gain/bias must match the last extent")
    data, xhat, inv = _layernorm(x.data, gain.data, bias.data)
    return _from_op(data, (x, gain, bias), lambda g: _layernorm_vjp(
        g, gain.data, xhat, inv, _wants(x, gain, bias)))


def _masked_softmax(logits: np.ndarray, allow: np.ndarray) -> np.ndarray:
    """Softmax over the last axis restricted to the columns ``allow``
    permits; denied columns get exactly 0.  ``allow`` may broadcast over
    leading axes of ``logits``.

    Bit-identical to adding -inf to denied logits before normalizing, but
    ``exp`` never sees an infinity: denied cells are zeroed after it.  An
    empty row raises ValueError: for finite logits its row sum is exactly
    0, and any other row's at least exp(0) = 1.
    """
    e = np.where(allow, logits, -np.inf)
    # from -inf, so that a row of no columns has a max too
    np.subtract(logits, _max(e, axis=-1, keepdims=True, initial=-np.inf),
                out=e)
    np.minimum(e, 0.0, out=e)   # a denied cell may sit above the allowed max
    np.exp(e, out=e)
    e *= allow
    total = _sum(e, axis=-1, keepdims=True)
    if not _all(total, axis=None):
        raise ValueError("attention row with zero permitted columns")
    e /= total
    return e


def _masked_softmax_vjp(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    out = g * y
    np.subtract(g, _sum(out, axis=-1, keepdims=True), out=out)
    out *= y
    return out


def softmax_masked(logits: Tensor, allow: np.ndarray) -> Tensor:
    """Row softmax over permitted columns; denied columns get exactly 0."""
    allow = np.asarray(allow, dtype=bool)
    if allow.shape != logits.data.shape:
        raise ValueError("mask shape must match logits")
    y = _masked_softmax(logits.data, allow)
    return _from_op(y, (logits,), lambda g: (_masked_softmax_vjp(y, g),))


def _split_heads(a: np.ndarray, bsz: int, heads: int) -> np.ndarray:
    """(B*R) x d as a B x H x R x dh view."""
    return a.reshape(bsz, -1, heads, a.shape[1] // heads).transpose(0, 2, 1, 3)


def _merged(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over B x H x R x dh operands, written as (B*R) x d."""
    bsz, heads, r = a.shape[:3]
    out = np.empty((bsz * r, heads * b.shape[-1]))
    np.matmul(a, b, out=_split_heads(out, bsz, heads))
    return out


def _attention(q, k, v, allow: np.ndarray, heads: int) -> tuple:
    """Multi-head scaled dot-product attention on arrays under a B x Sq x S
    mask, q (B*Sq) x d, k and v (B*S) x d: (output, softmax probs)."""
    qh, kh, vh = [_split_heads(a, allow.shape[0], heads) for a in (q, k, v)]
    # a contiguous K^T keeps QK^T bit-identical to the per-head composition
    logits = qh @ np.ascontiguousarray(kh.swapaxes(-1, -2))
    logits *= 1.0 / math.sqrt(qh.shape[-1])
    probs = _masked_softmax(logits, allow[:, None])
    return _merged(probs, vh), probs


def _attention_vjp(g, q, k, v, probs) -> tuple:
    """``_attention``'s gradients for q, k and v."""
    bsz, heads = probs.shape[:2]
    qh, kh, vh, gh = [_split_heads(a, bsz, heads) for a in (q, k, v, g)]
    gs = _masked_softmax_vjp(probs, gh @ vh.swapaxes(-1, -2))
    gs *= 1.0 / math.sqrt(qh.shape[-1])
    return (_merged(gs, kh), _merged(gs.swapaxes(-1, -2), qh),
            _merged(probs.swapaxes(-1, -2), gh))


def _row_weights(weights, n: int) -> np.ndarray:
    """``weights`` as float64, checked to hold one weight per row."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError("one weight per row expected")
    return w


def cross_entropy(logits: Tensor, targets, weights) -> Tensor:
    """Weighted sum over rows of -log softmax(logits)[target]."""
    t = np.asarray(targets, dtype=np.int64)
    n, v = logits.data.shape
    if t.shape != (n,):
        raise ValueError("targets must have one id per logits row")
    if _min(t, initial=0) < 0 or (t.size and _max(t) >= v):
        raise ValueError("target id out of vocabulary range")
    w = _row_weights(weights, n)
    rows = logits.data
    m = _max(rows, axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(_sum(np.exp(rows - m), axis=-1))
    data = w @ (lse - rows[np.arange(n), t])

    def vjp(g):
        p = np.exp(rows - m)
        p /= _sum(p, axis=-1, keepdims=True)
        p[np.arange(n), t] -= 1.0
        return (p * (float(g) * w)[:, None],)

    return _from_op(data, (logits,), vjp)


def smooth_l1(pred: Tensor, target: Tensor, weights) -> Tensor:
    """Weighted sum over rows of each row's mean Huber penalty, quadratic
    below unit error and linear above."""
    if pred.data.shape != target.data.shape:
        raise ValueError("smooth_l1 operands must share a shape")
    e = pred.data - target.data
    n = e.shape[0]
    w = _row_weights(weights, n)
    a = np.abs(e)
    per = np.where(a < 1.0, 0.5 * e * e, a - 0.5).reshape(n, -1)
    data = w @ (_sum(per, axis=1) / per.shape[1])    # as np.mean divides

    def vjp(g):
        row = (float(g) / per.shape[1]) * w
        ge = np.minimum(e, 1.0)     # two ufunc calls cost less than np.clip
        np.maximum(ge, -1.0, out=ge)
        ge *= row.reshape((n,) + (1,) * (e.ndim - 1))
        return (ge if pred.requires_grad else None,
                -ge if target.requires_grad else None)

    return _from_op(data, (pred, target), vjp)


NORM_FLOOR = 1e-12


def cosine_distance(pred: Tensor, tgt: Tensor, weights) -> Tensor:
    """Weighted sum over rows of the negative cosine similarity between
    ``pred`` and ``tgt`` rows.  A row whose norm is below NORM_FLOOR raises
    NonFiniteError."""
    if pred.data.ndim != 2 or pred.data.shape != tgt.data.shape:
        raise ValueError("cosine_distance operands must share an n x d shape")
    p, t = pred.data, tgt.data
    w = _row_weights(weights, p.shape[0])
    norm_p = np.sqrt(_sum(p * p, axis=1))
    norm_t = np.sqrt(_sum(t * t, axis=1))
    if _min(norm_p) < NORM_FLOOR or _min(norm_t) < NORM_FLOOR:
        raise NonFiniteError("near-zero norm in cosine distance")
    inv = 1.0 / (norm_p * norm_t)
    cos = _sum(p * t, axis=1) * inv
    data = -(w @ cos)

    def vjp(g):
        dcos = -float(g) * w        # d loss / d cos, per row
        return ((dcos * inv)[:, None] * t
                - (dcos * cos / (norm_p * norm_p))[:, None] * p
                if pred.requires_grad else None,
                (dcos * inv)[:, None] * p
                - (dcos * cos / (norm_t * norm_t))[:, None] * t
                if tgt.requires_grad else None)

    return _from_op(data, (pred, tgt), vjp)


def gather_rows(x: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)

    def vjp(g):
        gx = np.zeros(x.data.shape)
        np.add.at(gx, idx, g)
        return (gx,)

    return _from_op(x.data[idx], (x,), vjp)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    data = x.data[:, start:stop].copy()

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g
        return (gx,)

    return _from_op(data, (x,), vjp)


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    data = np.concatenate([p.data for p in parts], axis=axis)

    def vjp(g):
        bounds = np.cumsum([0] + [p.data.shape[axis] for p in parts])
        return tuple(np.take(g, np.arange(bounds[i], bounds[i + 1]), axis=axis)
                     if p.requires_grad else None
                     for i, p in enumerate(parts))

    return _from_op(data, tuple(parts), vjp)


# the transformer block ----------------------------------------------

# a block's tensors in its parents' order; there is no key bias: softmax
# ignores q.bk, a shift shared by a whole row
BLOCK_PARAMS = ("ln1_g", "ln1_b", "wq", "bq", "wk", "wv", "bv", "wo", "bo",
                "ln2_g", "ln2_b", "w_up", "b_up", "w_down", "b_down")
_block_tensors = operator.itemgetter(*BLOCK_PARAMS)


def _block_forward(x, arrays, allow, heads, t) -> tuple:
    """``block`` on arrays: (output, what its vjp reads)."""
    g1, b1, wq, bq, wk, wv, bv, wo, bo, g2, b2, wu, bu, wd, bd = arrays
    bsz, s, _ = allow.shape
    h, xhat1, inv1 = _layernorm(x, g1, b1)
    k, v = h @ wk, _affine(h, wv, bv)
    _check_finite(k)
    _check_finite(v)
    hq, res = (h, x) if t == s else [
        a.reshape(bsz, s, -1)[:, s - t:].reshape(bsz * t, -1) for a in (h, x)]
    q = _affine(hq, wq, bq)
    att, probs = _attention(q, k, v, allow[:, s - t:], heads)
    x1 = _affine(att, wo, bo)
    x1 += res
    h2, xhat2, inv2 = _layernorm(x1, g2, b2)
    out, u, cdf = _mlp(h2, wu, bu, wd, bd)
    out += x1
    return out, {"h": h, "xhat1": xhat1, "inv1": inv1, "hq": hq, "q": q,
                 "k": k, "v": v, "probs": probs, "att": att, "xhat2": xhat2,
                 "inv2": inv2, "h2": h2, "u": u, "cdf": cdf}


def _block_vjp(g, saved, arrays, wants) -> tuple:
    """``block``'s gradients for x and its 15 tensors, from its ``saved``
    arrays, each popped once its last reader has run."""
    g1, _, wq, _, wk, wv, _, wo, _, g2, _, wu, _, wd, _ = arrays
    pop = saved.pop
    bsz, _, t, s = saved["probs"].shape
    dh2, *dmlp = _mlp_vjp(g, pop("h2"), wu, wd, pop("u"), pop("cdf"),
                          (True,) + wants[12:])
    dx1, dg2, db2 = _layernorm_vjp(dh2, g2, pop("xhat2"), pop("inv2"),
                                   (True,) + wants[10:12])
    dx1 += g
    datt, dwo, dbo = _affine_vjp(dx1, pop("att"), wo, (True,) + wants[8:10])
    dq, dk, dv = _attention_vjp(datt, pop("q"), pop("k"), pop("v"),
                                pop("probs"))
    dhq, dwq, dbq = _affine_vjp(dq, pop("hq"), wq, (True,) + wants[3:5])
    h = pop("h")
    dh, dwk, _ = _affine_vjp(dk, h, wk, (True, wants[5], False))
    # h's gradient is the query, key and value terms summed in that order
    # (key + query is query + key); the queries are each sequence's last t
    dh.reshape(bsz, s, -1)[:, s - t:] += dhq.reshape(bsz, t, -1)
    dhv, dwv, dbv = _affine_vjp(dv, h, wv, (True,) + wants[6:8])
    dh += dhv
    dx, dg1, db1 = _layernorm_vjp(dh, g1, pop("xhat1"), pop("inv1"),
                                  wants[:3])
    if dx is not None:
        dx.reshape(bsz, s, -1)[:, s - t:] += dx1.reshape(bsz, t, -1)
    return (dx, dg1, db1, dwq, dbq, dwk, dwv, dbv, dwo, dbo, dg2, db2, *dmlp)


# a block whose input holds at least this many values (B*S*d) runs its
# sequences in two halves, the first on a worker thread where there is one;
# below it numpy's calls are too short to release the GIL for long enough
SPLIT_MIN = 16_384


def _blas_threads():
    """The thread count numpy's OpenBLAS reports, or None where the
    library exports no such function."""
    import ctypes
    try:
        return ctypes.CDLL(np._core._multiarray_umath.__file__) \
            .scipy_openblas_get_num_threads64_()
    except (AttributeError, OSError):
        return None


@functools.cache
def _split_pool():
    """A one-worker pool for a split block's first half, or None, and then
    both halves run on the caller.  The worker pays only where the process
    may use two CPUs and BLAS runs on one thread: with more, the worker's
    BLAS calls compete with BLAS's own threads."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call: macOS, Windows
        cpus = os.cpu_count() or 1
    if cpus < 2 or _blas_threads() != 1:
        return None
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(1, thread_name_prefix="latentalign-block")


if hasattr(os, "register_at_fork"):     # a forked child has no worker thread
    os.register_at_fork(after_in_child=_split_pool.cache_clear)


def _in_halves(fn, first: tuple, second: tuple) -> tuple:
    """(fn(*first), fn(*second)), the first on the worker if there is one.
    The worker runs in a copy of the caller's context, so an
    ``np.errstate`` around the call reaches it.  When both raise, the
    first's error is the one raised."""
    pool = _split_pool()
    if pool is None:
        return fn(*first), fn(*second)
    future = pool.submit(contextvars.copy_context().run, fn, *first)
    try:
        out = fn(*second)
    except BaseException:
        future.result()
        raise
    return future.result(), out


def block(x: Tensor, blk: dict, allow: np.ndarray, heads: int,
          window=None) -> Tensor:
    """One pre-layernorm transformer block as one node: ``x1 = x +
    linear(attention(q, k, v), wo, bo)`` over ``h = layernorm(x, ln1)``, then
    ``x1 + mlp(layernorm(x1, ln2))``.  ``blk`` maps BLOCK_PARAMS to
    tensors; ``x`` is (B*S) x d, S rows per sequence, and row i of
    sequence b reads row j of it only where ``allow[b, i, j]`` (B x S x S).
    With a ``window`` of T rows the queries and the residual, and so the
    output, are the last T rows of each sequence, (B*T) x d, under
    ``allow[:, S-T:]``; None means T = S.
    The vjp sums h's gradient as the engine did, query term, then key,
    then value, and drops each saved array once its last reader has run.
    Besides the output, k and v are checked for non-finite values: softmax
    weighs a -inf logit 0, and a mask may let no query read a row.

    Below SPLIT_MIN input values, or at B = 1, output and every gradient
    are bit-identical to that composition of the ops.  From SPLIT_MIN
    values, sequences [0, ceil(B/2)) and the rest run as two halves,
    forward and vjp, the first on the worker of ``_split_pool`` if there
    is one.  Output and x's gradient are the halves' joined, and each
    tensor's gradient is the first half's plus the second's, so its float
    sums are reordered: within rtol 1e-12 of the composition under the
    SkylakeX and Sandybridge OpenBLAS kernels, not under Haswell, Nehalem
    or Prescott, whose ``x @ w`` rounds a row by the matmul's row count.
    Whether the worker runs changes no byte."""
    ps = _block_tensors(blk)
    arrays = [p.data for p in ps]
    allow = np.asarray(allow, dtype=bool)
    n, d = x.data.shape
    if allow.ndim != 3 or allow.shape[1] != allow.shape[2] or (
            n != allow.shape[0] * allow.shape[1]):
        raise ValueError("block wants a B x S x S mask and B*S rows of x")
    bsz, s, _ = allow.shape
    t = s if window is None else window
    if not 0 <= t <= s:
        raise ValueError(f"window of {t} rows outside a sequence of {s}")
    if heads < 1 or d % heads:
        raise ValueError("block width must be divisible by the heads")
    f, vec, mat = blk["w_up"].data.shape[-1], (d,), (d, d)
    if [a.shape for a in arrays] != [vec, vec, mat, vec, mat, mat, vec, mat,
                                     vec, vec, vec, (d, f), (f,), (f, d), vec]:
        raise ValueError(f"block tensors must fit a width of {d}")
    if bsz == 1 or x.data.size < SPLIT_MIN:
        out, saved = _block_forward(x.data, arrays, allow, heads, t)
        return _from_op(out, (x,) + ps, lambda g: _block_vjp(
            g, saved, arrays, _wants(x, *ps)))
    m = (bsz + 1) // 2
    (out0, saved0), (out1, saved1) = _in_halves(
        _block_forward, (x.data[:m * s], arrays, allow[:m], heads, t),
        (x.data[m * s:], arrays, allow[m:], heads, t))

    def vjp(g):
        wants = _wants(x, *ps)
        a, b = _in_halves(_block_vjp, (g[:m * t], saved0, arrays, wants),
                          (g[m * t:], saved1, arrays, wants))
        dx = None if a[0] is None else np.concatenate((a[0], b[0]))
        return (dx, *(None if ga is None else ga + gb
                      for ga, gb in zip(a[1:], b[1:])))

    return _from_op(np.concatenate((out0, out1)), (x,) + ps, vjp)


# gradient checking --------------------------------------------------


def fd_check(f, params, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference grads.

    ``f`` rebuilds the scalar loss from scratch on every call; the finite
    differences never touch the reverse-mode machinery being checked.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    for p in params:
        p.zero_grad()
    f().backward()
    analytic = [np.array(p.grad) if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f().data)
            flat[i] = orig - eps
            fm = float(f().data)
            flat[i] = orig
            if not (math.isfinite(fp) and math.isfinite(fm)):
                raise NonFiniteError("non-finite loss at perturbed point")
            gfd = (fp - fm) / (2.0 * eps)
            err = abs(gflat[i] - gfd) / max(1.0, abs(gflat[i]), abs(gfd))
            worst = max(worst, err)
    return worst
