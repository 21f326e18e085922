"""Dense float64 tensors with reverse-mode automatic differentiation.

Every tensor op records its inputs and a vector-Jacobian product, so a
scalar loss can be back-propagated through arbitrary compositions.  All
arithmetic is 64-bit and deterministic; any op producing a NaN or Inf
raises immediately instead of propagating it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf


class NonFiniteError(ArithmeticError):
    """An op produced (or was fed) a NaN or Inf."""


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _check_finite(arr: np.ndarray, what: str = "tensor") -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite value in {what}")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape of a broadcast operand."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


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

    @property
    def size(self):
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Reverse-topological gradient accumulation from a scalar loss.

        Repeated calls without zeroing accumulate into existing grads.
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
        for node in reversed(topo):
            if node._vjp is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if parent.requires_grad and g is not None:
                    parent._accumulate(g)

    # operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __sub__(self, other):
        return add(self, -_lift(other))

    def __rsub__(self, other):
        return add(_lift(other), -self)

    def __truediv__(self, other):
        return mul(self, pow_const(_lift(other), -1.0))

    def __pow__(self, n):
        return pow_const(self, float(n))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _from_op(data: np.ndarray, parents: tuple, vjp) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._vjp = vjp
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
    data = a.data ** n
    _check_finite(data, "pow")
    return _from_op(data, (a,), lambda g: (g * n * a.data ** (n - 1.0),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data
    return _from_op(data, (a, b), lambda g: (
        g @ b.data.T if a.requires_grad else None,
        a.data.T @ g if b.requires_grad else None))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node, bit-identical to ``matmul`` then ``add``."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError("linear expects a 2-D input and weight")
    if x.data.shape[1] != w.data.shape[0] or b.data.shape != w.data.shape[1:]:
        raise ValueError(f"linear shape mismatch: {x.data.shape} @ "
                         f"{w.data.shape} + {b.data.shape}")
    data = x.data @ w.data + b.data
    return _from_op(data, (x, w, b), lambda g: (
        g @ w.data.T if x.requires_grad else None,
        x.data.T @ g if w.requires_grad else None,
        g.sum(axis=0) if b.requires_grad else None))


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


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-error formulation x * Phi(x)."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    data = x * cdf
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return _from_op(data, (a,), lambda g: (g * (cdf + x * pdf),))


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ValueError("layernorm gain/bias must match the last extent")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * gain.data + bias.data

    def vjp(g):
        dx = None
        if x.requires_grad:
            dxhat = g * gain.data
            dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        axes = tuple(range(g.ndim - 1))
        return (dx,
                (g * xhat).sum(axis=axes) if gain.requires_grad else None,
                g.sum(axis=axes) if bias.requires_grad else None)

    return _from_op(data, (x, gain, bias), vjp)


def _masked_softmax(logits: np.ndarray, allow: np.ndarray) -> np.ndarray:
    """Softmax over the last axis restricted to the columns ``allow``
    permits; denied columns get exactly 0.  ``allow`` may broadcast over
    leading axes of ``logits``.

    Equivalent to adding -inf to denied logits before normalizing, but
    implemented without materializing infinities in the result.
    """
    if not allow.any(axis=-1).all():
        raise ValueError("attention row with zero permitted columns")
    shifted = np.where(allow, logits, -np.inf)
    m = shifted.max(axis=-1, keepdims=True)
    e = np.exp(shifted - m)
    return e / e.sum(axis=-1, keepdims=True)


def _masked_softmax_vjp(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    inner = (g * y).sum(axis=-1, keepdims=True)
    return y * (g - inner)


def softmax_masked(logits: Tensor, allow: np.ndarray) -> Tensor:
    """Row softmax over permitted columns; denied columns get exactly 0."""
    allow = np.asarray(allow, dtype=bool)
    if allow.shape != logits.data.shape:
        raise ValueError("mask shape must match logits")
    y = _masked_softmax(logits.data, allow)
    return _from_op(y, (logits,), lambda g: (_masked_softmax_vjp(y, g),))


def attention(q: Tensor, k: Tensor, v: Tensor, allow: np.ndarray,
              heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over a batch of sequences
    padded to one length S, as one node.

    ``allow`` is B x S x S.  ``q``, ``k`` and ``v`` are (B*S) x d:
    sequence b owns rows ``b*S:(b+1)*S`` and head i columns
    ``i*dh:(i+1)*dh`` with ``dh = d // heads``.  Query row i of sequence b
    may read key row j of the same sequence only where ``allow[b, i, j]``;
    no row reads another sequence.  Per sequence it matches the per-head
    composition slice_cols / transpose / matmul / softmax_masked / matmul /
    concat to within rtol 1e-12 (float sums may be reassociated by BLAS).
    """
    allow = np.asarray(allow, dtype=bool)
    if allow.ndim != 3 or allow.shape[1] != allow.shape[2]:
        raise ValueError("mask shape must be B x S x S")
    bsz, s, _ = allow.shape
    n, d = q.data.shape
    if n != bsz * s:
        raise ValueError("attention rows must be B*S for a B x S x S mask")
    if k.data.shape != (n, d) or v.data.shape != (n, d):
        raise ValueError("attention q, k and v must share one shape")
    if heads < 1 or d % heads:
        raise ValueError("attention width must be divisible by the heads")
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    def split(a):       # (B*S) x d -> B x H x S x dh
        return a.reshape(bsz, s, heads, dh).transpose(0, 2, 1, 3)

    def merge(a):       # B x H x S x dh -> (B*S) x d
        return a.transpose(0, 2, 1, 3).reshape(n, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    # a contiguous K^T keeps QK^T bit-identical to the per-head composition
    kt = np.ascontiguousarray(kh.swapaxes(-1, -2))
    probs = _masked_softmax((qh @ kt) * scale, allow[:, None])
    data = merge(probs @ vh)

    def vjp(g):
        gh = split(g)
        gs = _masked_softmax_vjp(probs, gh @ vh.swapaxes(-1, -2)) * scale
        return (merge(gs @ kh) if q.requires_grad else None,
                merge(gs.swapaxes(-1, -2) @ qh) if k.requires_grad else None,
                merge(probs.swapaxes(-1, -2) @ gh) if v.requires_grad
                else None)

    return _from_op(data, (q, k, v), vjp)


def _row_weights(weights, n: int) -> np.ndarray:
    """Per-row loss weights; None gives every row 1/n, i.e. the mean."""
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError("one weight per row expected")
    return w


def cross_entropy(logits: Tensor, targets, weights=None) -> Tensor:
    """Weighted sum over rows of -log softmax(logits)[target]; the default
    weights make it the mean."""
    t = np.asarray(targets, dtype=np.int64)
    n, v = logits.data.shape
    if t.shape != (n,):
        raise ValueError("targets must have one id per logits row")
    if t.min(initial=0) < 0 or (t.size and t.max() >= v):
        raise ValueError("target id out of vocabulary range")
    w = _row_weights(weights, n)
    rows = logits.data
    m = rows.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(rows - m).sum(axis=-1))
    data = w @ (lse - rows[np.arange(n), t])

    def vjp(g):
        p = np.exp(rows - m)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(n), t] -= 1.0
        return (p * (float(g) * w)[:, None],)

    return _from_op(data, (logits,), vjp)


def smooth_l1(pred: Tensor, target: Tensor, weights=None) -> Tensor:
    """Weighted sum over rows of each row's mean Huber penalty, quadratic
    below unit error and linear above; the default weights make it the
    mean over every element."""
    if pred.data.shape != target.data.shape:
        raise ValueError("smooth_l1 operands must share a shape")
    e = pred.data - target.data
    n = e.shape[0]
    w = _row_weights(weights, n)
    a = np.abs(e)
    per = np.where(a < 1.0, 0.5 * e * e, a - 0.5).reshape(n, -1)
    data = w @ per.mean(axis=1)

    def vjp(g):
        row = (float(g) / per.shape[1]) * w
        ge = np.clip(e, -1.0, 1.0) * row.reshape((n,) + (1,) * (e.ndim - 1))
        return (ge if pred.requires_grad else None,
                -ge if target.requires_grad else None)

    return _from_op(data, (pred, target), vjp)


NORM_FLOOR = 1e-12


def cosine_distance(pred: Tensor, tgt: Tensor, weights=None) -> Tensor:
    """Weighted sum over rows of the negative cosine similarity between
    ``pred`` and ``tgt`` rows; the default weights make it the mean.  A row
    whose norm is below NORM_FLOOR raises NonFiniteError."""
    if pred.data.ndim != 2 or pred.data.shape != tgt.data.shape:
        raise ValueError("cosine_distance operands must share an n x d shape")
    p, t = pred.data, tgt.data
    w = _row_weights(weights, p.shape[0])
    norm_p = np.sqrt((p * p).sum(axis=1))
    norm_t = np.sqrt((t * t).sum(axis=1))
    if norm_p.min() < NORM_FLOOR or norm_t.min() < NORM_FLOOR:
        raise NonFiniteError("near-zero norm in cosine distance")
    inv = 1.0 / (norm_p * norm_t)
    cos = (p * t).sum(axis=1) * inv
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
    data = x.data[idx]

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _from_op(data, (x,), vjp)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    data = x.data[:, start:stop].copy()

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g
        return (gx,)

    return _from_op(data, (x,), vjp)


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    data = np.concatenate([p.data for p in parts], axis=axis)
    extents = [p.data.shape[axis] for p in parts]
    bounds = np.cumsum([0] + extents)

    def vjp(g):
        return tuple(np.take(g, np.arange(bounds[i], bounds[i + 1]), axis=axis)
                     if p.requires_grad else None
                     for i, p in enumerate(parts))

    return _from_op(data, tuple(parts), vjp)


# gradient checking --------------------------------------------------


def zero_grads(params) -> None:
    for p in params:
        p.zero_grad()


def fd_check(f, params, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference grads.

    ``f`` rebuilds the scalar loss from scratch on every call; the finite
    differences never touch the reverse-mode machinery being checked.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    zero_grads(params)
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
