"""Fixtures and helpers shared by the test modules."""

import concurrent.futures

import pytest

from latentalign import autodiff as ad

WAIT_S = 60.0   # a half that has not finished by then is taken as hung


def attention_node(q, k, v, allow, heads):
    """Multi-head attention as one node, over the array helpers that
    ``autodiff.block`` runs, so the tests can check their arithmetic
    alone.  ``allow`` is B x Sq x S, q (B*Sq) x d, k and v (B*S) x d:
    query row i of sequence b reads key row j of the same sequence only
    where ``allow[b, i, j]``, and head i owns columns i*dh:(i+1)*dh."""
    data, probs = ad._attention(q.data, k.data, v.data, allow, heads)
    return ad._from_op(data, (q, k, v), lambda g: tuple(
        grad if want else None for grad, want in zip(
            ad._attention_vjp(g, q.data, k.data, v.data, probs),
            ad._wants(q, k, v))))


def skewed_identity(x):
    """Identity whose vjp is 1% off: a fault a gradient check must catch."""
    return ad._from_op(x.data, (x,), lambda g: (1.01 * g,))


class LivePool:
    """A one-worker pool that stands in for ``autodiff._split_pool()``'s on
    any host.  It counts the halves handed to it, and a wait for one gives
    up after WAIT_S seconds instead of hanging the test."""

    def __init__(self):
        self._pool = concurrent.futures.ThreadPoolExecutor(1)
        self.submits = 0

    def submit(self, fn, *args):
        self.submits += 1
        return _Waited(self._pool.submit(fn, *args))

    def shutdown(self):
        self._pool.shutdown(wait=False, cancel_futures=True)


class _Waited:
    def __init__(self, future):
        self._future = future

    def result(self):
        return self._future.result(timeout=WAIT_S)


@pytest.fixture
def live_pool(monkeypatch):
    """Split blocks run their first half on a LivePool's worker."""
    pool = LivePool()
    monkeypatch.setattr(ad, "_split_pool", lambda: pool)
    yield pool
    pool.shutdown()
