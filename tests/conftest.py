"""Fixtures shared by the test modules."""

import concurrent.futures

import pytest

from latentalign import autodiff

WAIT_S = 60.0   # a half that has not finished by then is taken as hung


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
    monkeypatch.setattr(autodiff, "_split_pool", lambda: pool)
    yield pool
    pool.shutdown()
