"""Spans timed from outside the library, by wrapping its public functions.

A wrapper replaces a function under every name its callers look it up by,
and restores the original when removed, so nothing in the library changes.
Spans are kept in flat arrays (name, start, end, parent span, operation id)
and aggregated when the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np


def lookup(owner, attr: str):
    """The function stored under ``owner.attr``; for a class, the plain
    function from its ``__dict__`` rather than a bound method."""
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, lookup(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


class Recorder:
    """In-memory span store plus the counts observed at layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records one span named ``name``.

        ``after(args, result)`` runs once the span has closed, so what it
        counts is not charged to the span itself.
        """
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter
        open_, start, end = self._open, self.start, self.end
        name_id, parent, op = self.name_id, self.parent, self.op

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(open_[-1] if open_ else -1)
            op.append(self.op_id)
            end.append(0.0)
            open_.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested],
                              minlength=dur.size)
        return dur - covered

    def totals(self, lo: int, hi: int):
        """Per span name over spans [lo, hi): calls, self seconds and total
        seconds.  Spans of one traced pass are contiguous, and their
        children fall inside the same range."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start))[lo:hi]
        own = self.self_times()[lo:hi]
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        self_s = np.bincount(ids, weights=own, minlength=n)
        total_s = np.bincount(ids, weights=dur, minlength=n)
        return {name: (int(calls[i]), float(self_s[i]), float(total_s[i]))
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))
