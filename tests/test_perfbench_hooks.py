"""The benchmark's hooks into the library still resolve.

perfbench/worker.py wraps library functions by (owner, attribute) and builds
its workloads through the config API; a rename or deletion in the library
breaks a traced benchmark run without failing anything else.
"""

import importlib
import sys
from pathlib import Path

import pytest

from latentalign import config, data, training, verify
from latentalign.training import Trainer

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def worker():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("worker")
    finally:
        sys.path.remove(PERFBENCH)


def test_every_span_site_resolves(worker):
    for name, sites in worker.SPANS.items():
        found = {id(worker.lookup(owner, attr)) for owner, attr in sites}
        assert len(found) == 1, f"{name}: its sites hold different functions"


def test_workload_configs_build(worker):
    for name in worker.WORKLOADS:
        cfg = worker.workload_config(name, 0)
        trainer = Trainer(config.bundle_from(cfg),
                          config.train_config_from(cfg))
        assert set(trainer.trainable) <= set(trainer.all_params)


def test_traced_spans_count_an_align_run(worker):
    """The traced benchmark's spans and after-hooks run against the library
    in-process: a short align run counts packed batches, their rows, mask
    cells and steps, the same counts the per-sequence mask builder gave,
    with one mask build per step; undoing the patches restores every
    wrapped function."""
    cfg = config.merge(worker.workload_config("align-d32", 0),
                       {"data": {"n": 16}})
    bundle = config.bundle_from(cfg)
    dataset = data.generate(cfg["data"]["seed"], cfg["data"]["n"],
                            bundle.grid, bundle.vocab)
    originals = {(id(owner), attr): worker.lookup(owner, attr)
                 for sites in worker.SPANS.values() for owner, attr in sites}
    patches, rec = worker.Patches(), worker.Recorder()
    worker.install_spans(patches, rec)
    try:
        training.run_stage(bundle, config.train_config_from(cfg), dataset)
    finally:
        patches.undo()
    assert {key: rec.counts[key] for key
            in ("seqs", "seq_tokens", "allowed", "cells", "steps")} == \
        {"seqs": 2, "seq_tokens": 400, "allowed": 5564, "cells": 10000,
         "steps": 2}
    calls = {name: n for name, (n, _, _) in rec.totals(0, len(rec)).items()}
    assert calls["attention.build_mask"] == calls["model.pack"] == 2
    assert all(worker.lookup(owner, attr) is originals[(id(owner), attr)]
               for sites in worker.SPANS.values() for owner, attr in sites)


def test_traced_spans_count_a_gradcheck_run(worker):
    """The traced gradcheck benchmark's spans run in-process: the batch is
    packed once for all of fd_check's evaluations, fd_check runs twice (the
    whole graph, then the latent head on a fixed tap), its after-hook
    counts the gradients, and undoing the patches restores every wrapped
    function."""
    originals = {(id(owner), attr): worker.lookup(owner, attr)
                 for sites in worker.SPANS.values() for owner, attr in sites}
    init = Trainer.__init__
    patches, rec = worker.Patches(), worker.Recorder()
    worker.install_spans(patches, rec)
    try:
        verify.run_gradcheck(distances=("smooth_l1",))
    finally:
        patches.undo()
    calls = {name: n for name, (n, _, _) in rec.totals(0, len(rec)).items()}
    assert calls["model.pack"] == rec.counts["seqs"] == 1
    assert calls["autodiff.fd_check"] == 2
    assert rec.counts["grad_useful"] > 0, "fd_check's after-hook did not run"
    assert all(worker.lookup(owner, attr) is originals[(id(owner), attr)]
               for sites in worker.SPANS.values() for owner, attr in sites)
    assert Trainer.__init__ is init
