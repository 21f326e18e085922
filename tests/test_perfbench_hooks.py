"""The benchmark's hooks into the library still resolve.

perfbench/worker.py wraps library functions by (owner, attribute) and builds
its workloads through the config API; a rename or deletion in the library
breaks a traced benchmark run without failing anything else.
"""

import importlib
import sys
from pathlib import Path

import pytest

from latentalign import config, data, training
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
    in-process: a short align run counts packed sequences, mask cells and
    steps, and undoing the patches restores every wrapped function."""
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
    for key in ("seqs", "allowed", "steps"):
        assert rec.counts[key] > 0, key
    assert rec.counts["steps"] == 2
    assert all(worker.lookup(owner, attr) is originals[(id(owner), attr)]
               for sites in worker.SPANS.values() for owner, attr in sites)
