"""The benchmark's hooks into the library still resolve.

perfbench/worker.py wraps library functions by (owner, attribute) and builds
its workloads through the config API; a rename or deletion in the library
breaks a traced benchmark run without failing anything else.
"""

import importlib
import sys
from pathlib import Path

import pytest

from latentalign import config
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
