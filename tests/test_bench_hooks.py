"""The benchmark in ``perfbench/`` hooks program functions by "module:qualname".

A target that no longer resolves is only reported by the benchmark, and a
host-sampling target that moves silently drops its samples, so each one is
checked here. The benchmark's files are imported, never changed.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing"), importlib.import_module("run")
    finally:
        sys.path[:] = saved


def test_every_hook_target_resolves(bench):
    tracing, run = bench
    hooks = {
        "WRAPS": [t for _, targets, _ in tracing.WRAPS for t in targets],
        "key": [options["key"] for _, _, options in tracing.WRAPS if "key" in options],
        "HostClock.SAMPLED_AFTER": list(run.HostClock.SAMPLED_AFTER),
    }
    assert all(hooks.values())
    absent = {kind: [t for t in targets if tracing.resolve(t) is None]
              for kind, targets in hooks.items()}
    assert absent == {kind: [] for kind in hooks}
