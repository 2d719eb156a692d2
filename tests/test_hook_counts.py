"""How often each layer the benchmark hooks runs, on a small fixed workload per reactive app.

The benchmark in ``perfbench/`` counts a layer by rebinding its "module:qualname"
target wherever the program holds it: the module globals that bind the
function, or the class attribute. Code that keeps a hooked function in a
field taken at import bypasses that, and its calls read 0 there. So this
test counts through the benchmark's own ``resolve`` and
``patch_call_sites``, and pins the exact counts: a change that hides a call
from the hooks, or adds a verdict, a digest or a copy, fails here. The
benchmark's files are imported, never changed.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from netbench.agents import make_agent
from netbench.core.episode import run_episode
from netbench.core.generate import generate_batch, make_environment
from netbench.core.types import BenchmarkConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REACTIVE = ("netbench.routing.", "netbench.k8spolicy.")

# per app: the calls of each hooked target on a 6-query batch (levels 1-3, seed 5), each
# query played by ``oracle`` and by ``random`` under the strict rule; targets not listed
# read 0
PINNED = {
    "routing": {
        "netbench.routing.generate:generate_routing_query": 6,
        "netbench.routing.env:RoutingEnvironment.execute_message": 46,
        "netbench.routing.env:RoutingEnvironment.goal_reached": 46,
        "netbench.routing.env:RoutingEnvironment.is_correct": 12,
        "netbench.routing.state:build_topology": 18,
        "netbench.routing.pingall:pingall": 38,
        "netbench.routing.commands:exec_command": 34,
        "netbench.routing.state:NetState.copy": 50,
        "netbench.routing.state:NetState.state_digest": 12,
    },
    "k8s": {
        "netbench.k8spolicy.generate:generate_k8s_query": 6,
        "netbench.k8spolicy.env:K8sEnvironment.execute_message": 46,
        "netbench.k8spolicy.env:K8sEnvironment.goal_reached": 46,
        "netbench.k8spolicy.env:K8sEnvironment.is_correct": 12,
        "netbench.k8spolicy.connectivity:connectivity_check": 38,
        "netbench.k8spolicy.kubectl:exec_kubectl": 34,
        "netbench.k8spolicy.model:cluster_digest": 12,
    },
}


@pytest.fixture(scope="module")
def tracing():
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path[:] = saved


def _targets(tracing) -> list:
    return [t for _, targets, _ in tracing.WRAPS for t in targets if t.startswith(REACTIVE)]


def _counted(tracing, work) -> Counter:
    """Calls of each reactive target while ``work()`` runs, hooked as the benchmark hooks."""
    calls, undo = Counter(), []

    def wrapper(target, original):
        def counted(*args, **kwargs):
            calls[target] += 1
            return original(*args, **kwargs)
        return counted

    try:
        for target in _targets(tracing):
            owner, attr, original = tracing.resolve(target)
            undo.extend(tracing.patch_call_sites(owner, attr, original,
                                                 wrapper(target, original)))
        work()
    finally:
        tracing.restore(undo)
    return calls


def _workload(app: str):
    config = BenchmarkConfig(app=app, num_queries=6, levels=(1, 2, 3), seed=5)
    for query, truth in generate_batch(config):
        for agent in ("oracle", "random"):
            run_episode(make_environment(config, truth), make_agent(agent, query, truth), query)


def test_every_reactive_target_is_counted(tracing):
    assert all(tracing.resolve(t) is not None for t in _targets(tracing))
    assert set(_targets(tracing)) >= {t for pinned in PINNED.values() for t in pinned}


@pytest.mark.parametrize("app", sorted(PINNED))
def test_each_hooked_layer_runs_as_often_as_pinned(tracing, app):
    calls = _counted(tracing, lambda: _workload(app))
    assert {t: n for t, n in calls.items() if n} == PINNED[app]
