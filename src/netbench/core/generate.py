"""Batch query generation and environment construction.

Each application is one entry of ``REGISTRY``; nothing else here names
an app.

Per-query seeds are derived from the master seed and the query index,
so a batch is reproducible as a whole and every query is reproducible
on its own. Batches serialize to JSONL in canonical form: regenerating
with the same configuration yields byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..cp.env import CpEnvironment
from ..cp.generate import generate_cp_query
from ..cp.topology import DESK_SCALE, generate_synthetic_topology
from ..digest import canonical_json
from ..errors import UnknownApp
from ..k8spolicy.env import K8sEnvironment
from ..k8spolicy.generate import generate_k8s_query
from ..routing.env import RoutingEnvironment
from ..routing.generate import generate_routing_query
from ..seeds import derive_seed
from .types import BenchmarkConfig, GroundTruth, QuerySpec

# index reserved for deriving the shared capacity-planning base topology;
# query seeds use indices starting at 0
_CP_BASE_INDEX = 0xFFFF_FFFF_0000_0001


def cp_base_graph(config: BenchmarkConfig):
    """The one synthetic topology all queries of a cp batch run against."""
    return generate_synthetic_topology(DESK_SCALE, seed=derive_seed(config.seed, _CP_BASE_INDEX))


@dataclass(frozen=True)
class App:
    """How the framework generates, runs and probes one application.

    The callables name the generators and environment classes as globals
    of this module, looked up at call time, so that code which rebinds
    those names (tracing, host sampling) sees every call.
    """

    context: Callable  # config -> the input shared by a whole batch
    generate: Callable  # (context, level, seed) -> (QuerySpec, GroundTruth)
    environment: Callable  # (context, query, truth, safety_rule) -> environment
    probes: tuple = ()  # the random agent's read-only commands; none: it answers at once
    probe_machine: str | None = None  # where the probes run


REGISTRY = {
    "cp": App(
        context=lambda config: cp_base_graph(config),
        generate=lambda base, level, seed: generate_cp_query(base, level, seed),
        environment=lambda base, query, truth, rule: CpEnvironment(
            base, query, truth, safety_rule=rule)),
    "routing": App(
        context=lambda config: None,
        generate=lambda _, level, seed: generate_routing_query(level, seed),
        environment=lambda _, query, truth, rule: RoutingEnvironment(
            query, truth, safety_rule=rule),
        probes=("ip route", "ip addr", "ip link", "ifconfig", "iptables -L",
                "sysctl net.ipv4.ip_forward", "ip rule", "tc qdisc show")),
    "k8s": App(
        context=lambda config: None,
        generate=lambda _, level, seed: generate_k8s_query(level, seed),
        environment=lambda _, query, truth, rule: K8sEnvironment(
            query, truth, safety_rule=rule),
        probes=("kubectl get networkpolicies",
                "kubectl describe networkpolicy frontend",
                "kubectl get networkpolicy default-deny -o yaml",
                "kubectl describe networkpolicy cartservice"),
        probe_machine="master"),
}


def app_entry(app: str) -> App:
    try:
        return REGISTRY[app]
    except KeyError:
        raise UnknownApp(app) from None


def generate_batch(config: BenchmarkConfig) -> list:
    """Generate ``config.num_queries`` (QuerySpec, GroundTruth) pairs.

    Levels are assigned round-robin so every requested level gets an
    equal share (up to remainder).
    """
    app = app_entry(config.app)
    context = app.context(config)
    pairs = []
    for index in range(config.num_queries):
        level = config.levels[index % len(config.levels)]
        pairs.append(app.generate(context, level, derive_seed(config.seed, index)))
    return pairs


def make_environment(config: BenchmarkConfig, query: QuerySpec, truth: GroundTruth,
                     base_graph=None):
    """The query's environment; ``base_graph`` is the batch's shared
    context (``App.context``), computed from ``config`` when not given."""
    app = app_entry(config.app)
    context = app.context(config) if base_graph is None else base_graph
    return app.environment(context, query, truth, config.safety_rule)


def write_batch_jsonl(pairs, path) -> int:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for query, truth in pairs:
            fh.write(canonical_json({"query": query.to_json(),
                                     "truth": truth.to_json()}) + "\n")
    return len(pairs)


def read_batch_jsonl(path) -> list:
    pairs = []
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            pairs.append((QuerySpec.from_json(data["query"]),
                          GroundTruth.from_json(data["truth"])))
    return pairs
