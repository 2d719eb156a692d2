"""Batch query generation and environment construction.

Each application is one entry of ``REGISTRY``; nothing else here names
an app.

Per-query seeds are derived from the master seed and the query index,
so a batch is reproducible as a whole and every query is reproducible
on its own. Batches serialize to JSONL in canonical form: regenerating
with the same configuration yields byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..cp.env import CpEnvironment
from ..cp.generate import generate_cp_query
from ..cp.sft import export_sft_records
from ..cp.topology import DESK_SCALE, generate_synthetic_topology
from ..digest import canonical_json, read_jsonl
from ..errors import UnknownApp
from ..k8spolicy.env import K8sEnvironment
from ..k8spolicy.generate import generate_k8s_query
from ..routing.env import RoutingEnvironment
from ..routing.generate import generate_routing_query, sabotage
from ..seeds import derive_seed
from .types import BenchmarkConfig, GroundTruth, QuerySpec

# index reserved for deriving the shared capacity-planning base topology;
# query seeds use indices starting at 0
_CP_BASE_INDEX = 0xFFFF_FFFF_0000_0001


def cp_base_graph(config: BenchmarkConfig):
    """The one synthetic topology all queries of a cp batch run against. Its digest is
    computed here, with the JSON fragments that the digest of every graph written from it
    splices: a view of the batch, built once, so no query or turn pays for being the first
    to digest a written graph."""
    base = generate_synthetic_topology(DESK_SCALE, seed=derive_seed(config.seed, _CP_BASE_INDEX))
    base.state_digest()
    return base


@dataclass(frozen=True)
class App:
    """How the framework generates, runs and probes one application.

    The callables name the generators and environment classes as globals
    of this module, looked up at call time, so that code which rebinds
    those names (tracing, host sampling) sees every call.
    """

    context: Callable  # config -> the input shared by a whole batch
    generate: Callable  # (context, level, seed) -> (QuerySpec, GroundTruth)
    environment: Callable  # (context, truth, safety_rule) -> environment
    probes: tuple = ()  # the random agent's read-only commands; none: it answers at once
    probe_machine: str | None = None  # where the probes run
    sabotage: Callable | None = None  # truth -> (break, undo) writes; none: no adversarial
    export_sft: Callable | None = None  # (pairs, path) -> records written; none: no --sft


REGISTRY = {
    "cp": App(
        context=lambda config: cp_base_graph(config),
        generate=lambda base, level, seed: generate_cp_query(base, level, seed),
        environment=lambda base, truth, rule: CpEnvironment(base, truth),
        export_sft=export_sft_records),
    "routing": App(
        context=lambda config: None,
        generate=lambda _, level, seed: generate_routing_query(level, seed),
        environment=lambda _, truth, rule: RoutingEnvironment(truth, safety_rule=rule),
        probes=("ip route", "ip addr", "ip link", "ifconfig", "iptables -L",
                "sysctl net.ipv4.ip_forward", "ip rule", "tc qdisc show"),
        sabotage=sabotage),
    "k8s": App(
        context=lambda config: None,
        generate=lambda _, level, seed: generate_k8s_query(level, seed),
        environment=lambda _, truth, rule: K8sEnvironment(truth, safety_rule=rule),
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


def apps_with(field: str) -> str:
    """The names of the apps whose ``field`` is set, for error messages."""
    return ", ".join(name for name, app in REGISTRY.items() if getattr(app, field) is not None)


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


def make_environment(config: BenchmarkConfig, truth: GroundTruth, context=None):
    """The environment that replays ``truth``; ``context`` is the batch's shared
    input (``App.context``), computed from ``config`` when not given."""
    app = app_entry(config.app)
    context = app.context(config) if context is None else context
    return app.environment(context, truth, config.safety_rule)


def write_batch_jsonl(pairs, path) -> int:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for query, truth in pairs:
            fh.write(canonical_json({"query": query.to_json(),
                                     "truth": truth.to_json()}) + "\n")
    return len(pairs)


def _batch_pair(data) -> tuple:
    if set(data) != {"query", "truth"}:
        raise ValueError(f"a batch line holds exactly 'query' and 'truth', not {sorted(data)}")
    return QuerySpec.from_json(data["query"]), GroundTruth.from_json(data["truth"])


def read_batch_jsonl(path) -> list:
    return read_jsonl(path, _batch_pair)
