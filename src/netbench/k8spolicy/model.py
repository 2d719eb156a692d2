"""Cluster model for the network-policy troubleshooting application.

A fixed twelve-service microservice shop runs in the ``default``
namespace, one pod per service labeled ``app: <service>``. The expected
service graph (who may call whom, on which port) is the correctness
target; connectivity is governed purely by NetworkPolicy objects held
as plain dicts in canonical form. The healthy baseline is thirteen
policies: one ingress whitelist per service plus a cluster-wide
default-deny.
"""

from __future__ import annotations

import yaml

from ..digest import digest

NAMESPACE = "default"

# service -> serving port (loadgenerator is a pure client)
SERVICE_PORTS = {
    "adservice": 9555,
    "cartservice": 7070,
    "checkoutservice": 5050,
    "currencyservice": 7000,
    "emailservice": 5000,
    "frontend": 8080,
    "paymentservice": 50051,
    "productcatalogservice": 3550,
    "recommendationservice": 8080,
    "redis-cart": 6379,
    "shippingservice": 50051,
}

SERVICES = tuple(sorted([*SERVICE_PORTS, "loadgenerator"]))

# expected caller graph: dst -> sorted callers
EXPECTED_CALLERS = {
    "adservice": ("frontend",),
    "cartservice": ("checkoutservice", "frontend"),
    "checkoutservice": ("frontend",),
    "currencyservice": ("checkoutservice", "frontend"),
    "emailservice": ("checkoutservice",),
    "frontend": ("loadgenerator",),
    "paymentservice": ("checkoutservice",),
    "productcatalogservice": ("checkoutservice", "frontend", "recommendationservice"),
    "recommendationservice": ("frontend",),
    "redis-cart": ("cartservice",),
    "shippingservice": ("checkoutservice", "frontend"),
}

DEFAULT_DENY = "default-deny"


def expected_flows() -> list:
    """All (src, dst, port) triples the application requires."""
    flows = []
    for dst, callers in EXPECTED_CALLERS.items():
        for src in callers:
            flows.append((src, dst, SERVICE_PORTS[dst]))
    return sorted(flows)


def flow_universe() -> list:
    """Every candidate (src, dst, port): any service toward any server port."""
    return sorted((src, dst, SERVICE_PORTS[dst])
                  for src in SERVICES for dst in SERVICE_PORTS if src != dst)


def _canon(obj):
    if isinstance(obj, dict):
        return {k: _canon(obj[k]) for k in sorted(obj)}
    if isinstance(obj, list):
        return [_canon(v) for v in obj]
    return obj


def canonical_policy(policy: dict) -> dict:
    """Deep-sorted copy; the unit of state comparison and digesting."""
    return _canon(policy)


def policy_yaml(policy: dict) -> str:
    return yaml.safe_dump(canonical_policy(policy), sort_keys=True, default_flow_style=False)


def _policy(name: str, spec: dict) -> dict:
    return canonical_policy({
        "apiVersion": "networking.k8s.io/v1",
        "kind": "NetworkPolicy",
        "metadata": {"name": name, "namespace": NAMESPACE},
        "spec": spec,
    })


def default_policies() -> dict:
    """The healthy baseline: name -> policy dict.

    Per-service policies whitelist ingress only; egress stays
    unrestricted so that a misconfigured egress section is a distinct,
    observable fault class. The catch-all default-deny guarantees that
    unselected pods accept no ingress.
    """
    policies = {}
    for name in sorted(SERVICES):
        if name == "loadgenerator":
            # pure client: nothing may call it
            ingress = []
        else:
            ingress = [{
                "from": [{"podSelector": {"matchLabels": {"app": caller}}}
                         for caller in EXPECTED_CALLERS[name]],
                "ports": [{"port": SERVICE_PORTS[name], "protocol": "TCP"}],
            }]
        policies[name] = _policy(name, {
            "podSelector": {"matchLabels": {"app": name}},
            "policyTypes": ["Ingress"],
            "ingress": ingress,
        })
    policies[DEFAULT_DENY] = _policy(DEFAULT_DENY, {
        "podSelector": {},
        "policyTypes": ["Ingress"],
        "ingress": [],
    })
    return policies


def cluster_digest(policies: dict) -> str:
    # canonical_json sorts keys at every depth, which is all canonical_policy does
    return digest(policies)
