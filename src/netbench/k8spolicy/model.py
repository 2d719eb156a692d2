"""Cluster model for the network-policy troubleshooting application.

A fixed twelve-service microservice shop runs in the ``default``
namespace, one pod per service labeled ``app: <service>``. The expected
service graph (who may call whom, on which port) is the correctness
target; connectivity is governed purely by NetworkPolicy objects held
as plain dicts, as they were written, in a ``PolicyStore``. The healthy
baseline is thirteen policies: one ingress whitelist per service plus a
cluster-wide default-deny.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections.abc import Mapping

import yaml

from ..digest import canonical_json

NAMESPACE = "default"
API_VERSION = "networking.k8s.io/v1"

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

# distinct documents; a batch's episodes show a few hundred. A store computes each policy's
# YAML once, as a view (``kubectl._yaml``); this memo under it spares the dump (about 1 ms
# cold) to every store that holds an equal policy, and to a store listed as YAML
_YAML_CACHE_SIZE = 1024


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


def policy_yaml(policy: dict) -> str:
    """A stored policy, or a List of them, as YAML, dumped once per distinct document.

    The key is the document's JSON text with sorted keys, which is exact:
    ``json.loads`` gives back the very document, so no two documents share
    a key. Strings are written as they are, not as ``\\u`` escapes, which
    would read a surrogate pair held as two code points back as one.
    """
    return _yaml_of(json.dumps(policy, sort_keys=True, separators=(",", ":"),
                               ensure_ascii=False))


@functools.lru_cache(maxsize=_YAML_CACHE_SIZE)
def _yaml_of(text: str) -> str:
    # a fresh json.loads tree shares no node, so the dump has no anchors
    return yaml.safe_dump(json.loads(text), sort_keys=True, default_flow_style=False)


def _policy(name: str, spec: dict) -> dict:
    return {
        "apiVersion": API_VERSION,
        "kind": "NetworkPolicy",
        "metadata": {"name": name, "namespace": NAMESPACE},
        "spec": spec,
    }


def baseline_ingress(service: str) -> list:
    """The healthy ingress of a serving ``service``: its expected callers, on its port."""
    return [{
        "from": [{"podSelector": {"matchLabels": {"app": caller}}}
                 for caller in EXPECTED_CALLERS[service]],
        "ports": [{"port": SERVICE_PORTS[service], "protocol": "TCP"}],
    }]


class PolicyStore(Mapping):
    """Policy name -> policy dict, and a value: nothing changes it, the ``policies`` dict it
    keeps or a policy in it after ``PolicyStore(policies)``, so stores and policies may be
    shared. A write builds a new store (``written``, ``without``). A policy is stored as
    written: nothing reads its key order, as digests, YAML and its cache key sort keys
    themselves, and it may share the subtrees a patch left unchanged with its parent's policy
    and the nodes a manifest aliased, since nothing writes them.

    Each stored policy carries its views (``view``): values computed from the name and policy
    alone, once, on first use. A written store shares the views of every policy it keeps
    from its parent, and a policy that is the baseline's very object shares the baseline's,
    so a write leaves one policy's views to compute. The views live in the stores that hold
    the policy, and no longer.
    """

    def __init__(self, policies: dict, views: dict | None = None):
        self.policies = policies
        # name -> {view function: its value}; one dict per policy, shared by the stores that
        # hold that policy under that name
        self._views = {name: {} for name in policies} if views is None else views

    def __getitem__(self, name):
        return self.policies[name]

    def __iter__(self):
        return iter(self.policies)

    def __len__(self):
        return len(self.policies)

    def view(self, name, of):
        """``of(name, policy)`` for the policy stored as ``name``, computed once per policy.
        A view is pure, so threads sharing a store (the baseline) may both compute it."""
        views = self._views[name]
        if of not in views:
            views[of] = of(name, self.policies[name])
        return views[of]

    def written(self, name: str, policy: dict) -> "PolicyStore":
        """This store with ``policy`` stored as ``name``."""
        baseline = default_policies()
        views = baseline._views[name] if baseline.policies.get(name) is policy else {}
        return PolicyStore({**self.policies, name: policy}, {**self._views, name: views})

    def without(self, name: str) -> "PolicyStore":
        """This store less the policy stored as ``name``."""
        return PolicyStore({n: p for n, p in self.policies.items() if n != name},
                           {n: v for n, v in self._views.items() if n != name})


@functools.cache
def default_policies() -> PolicyStore:
    """The healthy baseline: name -> policy dict, built once per process.

    Every caller shares the one store and the views of its policies.
    Per-service policies whitelist ingress only; egress stays unrestricted so
    that a misconfigured egress section is a distinct, observable fault class.
    The catch-all default-deny guarantees that unselected pods accept no
    ingress.
    """
    baseline = {}
    for name in sorted(SERVICES):
        baseline[name] = _policy(name, {
            "podSelector": {"matchLabels": {"app": name}},
            "policyTypes": ["Ingress"],
            # loadgenerator is a pure client: nothing may call it
            "ingress": [] if name == "loadgenerator" else baseline_ingress(name),
        })
    baseline[DEFAULT_DENY] = _policy(DEFAULT_DENY, {
        "podSelector": {},
        "policyTypes": ["Ingress"],
        "ingress": [],
    })
    return PolicyStore(baseline)


def _fragment(name: str, policy: dict) -> str:
    """A stored policy's canonical JSON text as a member of its store's: ``"name":{...}``."""
    return canonical_json({name: policy})[1:-1]


def cluster_digest(policies: PolicyStore) -> str:
    """The SHA-256 of ``canonical_json(policies)``, spliced from the store's fragments in name
    order, which is the order ``canonical_json`` sorts them in."""
    text = "{%s}" % ",".join([policies.view(name, _fragment) for name in sorted(policies)])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
