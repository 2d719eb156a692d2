"""Whitelist connectivity evaluation over NetworkPolicy objects.

Real-cluster semantics: if no policy of a given direction selects a
pod, that direction is unrestricted; as soon as one does, only flows
matched by some selecting policy's rules pass. A flow is allowed only
if both the destination's ingress side and the source's egress side
permit it.

``connectivity_check`` merges a policy store into allow sets: per
direction, each selected service maps to the peers some rule admits on
the flow's server port. Each policy's contribution to them is one of its
views in the store (``PolicyStore.view``), compiled once, so a verdict
after a write compiles only the policy written. Pods carry only the
``app`` label, so every selector becomes a set of services in one pass
over its keys, and each candidate flow is then two set lookups (the
allow-matrix idea of Kano, Li et al. 2019).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .model import SERVICE_PORTS, SERVICES, PolicyStore, expected_flows, flow_universe

_FLOWS = frozenset(flow_universe())
_EXPECTED = frozenset(expected_flows())

_ALL = frozenset(SERVICES)
_SERVERS = frozenset(SERVICE_PORTS)
_FLOWS_TO = {dst: {src: (src, dst, port) for src, d, port in sorted(_FLOWS) if d == dst}
             for dst in sorted(_SERVERS)}  # dst -> {src: its flow}


def _selected(selector: dict) -> frozenset:
    """The services whose pod (labelled only ``app: <service>``) ``selector`` matches."""
    chosen = _ALL  # an empty selector matches every pod in the namespace
    for key, value in (selector.get("matchLabels", {}) if selector else {}).items():
        if key == "app":
            chosen &= {value} if isinstance(value, str) else set()
        elif value is not None:  # the pod lacks the label, which only None equals
            return frozenset()
    return chosen


def _peers(peers) -> frozenset:
    if not peers:
        return _ALL  # a rule without peers matches all sources/destinations
    return frozenset().union(*(_selected(p.get("podSelector", {})) for p in peers))


def _ports_match(ports, port: int) -> bool:
    if not ports:
        return True
    return any(p.get("port") == port for p in ports)


def _contribution(policy: dict, direction: str) -> dict:
    """Selected service -> the peers ``policy``'s ``direction`` rules admit on the server's port.

    Empty unless the policy is of that direction; then every service it
    selects is present, possibly with no peers.
    """
    policy_type, peer_key = ("Ingress", "from") if direction == "ingress" else ("Egress", "to")
    spec = policy["spec"]
    if policy_type not in spec.get("policyTypes", []):
        return {}
    selected = _selected(spec.get("podSelector", {}))
    allow = {service: set() for service in selected}
    for rule in spec.get(direction) or []:
        peers, ports = _peers(rule.get(peer_key)), rule.get("ports")
        if direction == "ingress":
            for service in selected & _SERVERS:
                if _ports_match(ports, SERVICE_PORTS[service]):
                    allow[service] |= peers
        else:
            admitted = {peer for peer in peers & _SERVERS
                        if _ports_match(ports, SERVICE_PORTS[peer])}
            for service in selected:
                allow[service] |= admitted
    return {service: frozenset(peers) for service, peers in allow.items()}


def _compiled(name: str, policy: dict) -> tuple[dict, dict]:
    """A stored policy's view: its ingress and its egress contribution."""
    return _contribution(policy, "ingress"), _contribution(policy, "egress")


def _allow_sets(policies: PolicyStore) -> tuple[dict, dict]:
    """Per direction, selected service -> the peers its rules admit on the server's port.

    A service is absent when no policy of that direction selects it, and
    present (possibly with no peers) as soon as one does.
    """
    allow = {}, {}
    for name in policies:
        for merged, contribution in zip(allow, policies.view(name, _compiled)):
            for service, peers in contribution.items():
                merged[service] = merged[service] | peers if service in merged else peers
    return allow


@dataclass
class MismatchReport:
    """Flows whose actual connectivity disagrees with the expected graph."""

    mismatches: list  # (src, dst, port, expected, actual), sorted

    @property
    def clean(self) -> bool:
        return not self.mismatches

    @property
    def total(self) -> int:
        return len(_FLOWS)

    @property
    def received(self) -> int:
        """The number of conforming flows."""
        return len(_FLOWS) - len(self.mismatches)

    def lost(self, after: MismatchReport) -> bool:
        """Whether a flow conforming here does not conform in ``after``."""
        mismatched = {flow[:3] for flow in self.mismatches}
        return any(flow[:3] not in mismatched for flow in after.mismatches)

    @cached_property
    def good(self) -> frozenset:
        """The conforming flows."""
        return _FLOWS - {(src, dst, port) for src, dst, port, _, _ in self.mismatches}

    def render(self) -> str:
        if self.clean:
            return "All flows match the expected service graph."
        lines = [f"{len(self.mismatches)} mismatched flows:"]
        for src, dst, port, exp, act in self.mismatches:
            lines.append(f"{src} -> {dst}:{port} "
                         f"(Expected: {_word(exp)}, Actual: {_word(act)})")
        return "\n".join(lines)


def _word(allowed: bool) -> str:
    return "allowed" if allowed else "blocked"


def connectivity_check(policies: PolicyStore) -> MismatchReport:
    ingress, egress = _allow_sets(policies)
    actual = set()
    for dst, flows in _FLOWS_TO.items():
        callers = ingress.get(dst)
        for src in flows if callers is None else callers & flows.keys():
            if dst in egress.get(src, _ALL):
                actual.add(flows[src])
    return MismatchReport(mismatches=sorted(
        (*flow, flow in _EXPECTED, flow in actual) for flow in actual ^ _EXPECTED))
