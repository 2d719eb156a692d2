"""Whitelist connectivity evaluation over NetworkPolicy objects.

Real-cluster semantics: if no policy of a given direction selects a
pod, that direction is unrestricted; as soon as one does, only flows
matched by some selecting policy's rules pass. A flow is allowed only
if both the destination's ingress side and the source's egress side
permit it.

``connectivity_check`` compiles a policy store once into allow sets:
per direction, each selected service maps to the peers some rule admits
on the flow's server port. Pods carry only the ``app`` label, so every
selector becomes a set of services in one pass over its keys, and each
candidate flow is then two set lookups (the allow-matrix idea of Kano,
Li et al. 2019).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .model import SERVICE_PORTS, SERVICES, expected_flows, flow_universe

_FLOWS = frozenset(flow_universe())
_EXPECTED = frozenset(expected_flows())

_ALL = frozenset(SERVICES)
_SERVERS = frozenset(SERVICE_PORTS)


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


def _allow_sets(policies: dict, direction: str) -> dict:
    """Selected service -> the peers its ``direction`` rules admit on the server's port.

    A service is absent when no policy of that direction selects it, and
    present (possibly with no peers) as soon as one does.
    """
    policy_type, peer_key = ("Ingress", "from") if direction == "ingress" else ("Egress", "to")
    allow = {}
    for policy in policies.values():
        spec = policy["spec"]
        if policy_type not in spec.get("policyTypes", []):
            continue
        selected = _selected(spec.get("podSelector", {}))
        for service in selected:
            allow.setdefault(service, set())
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

    @cached_property
    def good(self) -> frozenset:
        """The conforming flows: the set the step safety judge compares."""
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


def connectivity_check(policies: dict) -> MismatchReport:
    ingress = _allow_sets(policies, "ingress")
    egress = _allow_sets(policies, "egress")
    actual = {(src, dst, port) for src, dst, port in _FLOWS
              if src in ingress.get(dst, _ALL) and dst in egress.get(src, _ALL)}
    return MismatchReport(mismatches=sorted(
        (*flow, flow in _EXPECTED, flow in actual) for flow in actual ^ _EXPECTED))
