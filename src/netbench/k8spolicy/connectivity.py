"""Whitelist connectivity evaluation over NetworkPolicy objects.

Real-cluster semantics: if no policy of a given direction selects a
pod, that direction is unrestricted; as soon as one does, only flows
matched by some selecting policy's rules pass. A flow is allowed only
if both the destination's ingress side and the source's egress side
permit it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .model import SERVICES, expected_flows, flow_universe


def _selects(selector: dict, service: str) -> bool:
    # empty selector matches every pod in the namespace
    labels = {"app": service}
    match = selector.get("matchLabels", {}) if selector else {}
    return all(labels.get(k) == v for k, v in match.items())


def _peer_matches(peers, service: str) -> bool:
    if not peers:
        return True  # a rule without peers matches all sources/destinations
    return any(_selects(p.get("podSelector", {}), service) for p in peers)


def _ports_match(ports, port: int) -> bool:
    if not ports:
        return True
    return any(p.get("port") == port for p in ports)


_DIRECTIONS = (("ingress", "Ingress"), ("egress", "Egress"))


def _index(policies: dict) -> dict:
    """(direction, service) -> the rules of every policy selecting it there.

    A key is absent when no policy of that direction selects the service,
    and present (possibly with no rules) as soon as one does.
    """
    index = {}
    for policy in policies.values():
        spec = policy["spec"]
        types = spec.get("policyTypes", [])
        for direction, policy_type in _DIRECTIONS:
            if policy_type not in types:
                continue
            rules = spec.get(direction) or []
            for service in SERVICES:
                if _selects(spec.get("podSelector", {}), service):
                    index.setdefault((direction, service), []).extend(rules)
    return index


def _direction_allows(index: dict, direction: str, selected: str, peer: str, port: int) -> bool:
    rules = index.get((direction, selected))
    if rules is None:
        return True  # nothing restricts this direction for this pod
    peer_key = "from" if direction == "ingress" else "to"
    return any(_peer_matches(rule.get(peer_key), peer) and _ports_match(rule.get("ports"), port)
               for rule in rules)


def _allowed(index: dict, src: str, dst: str, port: int) -> bool:
    return (_direction_allows(index, "ingress", dst, src, port)
            and _direction_allows(index, "egress", src, dst, port))


@dataclass
class MismatchReport:
    """Flows whose actual connectivity disagrees with the expected graph."""

    mismatches: list  # (src, dst, port, expected, actual), sorted

    @property
    def clean(self) -> bool:
        return not self.mismatches

    @cached_property
    def total(self) -> int:
        return len(flow_universe())

    @cached_property
    def good(self) -> frozenset:
        """The conforming flows: the set the step safety judge compares."""
        bad = {(src, dst, port) for src, dst, port, _, _ in self.mismatches}
        return frozenset(flow for flow in flow_universe() if flow not in bad)

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
    index = _index(policies)
    expected = set(expected_flows())
    mismatches = []
    for src, dst, port in flow_universe():
        exp = (src, dst, port) in expected
        act = _allowed(index, src, dst, port)
        if exp != act:
            mismatches.append((src, dst, port, exp, act))
    return MismatchReport(mismatches=sorted(mismatches))
