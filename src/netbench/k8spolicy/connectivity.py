"""Whitelist connectivity evaluation over NetworkPolicy objects.

Real-cluster semantics: if no policy of a given direction selects a
pod, that direction is unrestricted; as soon as one does, only flows
matched by some selecting policy's rules pass. A flow is allowed only
if both the destination's ingress side and the source's egress side
permit it.

Each service is one bit of an int mask (the allow-matrix idea of Kano,
Li et al. 2019). Pods carry only the ``app`` label, so every selector
becomes a mask in one pass over its keys. Each policy compiles once, to
a view in the store (``PolicyStore.view``): per direction, the services
it selects and, per server, a mask of who it admits on the server's
port, the callers on ingress and, transposed, the selected sources on
egress. So a verdict after a write compiles only the policy written,
ORs the views, and finds each server's mismatched callers in a few mask
operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

from .model import SERVICE_PORTS, SERVICES, PolicyStore, expected_flows, flow_universe

_FLOWS = frozenset(flow_universe())

_BIT = {service: 1 << i for i, service in enumerate(SERVICES)}
_ALL = (1 << len(SERVICES)) - 1
_PORTS = tuple((i, SERVICE_PORTS[s]) for i, s in enumerate(SERVICES) if s in SERVICE_PORTS)
# per server: (name, port, bit position, callers but itself, expected callers)
_SERVERS = tuple((SERVICES[i], port, i, _ALL & ~(1 << i),
                  sum(_BIT[src] for src, dst, _ in expected_flows() if dst == SERVICES[i]))
                 for i, port in _PORTS)


def _selected(selector: dict) -> int:
    """The services whose pod (labelled only ``app: <service>``) ``selector`` matches."""
    chosen = _ALL  # an empty selector matches every pod in the namespace
    for key, value in (selector.get("matchLabels", {}) if selector else {}).items():
        if key == "app":
            chosen &= _BIT.get(value, 0) if isinstance(value, str) else 0
        elif value is not None:  # the pod lacks the label, which only None equals
            return 0
    return chosen


def _peers(peers) -> int:
    if not peers:
        return _ALL  # a rule without peers matches all sources/destinations
    return reduce(or_, (_selected(p.get("podSelector", {})) for p in peers))


def _ports_match(ports, port: int) -> bool:
    if not ports:
        return True
    return any(p.get("port") == port for p in ports)


def _contribution(policy: dict, direction: str) -> tuple[int, tuple]:
    """(selected, ((server bit index, admitted), ...)) of ``policy``'s ``direction`` rules.

    On ingress, admitted are the callers a rule lets into a selected
    server on its port; on egress, the selected sources a rule lets out
    to the server on its port. Servers with none are left out, and a
    policy not of that direction selects nothing.
    """
    policy_type, peer_key = ("Ingress", "from") if direction == "ingress" else ("Egress", "to")
    spec = policy["spec"]
    if policy_type not in spec.get("policyTypes", []):
        return 0, ()
    selected = _selected(spec.get("podSelector", {}))
    admitted = [0] * len(SERVICES)
    for rule in spec.get(direction) or []:
        peers, ports = _peers(rule.get(peer_key)), rule.get("ports")
        servers, sources = (selected, peers) if direction == "ingress" else (peers, selected)
        for i, port in _PORTS:
            if servers >> i & 1 and _ports_match(ports, port):
                admitted[i] |= sources
    return selected, tuple((i, mask) for i, mask in enumerate(admitted) if mask)


def _compiled(name: str, policy: dict) -> tuple[tuple, tuple]:
    """A stored policy's view: its ingress and its egress contribution."""
    return _contribution(policy, "ingress"), _contribution(policy, "egress")


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
    ingress_selected = egress_selected = 0
    ingress, egress = [0] * len(SERVICES), [0] * len(SERVICES)  # admitted, by server bit
    for name in policies:
        (selected_in, admitted_in), (selected_out, admitted_out) = policies.view(name, _compiled)
        ingress_selected |= selected_in
        egress_selected |= selected_out
        for i, mask in admitted_in:
            ingress[i] |= mask
        for i, mask in admitted_out:
            egress[i] |= mask
    mismatches = []
    for dst, port, i, callers, expected in _SERVERS:
        actual = callers & (ingress[i] if ingress_selected >> i & 1 else _ALL) \
            & (~egress_selected | egress[i])
        wrong = actual ^ expected
        while wrong:
            low = wrong & -wrong
            allowed = bool(actual & low)
            mismatches.append((SERVICES[low.bit_length() - 1], dst, port, not allowed, allowed))
            wrong ^= low
    mismatches.sort()
    return MismatchReport(mismatches=mismatches)
