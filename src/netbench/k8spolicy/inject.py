"""Policy mutations for the network-policy application.

Five mutation families, each realized as a single ``kubectl patch``
command paired with a single inverse patch that restores the baseline
policy byte-for-byte:

    RI   remove an expected caller from a service's ingress whitelist
    AI   admit an unexpected caller into a service's ingress whitelist
    CP   change the whitelisted port to a wrong one
    CPR  change the policy's pod selector so it stops selecting its pods
    AE   add an egress section that pins a client to a single target
"""

from __future__ import annotations

import json

from ..core.reactive import Injection
from ..core.types import ActionSpec
from ..digest import canonical_json
from ..errors import MethodOutOfRange, UnknownFamily
from .model import EXPECTED_CALLERS, SERVICE_PORTS, SERVICES, baseline_ingress

MACHINE = "master"

_SERVING = tuple(sorted(EXPECTED_CALLERS))  # the policies of services that serve a port

# mutation family -> the policies it may patch
TARGETS = {
    "RI": tuple(t for t in _SERVING if len(EXPECTED_CALLERS[t]) >= 2),
    "AI": _SERVING,
    "CP": _SERVING,
    "CPR": _SERVING,
    "AE": ("checkoutservice", "frontend"),  # clients with several expected targets
}

AE_EGRESS_GRAPH = {client: tuple(d for d in _SERVING if client in EXPECTED_CALLERS[d])
                   for client in TARGETS["AE"]}


def _patch_cmd(target: str, patch: dict) -> tuple:
    payload = canonical_json(patch)
    return (MACHINE, f"kubectl patch networkpolicy {target} --type merge -p '{payload}'")


def patch_of(command: str) -> tuple[str, dict]:
    """The (target, patch) of a command ``build_mutation`` built."""
    _, _, _, target, _, _, _, payload = command.split(" ", 7)
    return target, json.loads(payload[1:-1])


def mutation_patches(action: ActionSpec) -> tuple[str, dict, dict]:
    """The policy that the mutation ``action`` records patches, and its forward and inverse
    merge patches. The action's name is the family, and its operands are the policy patched and
    a family-specific parameter (the caller removed or added, the egress target kept, or "").
    Each dict's keys are in sorted order, as ``json.loads`` reads them from ``build_mutation``'s
    commands, so a policy patched from either walks its keys alike."""
    family = action.name
    target, param = action.typed_operands(str, str)
    if family not in TARGETS:
        raise UnknownFamily(f"unknown mutation family {family!r}")
    if target not in TARGETS[family]:
        raise MethodOutOfRange(f"{family} cannot patch {target!r}")
    if family in ("CP", "CPR") and param:
        raise MethodOutOfRange(f"{family} takes no parameter, got {param!r}")
    restore_ingress = {"spec": {"ingress": baseline_ingress(target)}}

    if family == "RI":
        if param not in EXPECTED_CALLERS[target]:
            raise MethodOutOfRange(f"RI cannot remove {param!r} from {target!r}")
        rule = baseline_ingress(target)[0]
        rule["from"] = [f for f in rule["from"]
                        if f["podSelector"]["matchLabels"]["app"] != param]
        return target, {"spec": {"ingress": [rule]}}, restore_ingress

    if family == "AI":
        if param not in SERVICES:
            raise MethodOutOfRange(f"AI caller {param!r} is no service")
        if param in EXPECTED_CALLERS[target] or param == target:
            raise MethodOutOfRange(f"AI caller {param!r} is already expected for {target!r}")
        rule = baseline_ingress(target)[0]
        rule["from"] = rule["from"] + [{"podSelector": {"matchLabels": {"app": param}}}]
        return target, {"spec": {"ingress": [rule]}}, restore_ingress

    if family == "CP":
        rule = baseline_ingress(target)[0]
        rule["ports"] = [{"port": SERVICE_PORTS[target] + 1, "protocol": "TCP"}]
        return target, {"spec": {"ingress": [rule]}}, restore_ingress

    if family == "CPR":
        return (target, {"spec": {"podSelector": {"matchLabels": {"app": f"{target}-pods"}}}},
                {"spec": {"podSelector": {"matchLabels": {"app": target}}}})

    # AE: pin the client's egress to a single expected destination
    if param not in AE_EGRESS_GRAPH[target]:
        raise MethodOutOfRange(f"AE cannot pin {target!r} to {param!r}")
    egress = [{
        "ports": [{"port": SERVICE_PORTS[param], "protocol": "TCP"}],
        "to": [{"podSelector": {"matchLabels": {"app": param}}}],
    }]
    return (target, {"spec": {"egress": egress, "policyTypes": ["Ingress", "Egress"]}},
            {"spec": {"egress": None, "policyTypes": ["Ingress"]}})


def build_mutation(action: ActionSpec) -> Injection:
    """The mutation that ``action`` records, as ``kubectl patch`` commands of its patches."""
    target, forward, inverse = mutation_patches(action)
    return Injection(action, (_patch_cmd(target, forward),), _patch_cmd(target, inverse))
