"""Policy mutations for the network-policy application.

Five mutation families, each realized as a single merge patch of one
policy paired with a single inverse patch that restores the baseline
policy byte-for-byte:

    RI   remove an expected caller from a service's ingress whitelist
    AI   admit an unexpected caller into a service's ingress whitelist
    CP   change the whitelisted port to a wrong one
    CPR  change the policy's pod selector so it stops selecting its pods
    AE   add an egress section that pins a client to a single target
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.reactive import WRITE, Injection, Outcome
from ..core.types import ActionSpec
from ..digest import canonical_json
from ..errors import MethodOutOfRange, UnknownFamily
from .kubectl import merge_patch
from .model import EXPECTED_CALLERS, SERVICE_PORTS, SERVICES, PolicyStore, baseline_ingress, \
    default_policies

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


@dataclass(frozen=True)
class Patch:
    """A built-in write: a merge ``patch`` of one stored policy, keys sorted as ``json.loads``
    reads them from ``render()``, so a policy patched from either walks its keys alike."""
    policy: str
    patch: dict

    def apply(self, policies: PolicyStore) -> Outcome:
        """``exec_kubectl`` of ``render()`` less its validation, as ``build_mutation`` builds
        only valid patches. A patch that gives a baseline policy back stores the very baseline
        object, whose views the baseline store already holds."""
        policy = merge_patch(policies[self.policy], self.patch)
        baseline = default_policies()[self.policy]
        return Outcome(policies.written(self.policy, baseline if policy == baseline else policy),
                       f"networkpolicy.networking.k8s.io/{self.policy} patched", WRITE)

    def render(self) -> tuple:
        """The ``kubectl patch`` command, rendered only when asked."""
        return (MACHINE, f"kubectl patch networkpolicy {self.policy} --type merge "
                         f"-p '{canonical_json(self.patch)}'")


def build_mutation(action: ActionSpec) -> Injection:
    """The mutation that ``action`` records, as :class:`Patch` writes. The action's name is the
    family, and its operands are the policy patched and a family-specific parameter (the caller
    removed or added, the egress target kept, or "")."""
    family = action.name
    target, param = action.typed_operands(str, str)
    if family not in TARGETS:
        raise UnknownFamily(f"unknown mutation family {family!r}")
    if target not in TARGETS[family]:
        raise MethodOutOfRange(f"{family} cannot patch {target!r}")
    if family in ("CP", "CPR") and param:
        raise MethodOutOfRange(f"{family} takes no parameter, got {param!r}")
    inverse = {"spec": {"ingress": baseline_ingress(target)}}
    if family == "CPR":
        forward = {"spec": {"podSelector": {"matchLabels": {"app": f"{target}-pods"}}}}
        inverse = {"spec": {"podSelector": {"matchLabels": {"app": target}}}}
    elif family == "AE":  # pin the client's egress to a single expected destination
        if param not in AE_EGRESS_GRAPH[target]:
            raise MethodOutOfRange(f"AE cannot pin {target!r} to {param!r}")
        egress = [{
            "ports": [{"port": SERVICE_PORTS[param], "protocol": "TCP"}],
            "to": [{"podSelector": {"matchLabels": {"app": param}}}],
        }]
        forward = {"spec": {"egress": egress, "policyTypes": ["Ingress", "Egress"]}}
        inverse = {"spec": {"egress": None, "policyTypes": ["Ingress"]}}
    else:
        rule = baseline_ingress(target)[0]
        if family == "RI":
            if param not in EXPECTED_CALLERS[target]:
                raise MethodOutOfRange(f"RI cannot remove {param!r} from {target!r}")
            rule["from"] = [f for f in rule["from"]
                            if f["podSelector"]["matchLabels"]["app"] != param]
        elif family == "AI":
            if param not in SERVICES:
                raise MethodOutOfRange(f"AI caller {param!r} is no service")
            if param in EXPECTED_CALLERS[target] or param == target:
                raise MethodOutOfRange(f"AI caller {param!r} is already expected for {target!r}")
            rule["from"] = rule["from"] + [{"podSelector": {"matchLabels": {"app": param}}}]
        else:  # CP
            rule["ports"] = [{"port": SERVICE_PORTS[target] + 1, "protocol": "TCP"}]
        forward = {"spec": {"ingress": [rule]}}
    return Injection(action, (Patch(target, forward),), Patch(target, inverse))
