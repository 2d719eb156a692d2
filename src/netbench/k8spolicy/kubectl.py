"""A kubectl-shaped interpreter over the in-memory policy store.

Supports exactly what the troubleshooting task needs: get/describe to
inspect policies, apply with an inline manifest, merge patch, and
delete. Errors come back as kubectl-style diagnostic text, never as
exceptions. The input store is not mutated; writes return a new dict.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import yaml

from ..core.reactive import INVALID, READ, WRITE
from .model import canonical_policy, policy_yaml

_KINDS = ("networkpolicy", "networkpolicies", "netpol")
_PATCH_RE = re.compile(r"-p\s+'(.*)'\s*$", re.DOTALL)


@dataclass
class KubectlOutcome:
    policies: dict
    output: str
    kind: str  # read | write | invalid


def _not_found(name: str) -> str:
    return f'Error from server (NotFound): networkpolicies.networking.k8s.io "{name}" not found'


def merge_patch(target, patch):
    """RFC 7386 merge: dicts merge recursively, null deletes, lists replace."""
    if not isinstance(patch, dict):
        return patch
    result = dict(target) if isinstance(target, dict) else {}
    for key, value in patch.items():
        if value is None:
            result.pop(key, None)
        else:
            result[key] = merge_patch(result.get(key), value)
    return result


_MAX_DEPTH = 32
_MAX_NODES = 10_000  # bounds the work on YAML alias bombs
_SCALARS = (str, int, float, bool, type(None))


def _data_error(value, path: str) -> str | None:
    """Why ``value`` is not plain JSON data of bounded size, or None."""
    stack = [(value, path, 0)]
    for _ in range(_MAX_NODES):
        if not stack:
            return None
        value, path, depth = stack.pop()
        if depth > _MAX_DEPTH:
            return f"{path}: nested too deeply"
        if isinstance(value, dict):
            if not all(isinstance(key, str) for key in value):
                return f"{path}: keys must be strings"
            stack.extend((item, f"{path}.{key}", depth + 1) for key, item in value.items())
        elif isinstance(value, list):
            stack.extend((item, f"{path}[{i}]", depth + 1) for i, item in enumerate(value))
        elif not isinstance(value, _SCALARS):
            return f"{path}: unsupported value of type {type(value).__name__}"
    return f"{path}: too large" if stack else None


def _objects_error(value, path: str) -> str | None:
    if value is not None and not (isinstance(value, list)
                                  and all(isinstance(v, dict) for v in value)):
        return f"{path}: expected a list of objects"
    return None


def _selector_error(selector, path: str) -> str | None:
    if not isinstance(selector, dict):
        return f"{path}: expected an object"
    if not isinstance(selector.get("matchLabels", {}), dict):
        return f"{path}.matchLabels: expected an object"
    return None


def _policy_error(doc) -> str | None:
    """Why ``doc`` is not a NetworkPolicy the store can hold and audit, or None."""
    problem = _data_error(doc, "NetworkPolicy")
    if problem:
        return problem
    if not isinstance(doc, dict) or doc.get("kind") != "NetworkPolicy":
        return "kind: must be NetworkPolicy"
    metadata = doc.get("metadata")
    if not (isinstance(metadata, dict) and isinstance(metadata.get("name"), str)
            and metadata["name"]):
        return "metadata.name: is required"
    spec = doc.get("spec")
    if not isinstance(spec, dict):
        return "spec: expected an object"
    problem = _selector_error(spec.get("podSelector", {}), "spec.podSelector")
    if problem:
        return problem
    types = spec.get("policyTypes", [])
    if not (isinstance(types, list) and all(isinstance(t, str) for t in types)):
        return "spec.policyTypes: expected a list of strings"
    for direction, peer_key in (("ingress", "from"), ("egress", "to")):
        rules = spec.get(direction)
        problem = _objects_error(rules, f"spec.{direction}")
        if problem:
            return problem
        for i, rule in enumerate(rules or []):
            where = f"spec.{direction}[{i}]"
            peers = rule.get(peer_key)
            problem = (_objects_error(rule.get("ports"), f"{where}.ports")
                       or _objects_error(peers, f"{where}.{peer_key}"))
            if problem:
                return problem
            for j, peer in enumerate(peers or []):
                problem = _selector_error(peer.get("podSelector", {}),
                                          f"{where}.{peer_key}[{j}].podSelector")
                if problem:
                    return problem
    return None


def exec_kubectl(policies: dict, command: str) -> KubectlOutcome:
    text = command.strip()
    if not text:
        return KubectlOutcome(policies, "empty command", INVALID)

    head, _, manifest = text.partition("\n")
    tokens = head.split()
    if tokens[0] == "sudo":
        return KubectlOutcome(policies, "do not include sudo in commands", INVALID)
    if tokens[0] != "kubectl":
        return KubectlOutcome(policies, f"unsupported command: {tokens[0]}", INVALID)
    if len(tokens) < 2:
        return KubectlOutcome(policies, "kubectl: missing verb", INVALID)
    verb = tokens[1]

    if verb == "get":
        return _get(policies, tokens[2:])
    if verb == "describe":
        return _describe(policies, tokens[2:])
    if verb == "apply":
        return _apply(policies, tokens[2:], manifest)
    if verb == "patch":
        return _patch(policies, head)
    if verb == "delete":
        return _delete(policies, tokens[2:])
    return KubectlOutcome(policies, f"kubectl: unsupported verb {verb!r}", INVALID)


def write_kubectl(policies: dict, machine: str, command: str) -> dict | None:
    """The store ``command`` writes, or None when it is not a write; ``machine`` is unused."""
    outcome = exec_kubectl(policies, command)
    return outcome.policies if outcome.kind == WRITE else None


def _want_kind(args):
    return bool(args) and args[0] in _KINDS


def _get(policies: dict, args) -> KubectlOutcome:
    if not _want_kind(args):
        return KubectlOutcome(policies, "kubectl get: only networkpolicy objects exist here",
                              INVALID)
    rest = [a for a in args[1:] if a not in ("-o", "yaml", "-oyaml")]
    as_yaml = "yaml" in args or "-oyaml" in args
    if not rest:
        lines = ["NAME                     POD-SELECTOR"]
        for name, p in sorted(policies.items()):
            sel = p["spec"].get("podSelector", {}).get("matchLabels", {})
            sel_text = ",".join(f"{k}={v}" for k, v in sorted(sel.items())) or "<none>"
            lines.append(f"{name:<24} {sel_text}")
        return KubectlOutcome(policies, "\n".join(lines), READ)
    name = rest[0]
    if name not in policies:
        return KubectlOutcome(policies, _not_found(name), INVALID)
    if as_yaml:
        return KubectlOutcome(policies, policy_yaml(policies[name]), READ)
    return KubectlOutcome(policies, f"{name}", READ)


def _describe(policies: dict, args) -> KubectlOutcome:
    if not _want_kind(args) or len(args) < 2:
        return KubectlOutcome(policies, "usage: kubectl describe networkpolicy <name>", INVALID)
    name = args[1]
    if name not in policies:
        return KubectlOutcome(policies, _not_found(name), INVALID)
    return KubectlOutcome(policies, policy_yaml(policies[name]), READ)


def _apply(policies: dict, args, manifest: str) -> KubectlOutcome:
    if args[:2] != ["-f", "-"]:
        return KubectlOutcome(
            policies, "kubectl apply: only '-f -' with an inline manifest is supported", INVALID)
    if not manifest.strip():
        return KubectlOutcome(policies, "kubectl apply: empty manifest", INVALID)
    try:
        doc = yaml.safe_load(manifest)
    except (yaml.YAMLError, RecursionError) as exc:
        return KubectlOutcome(policies, f"error parsing manifest: {exc}", INVALID)
    problem = _policy_error(doc)
    if problem:
        return KubectlOutcome(policies, f"error validating data: {problem}", INVALID)
    name = doc["metadata"]["name"]
    new = dict(policies)
    created = name not in new
    new[name] = canonical_policy(doc)
    word = "created" if created else "configured"
    return KubectlOutcome(new, f"networkpolicy.networking.k8s.io/{name} {word}", WRITE)


def _patch(policies: dict, head: str) -> KubectlOutcome:
    tokens = head.split()
    args = tokens[2:]
    if not _want_kind(args) or len(args) < 2:
        return KubectlOutcome(policies, "usage: kubectl patch networkpolicy <name> "
                              "--type merge -p '<json>'", INVALID)
    name = args[1]
    if name not in policies:
        return KubectlOutcome(policies, _not_found(name), INVALID)
    if not ("--type" in args and "merge" in args) and "--type=merge" not in args:
        return KubectlOutcome(policies, "kubectl patch: only --type merge is supported", INVALID)
    m = _PATCH_RE.search(head)
    if not m:
        return KubectlOutcome(policies, "kubectl patch: missing -p '<json>' payload", INVALID)
    try:
        patch = json.loads(m.group(1))
    except (json.JSONDecodeError, RecursionError) as exc:
        return KubectlOutcome(policies, f"error decoding patch: {exc}", INVALID)
    if not isinstance(patch, dict):
        return KubectlOutcome(policies, "kubectl patch: a merge patch must be a JSON object",
                              INVALID)
    problem = _data_error(patch, "patch")
    if not problem:
        merged = merge_patch(policies[name], patch)
        problem = _policy_error(merged)
    if problem:
        return KubectlOutcome(policies, f'The NetworkPolicy "{name}" is invalid: {problem}',
                              INVALID)
    new = dict(policies)
    new[name] = canonical_policy(merged)
    return KubectlOutcome(new, f"networkpolicy.networking.k8s.io/{name} patched", WRITE)


def _delete(policies: dict, args) -> KubectlOutcome:
    if not _want_kind(args) or len(args) < 2:
        return KubectlOutcome(policies, "usage: kubectl delete networkpolicy <name>", INVALID)
    name = args[1]
    if name not in policies:
        return KubectlOutcome(policies, _not_found(name), INVALID)
    new = dict(policies)
    del new[name]
    return KubectlOutcome(new, f'networkpolicy.networking.k8s.io "{name}" deleted', WRITE)
