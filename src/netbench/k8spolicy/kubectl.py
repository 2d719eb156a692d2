"""A kubectl-shaped interpreter over the in-memory policy store.

Supports exactly what the troubleshooting task needs: get/describe to
inspect policies, apply with an inline manifest, merge patch, and
delete. Errors come back as kubectl-style diagnostic text, never as
exceptions. The input store is not mutated; writes return a new dict.
Every policy lives in the ``default`` namespace.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import yaml

from ..core.reactive import INVALID, READ, WRITE
from .model import API_VERSION, NAMESPACE, canonical_policy, policy_yaml

_KINDS = ("networkpolicy", "networkpolicies", "netpol")
_PATCH_RE = re.compile(r"-p\s+'(.*)'\s*$", re.DOTALL)
_NAME_RE = re.compile(r"[a-z0-9]([-a-z0-9.]*[a-z0-9])?")  # a DNS-1123 subdomain


@dataclass
class KubectlOutcome:
    policies: dict
    output: str
    kind: str  # read | write | invalid


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


# --- validators: each raises ValueError("<path>: <reason>") ----------------

_MAX_DEPTH = 32
_MAX_NODES = 10_000  # bounds the work on YAML alias bombs
_SCALARS = (str, int, float, bool, type(None))


def _check_data(value, path: str) -> None:
    """Rejects ``value`` unless it is plain JSON data of bounded size."""
    stack = [(value, path, 0)]
    for _ in range(_MAX_NODES):
        if not stack:
            return
        value, path, depth = stack.pop()
        if depth > _MAX_DEPTH:
            raise ValueError(f"{path}: nested too deeply")
        if isinstance(value, dict):
            if not all(isinstance(key, str) for key in value):
                raise ValueError(f"{path}: keys must be strings")
            stack.extend((item, f"{path}.{key}", depth + 1) for key, item in value.items())
        elif isinstance(value, list):
            stack.extend((item, f"{path}[{i}]", depth + 1) for i, item in enumerate(value))
        elif not isinstance(value, _SCALARS):
            raise ValueError(f"{path}: unsupported value of type {type(value).__name__}")
    if stack:
        raise ValueError(f"{path}: too large")


def _check_objects(value, path: str) -> None:
    if value is not None and not (isinstance(value, list)
                                  and all(isinstance(v, dict) for v in value)):
        raise ValueError(f"{path}: expected a list of objects")


def _check_selector(selector, path: str) -> None:
    if not isinstance(selector, dict):
        raise ValueError(f"{path}: expected an object")
    if not isinstance(selector.get("matchLabels", {}), dict):
        raise ValueError(f"{path}.matchLabels: expected an object")


def _check_policy(doc) -> None:
    """Rejects ``doc`` unless it is a NetworkPolicy the store can hold and audit."""
    _check_data(doc, "NetworkPolicy")
    if not isinstance(doc, dict) or doc.get("kind") != "NetworkPolicy":
        raise ValueError("kind: must be NetworkPolicy")
    if doc.get("apiVersion", API_VERSION) != API_VERSION:
        raise ValueError(f"apiVersion: must be {API_VERSION}")
    metadata = doc.get("metadata")
    if not (isinstance(metadata, dict) and isinstance(metadata.get("name"), str)
            and metadata["name"]):
        raise ValueError("metadata.name: is required")
    if len(metadata["name"]) > 253 or not _NAME_RE.fullmatch(metadata["name"]):
        raise ValueError("metadata.name: must be a DNS-1123 subdomain: at most 253 lowercase "
                         "alphanumerics, '-' or '.', starting and ending alphanumeric")
    if metadata.get("namespace", NAMESPACE) != NAMESPACE:
        raise ValueError(f"metadata.namespace: must be {NAMESPACE}")
    spec = doc.get("spec")
    if not isinstance(spec, dict):
        raise ValueError("spec: expected an object")
    _check_selector(spec.get("podSelector", {}), "spec.podSelector")
    types = spec.get("policyTypes", [])
    if not (isinstance(types, list) and all(isinstance(t, str) for t in types)):
        raise ValueError("spec.policyTypes: expected a list of strings")
    for direction, peer_key in (("ingress", "from"), ("egress", "to")):
        rules = spec.get(direction)
        _check_objects(rules, f"spec.{direction}")
        for i, rule in enumerate(rules or []):
            where = f"spec.{direction}[{i}]"
            peers = rule.get(peer_key)
            _check_objects(rule.get("ports"), f"{where}.ports")
            _check_objects(peers, f"{where}.{peer_key}")
            for j, peer in enumerate(peers or []):
                _check_selector(peer.get("podSelector", {}), f"{where}.{peer_key}[{j}].podSelector")


# --- interpreter ------------------------------------------------------------

class _Reject(Exception):
    """An invalid command; the message is its output. Only exec_kubectl catches it."""


def exec_kubectl(policies: dict, command: str) -> KubectlOutcome:
    """Run one kubectl command on ``policies``; never raises on agent input."""
    try:
        head, _, manifest = command.strip().partition("\n")
        tokens = head.split()
        if not tokens:
            raise _Reject("empty command")
        if tokens[0] == "sudo":
            raise _Reject("do not include sudo in commands")
        if tokens[0] != "kubectl":
            raise _Reject(f"unsupported command: {tokens[0]}")
        if len(tokens) < 2:
            raise _Reject("kubectl: missing verb")
        handler = _VERBS.get(tokens[1])
        if handler is None:
            raise _Reject(f"kubectl: unsupported verb {tokens[1]!r}")
        return handler(policies, tokens[2:], head, manifest)
    except _Reject as exc:
        return KubectlOutcome(policies, str(exc), INVALID)


def write_kubectl(policies: dict, machine: str, command: str) -> dict | None:
    """The store ``command`` writes, or None when it is not a write; ``machine`` is unused."""
    outcome = exec_kubectl(policies, command)
    return outcome.policies if outcome.kind == WRITE else None


def _named(policies: dict, args, usage: str) -> str:
    """The stored policy ``args`` name as ``<kind> <name>``; rejects a wrong kind or a missing
    name with ``usage``, a name not in the store with NotFound."""
    if len(args) < 2 or args[0] not in _KINDS:
        raise _Reject(usage)
    if args[1] not in policies:
        raise _Reject('Error from server (NotFound): '
                      f'networkpolicies.networking.k8s.io "{args[1]}" not found')
    return args[1]


def _get(policies: dict, args, head: str, manifest: str) -> KubectlOutcome:
    if not args or args[0] not in _KINDS:
        raise _Reject("kubectl get: only networkpolicy objects exist here")
    usage = "usage: kubectl get networkpolicy [<name> [-o yaml]]"
    rest, as_yaml, tokens = [], False, iter(args[1:])
    for token in tokens:
        if token == "-o" and next(tokens, None) != "yaml":
            raise _Reject(usage)
        if token in ("-o", "-oyaml"):
            as_yaml = True
        else:
            rest.append(token)
    if not rest:
        lines = ["NAME                     POD-SELECTOR"]
        for name, p in sorted(policies.items()):
            sel = p["spec"].get("podSelector", {}).get("matchLabels", {})
            sel_text = ",".join(f"{k}={v}" for k, v in sorted(sel.items())) or "<none>"
            lines.append(f"{name:<24} {sel_text}")
        return KubectlOutcome(policies, "\n".join(lines), READ)
    if len(rest) > 1:
        raise _Reject(usage)
    name = _named(policies, args[:1] + rest, usage)
    if as_yaml:
        return KubectlOutcome(policies, policy_yaml(policies[name]), READ)
    return KubectlOutcome(policies, name, READ)


def _describe(policies: dict, args, head: str, manifest: str) -> KubectlOutcome:
    name = _named(policies, args, "usage: kubectl describe networkpolicy <name>")
    return KubectlOutcome(policies, policy_yaml(policies[name]), READ)


def _apply(policies: dict, args, head: str, manifest: str) -> KubectlOutcome:
    if args[:2] != ["-f", "-"]:
        raise _Reject("kubectl apply: only '-f -' with an inline manifest is supported")
    if not manifest.strip():
        raise _Reject("kubectl apply: empty manifest")
    try:
        doc = yaml.safe_load(manifest)
    except (yaml.YAMLError, RecursionError) as exc:
        raise _Reject(f"error parsing manifest: {exc}") from None
    try:
        _check_policy(doc)
    except ValueError as exc:
        raise _Reject(f"error validating data: {exc}") from None
    name = doc["metadata"]["name"]
    word = "configured" if name in policies else "created"
    return KubectlOutcome({**policies, name: canonical_policy(doc)},
                          f"networkpolicy.networking.k8s.io/{name} {word}", WRITE)


def _patch(policies: dict, args, head: str, manifest: str) -> KubectlOutcome:
    name = _named(policies, args,
                  "usage: kubectl patch networkpolicy <name> --type merge -p '<json>'")
    if not ("--type" in args and "merge" in args) and "--type=merge" not in args:
        raise _Reject("kubectl patch: only --type merge is supported")
    m = _PATCH_RE.search(head)
    if not m:
        raise _Reject("kubectl patch: missing -p '<json>' payload")
    try:
        patch = json.loads(m.group(1))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise _Reject(f"error decoding patch: {exc}") from None
    if not isinstance(patch, dict):
        raise _Reject("kubectl patch: a merge patch must be a JSON object")
    try:
        _check_data(patch, "patch")
        merged = merge_patch(policies[name], patch)
        _check_policy(merged)
        for field in ("name", "namespace"):
            if merged["metadata"].get(field) != policies[name]["metadata"].get(field):
                raise ValueError(f"metadata.{field}: field is immutable")
    except ValueError as exc:
        raise _Reject(f'The NetworkPolicy "{name}" is invalid: {exc}') from None
    return KubectlOutcome({**policies, name: canonical_policy(merged)},
                          f"networkpolicy.networking.k8s.io/{name} patched", WRITE)


def _delete(policies: dict, args, head: str, manifest: str) -> KubectlOutcome:
    name = _named(policies, args, "usage: kubectl delete networkpolicy <name>")
    new = dict(policies)
    del new[name]
    return KubectlOutcome(new, f'networkpolicy.networking.k8s.io "{name}" deleted', WRITE)


_VERBS = {"get": _get, "describe": _describe, "apply": _apply, "patch": _patch, "delete": _delete}
