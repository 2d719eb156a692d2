"""A kubectl-shaped interpreter over the in-memory policy store.

Supports exactly what the troubleshooting task needs: get/describe to
inspect policies, apply with an inline manifest, merge patch, and
delete. Errors come back as kubectl-style diagnostic text, never as
exceptions. The input store is not mutated; writes return a new
``PolicyStore``. Every policy lives in the ``default`` namespace: each verb
takes the namespace flag, and finds no policy in another namespace.
"""

from __future__ import annotations

import json
import re

import yaml

from ..core.reactive import INVALID, READ, WRITE, Outcome, Reject
from .model import API_VERSION, NAMESPACE, PolicyStore, policy_yaml

_KINDS = ("networkpolicy", "networkpolicies", "netpol")
_PATCH_RE = re.compile(r"-p\s+'(.*)'([^']*)$", re.DOTALL)  # the payload, then flag words
_NAME_RE = re.compile(r"[a-z0-9]([-a-z0-9.]*[a-z0-9])?")  # a DNS-1123 subdomain


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
_INT_RANGE = range(-2**63, 2**63)  # a JSON integer that fits in int64, as Kubernetes reads it


def _encodes(text: str) -> bool:
    """Whether UTF-8 can encode ``text``: it cannot encode a surrogate code point."""
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


def _check_data(value, path: str) -> int:
    """Rejects ``value`` unless it is plain JSON data of bounded size whose strings are
    valid UTF-8, as Kubernetes accepts; returns its node count (each visit of a shared node)."""
    stack = [(value, path, None, 0)]  # (value, its container's trail, step, depth)
    try:
        for count in range(_MAX_NODES):
            if not stack:
                return count
            value, trail, step, depth = stack.pop()
            if depth > _MAX_DEPTH:
                raise ValueError("nested too deeply")
            if isinstance(value, dict):
                try:
                    keys = "".join(value)  # a TypeError unless every key is a string
                except TypeError:
                    raise ValueError("keys must be strings") from None
                if not (keys.isascii() or _encodes(keys)):
                    raise ValueError("keys must be valid UTF-8")
                stack.extend((item, (trail, step), key, depth + 1) for key, item in value.items())
            elif isinstance(value, list):
                stack.extend((item, (trail, step), i, depth + 1) for i, item in enumerate(value))
            elif isinstance(value, str):
                if not (value.isascii() or _encodes(value)):
                    raise ValueError("strings must be valid UTF-8")
            elif isinstance(value, int) and value not in _INT_RANGE:
                raise ValueError("integer out of range")
            elif not isinstance(value, _SCALARS):
                raise ValueError(f"unsupported value of type {type(value).__name__}")
        if stack:
            raise ValueError("too large")
        return _MAX_NODES
    except ValueError as exc:  # the path is spelt out only for the value rejected
        steps = []
        while step is not None:
            steps.append(f"[{step}]" if isinstance(step, int) else f".{step}")
            trail, step = trail
        raise ValueError(f"{trail}{''.join(reversed(steps))}: {exc}") from None


def _check_objects(value, path: str) -> None:
    if value is not None and not (isinstance(value, list)
                                  and all(isinstance(v, dict) for v in value)):
        raise ValueError(f"{path}: expected a list of objects")


def _check_selector(selector, path: str) -> None:
    if not isinstance(selector, dict):
        raise ValueError(f"{path}: expected an object")
    if not isinstance(selector.get("matchLabels", {}), dict):
        raise ValueError(f"{path}.matchLabels: expected an object")


def _check_shape(doc) -> None:
    """Rejects ``doc``, data that passed ``_check_data``, unless it is a NetworkPolicy the
    store can hold and audit."""
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

def exec_kubectl(policies: PolicyStore, command: str) -> Outcome:
    """Run one kubectl command on ``policies``; never raises on agent input."""
    try:
        head, _, manifest = command.strip().partition("\n")
        tokens = head.split()
        if not tokens:
            raise Reject("empty command")
        if tokens[0] == "sudo":
            raise Reject("do not include sudo in commands")
        if tokens[0] != "kubectl":
            raise Reject(f"unsupported command: {tokens[0]}")
        if len(tokens) < 2:
            raise Reject("kubectl: missing verb")
        handler = _VERBS.get(tokens[1])
        if handler is None:
            raise Reject(f"kubectl: unsupported verb {tokens[1]!r}")
        return handler(policies, tokens[2:], head, manifest)
    except Reject as exc:
        return Outcome(policies, str(exc), INVALID)


def _namespaced(args) -> tuple[list, str]:
    """``args`` less the namespace flags (``-n <ns>``, ``-n<ns>``, ``-n=<ns>``, ``--namespace
    <ns>``, ``--namespace=<ns>``), and the namespace the last names, else the default."""
    rest, namespace, tokens = [], NAMESPACE, iter(args)
    for token in tokens:
        if token in ("-n", "--namespace"):
            flag, value = token, next(tokens, "")
        elif token.startswith("--namespace="):
            flag, value = "--namespace", token.removeprefix("--namespace=")
        elif token.startswith("-n"):
            flag, value = "-n", token[2:].removeprefix("=")
        else:
            rest.append(token)
            continue
        if not value or value.startswith("-"):
            raise Reject("error: flag needs an argument: "
                         + ("'n' in -n" if flag == "-n" else flag))
        namespace = value
    return rest, namespace


def _named(policies: PolicyStore, args, usage: str, namespace: str) -> str:
    """The stored policy ``args`` name as ``<kind> <name>``; rejects a wrong kind, a missing
    name, a flag in its place or an extra word with ``usage``, and a name not in the store, or
    in another namespace, with NotFound."""
    if len(args) != 2 or args[0] not in _KINDS or args[1].startswith("-"):
        raise Reject(usage)
    if namespace != NAMESPACE or args[1] not in policies:
        raise Reject('Error from server (NotFound): '
                     f'networkpolicies.networking.k8s.io "{args[1]}" not found')
    return args[1]


def _yaml(name: str, policy: dict) -> str:
    """A stored policy's YAML, as a view: a store reads it once however often it is shown."""
    return policy_yaml(policy)


def _size(name: str, policy: dict) -> int:
    """A stored policy's node count, as a view: what ``_check_data`` returns for it, since every
    stored policy passes that walk (kubectl stores none that fails it, and the baseline and the
    built-in mutations, stored without it, pass it too)."""
    stack, count = [policy], 0
    while stack:
        value = stack.pop()
        count += 1
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
    return count


def _get(policies: PolicyStore, args, head: str, manifest: str) -> Outcome:
    args, namespace = _namespaced(args)
    if not args or args[0] not in _KINDS:
        raise Reject("kubectl get: only networkpolicy objects exist here")
    usage = "usage: kubectl get networkpolicy [<name> [-o yaml]]"
    rest, as_yaml, tokens = [], False, iter(args[1:])
    for token in tokens:
        if token == "-o" and next(tokens, None) != "yaml":
            raise Reject(usage)
        if token in ("-o", "-oyaml"):
            as_yaml = True
        else:
            rest.append(token)
    if rest:
        name = _named(policies, args[:1] + rest, usage, namespace)
        if as_yaml:
            return Outcome(policies, policies.view(name, _yaml), READ)
        return Outcome(policies, name, READ)
    shown = policies if namespace == NAMESPACE else {}  # every policy lives in the default
    if as_yaml:
        return Outcome(policies, policy_yaml({
            "apiVersion": "v1", "items": [shown[name] for name in sorted(shown)],
            "kind": "List", "metadata": {"resourceVersion": ""}}), READ)
    if not shown:
        return Outcome(policies, f"No resources found in {namespace} namespace.", READ)
    lines = ["NAME                     POD-SELECTOR"]
    for name, p in sorted(policies.items()):
        sel = p["spec"].get("podSelector", {}).get("matchLabels", {})
        sel_text = ",".join(f"{k}={v}" for k, v in sorted(sel.items())) or "<none>"
        lines.append(f"{name:<24} {sel_text}")
    return Outcome(policies, "\n".join(lines), READ)


def _describe(policies: PolicyStore, args, head: str, manifest: str) -> Outcome:
    args, namespace = _namespaced(args)
    name = _named(policies, args, "usage: kubectl describe networkpolicy <name>", namespace)
    return Outcome(policies, policies.view(name, _yaml), READ)


def _apply(policies: PolicyStore, args, head: str, manifest: str) -> Outcome:
    args, namespace = _namespaced(args)
    if args[:2] != ["-f", "-"]:
        raise Reject("kubectl apply: only '-f -' with an inline manifest is supported")
    if not manifest.strip():
        raise Reject("kubectl apply: empty manifest")
    try:
        doc = yaml.safe_load(manifest)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:  # ValueError: a huge integer
        raise Reject(f"error parsing manifest: {exc}") from None
    try:
        _check_data(doc, "NetworkPolicy")
        _check_shape(doc)
        if namespace != NAMESPACE:  # the flag's namespace is the policy's
            raise ValueError(f"metadata.namespace: must be {NAMESPACE}")
    except ValueError as exc:
        raise Reject(f"error validating data: {exc}") from None
    name = doc["metadata"]["name"]
    word = "configured" if name in policies else "created"
    return Outcome(policies.written(name, doc),
                   f"networkpolicy.networking.k8s.io/{name} {word}", WRITE)


def _patch(policies: PolicyStore, args, head: str, manifest: str) -> Outcome:
    m = _PATCH_RE.search(head)
    # the flags stand before -p or after the payload, never inside it
    flags = [*(args[:args.index("-p")] if "-p" in args else args), *(m[2].split() if m else ())]
    flags, namespace = _namespaced(flags)
    words, patch_type, tokens = [], None, iter(flags)
    for token in tokens:
        if token == "--type":
            patch_type = next(tokens, None)
        elif token.startswith("--type="):
            patch_type = token.removeprefix("--type=")
        else:
            words.append(token)
    name = _named(policies, words,
                  "usage: kubectl patch networkpolicy <name> --type merge -p '<json>'", namespace)
    if patch_type != "merge":
        raise Reject("kubectl patch: only --type merge is supported")
    if not m:
        raise Reject("kubectl patch: missing -p '<json>' payload")
    try:
        patch = json.loads(m.group(1))
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON or a huge integer
        raise Reject(f"error decoding patch: {exc}") from None
    if not isinstance(patch, dict):
        raise Reject("kubectl patch: a merge patch must be a JSON object")
    try:
        size = _check_data(patch, "patch")
        merged = merge_patch(policies[name], patch)
        # merging adds no depth and no node the two parts lack, and the stored part passed,
        # so the merged policy's walk can fail only for its size, and only past this bound
        if policies.view(name, _size) + size > _MAX_NODES:
            _check_data(merged, "NetworkPolicy")
        _check_shape(merged)
        for field in ("name", "namespace"):
            if merged["metadata"].get(field) != policies[name]["metadata"].get(field):
                raise ValueError(f"metadata.{field}: field is immutable")
    except ValueError as exc:
        raise Reject(f'The NetworkPolicy "{name}" is invalid: {exc}') from None
    return Outcome(policies.written(name, merged),
                   f"networkpolicy.networking.k8s.io/{name} patched", WRITE)


def _delete(policies: PolicyStore, args, head: str, manifest: str) -> Outcome:
    args, namespace = _namespaced(args)
    name = _named(policies, args, "usage: kubectl delete networkpolicy <name>", namespace)
    return Outcome(policies.without(name),
                   f'networkpolicy.networking.k8s.io "{name}" deleted', WRITE)


_VERBS = {"get": _get, "describe": _describe, "apply": _apply, "patch": _patch, "delete": _delete}
