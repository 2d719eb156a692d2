"""Differential test of ``kubectl patch`` validation.

``exec_kubectl`` walks an agent's patch once, and walks the merged policy
again only when a node bound says that walk could fail. The reference below
runs both walks on every patch, the patch's and then the merged policy's, so
each patch must give the same output, kind and resulting store digest either
way: patches with surrogate strings and keys, keys set to null, nesting past
the depth bound, integers at and past the int64 limits, and node counts near
the size bound, alone and only once merged.
"""

import functools
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from netbench.core.reactive import INVALID, WRITE
from netbench.k8spolicy.kubectl import _MAX_DEPTH, _MAX_NODES, _check_data, _check_shape, \
    exec_kubectl, merge_patch
from netbench.k8spolicy.model import API_VERSION, NAMESPACE, PolicyStore, cluster_digest, \
    default_policies


def reference_patch(policies, name, patch):
    """(kind, output, digest of the resulting store) of a merge patch that passed decoding,
    validated by a walk of the patch and then a walk of the whole merged policy."""
    try:
        _check_data(patch, "patch")
        merged = merge_patch(policies[name], patch)
        _check_data(merged, "NetworkPolicy")
        _check_shape(merged)
        for field in ("name", "namespace"):
            if merged["metadata"].get(field) != policies[name]["metadata"].get(field):
                raise ValueError(f"metadata.{field}: field is immutable")
    except ValueError as exc:
        return INVALID, f'The NetworkPolicy "{name}" is invalid: {exc}', cluster_digest(policies)
    return (WRITE, f"networkpolicy.networking.k8s.io/{name} patched",
            cluster_digest(policies.written(name, merged)))


_RULE = {"from": [{"podSelector": {}}], "ports": [{"port": 80, "protocol": "TCP"}]}  # 8 nodes


@functools.cache
def store_with_big_policy(rules: int) -> PolicyStore:
    """The baseline plus a valid policy ``big`` of ``rules`` ingress rules, which share one
    node, as an applied manifest's alias would."""
    big = {"apiVersion": API_VERSION, "kind": "NetworkPolicy",
           "metadata": {"name": "big", "namespace": NAMESPACE},
           "spec": {"podSelector": {}, "policyTypes": ["Ingress"], "ingress": [_RULE] * rules}}
    _check_data(big, "NetworkPolicy")
    _check_shape(big)
    return default_policies().written("big", big)


_INTS = [0, 2**63 - 1, 2**63, -2**63, -2**63 - 1, 2**64]
_TEXT = st.lists(st.sampled_from(["a", "-", "é", "\U0001F600", "\ud83d", "\ude00", "\udfff"]),
                 max_size=3).map("".join)
_LEAF = st.one_of(st.none(), st.booleans(), st.sampled_from(_INTS), _TEXT,
                  st.floats(allow_nan=False, allow_infinity=False))
_JSON = st.recursive(_LEAF, lambda children: st.lists(children, max_size=3)
                     | st.dictionaries(_TEXT, children, max_size=3), max_leaves=8)


@st.composite
def nested(draw):
    """Lists and objects nested around the depth bound, ending in null leaves or values."""
    value = draw(st.sampled_from([None, 1, "a", {"k": None}, []]))
    for _ in range(draw(st.integers(_MAX_DEPTH - 4, _MAX_DEPTH + 4))):
        value = draw(st.sampled_from([[value], {"x": value}, {"x": value, "y": None}]))
    return value


@st.composite
def patch_for(draw, policies, name):
    """A merge patch of the stored policy ``name``."""
    kind = draw(st.sampled_from(["json", "json", "labels", "nested", "size", "size"]))
    if kind == "json":
        return draw(st.dictionaries(st.sampled_from(["spec", "metadata", "kind", "x"]) | _TEXT,
                                    _JSON, max_size=3))
    if kind == "labels":
        return {"metadata": {"labels": draw(st.dictionaries(_TEXT, _JSON, max_size=3))}}
    if kind == "nested":
        return {"spec": {draw(_TEXT): draw(nested())}}
    # ``[leaf] * n`` under a new key adds n + 1 nodes to the stored policy's, and the patch
    # holds one more node per level above it: aim at the bound for the patch alone or merged
    stored = _check_data(policies[name], "NetworkPolicy")
    aim = draw(st.sampled_from([_MAX_NODES - 2, _MAX_NODES - stored - 1]))
    leaves = [draw(st.sampled_from([None, 0, "a"]))] * max(0, aim + draw(st.integers(-3, 3)))
    return draw(st.sampled_from([{"x": leaves}, {"spec": {"x": leaves}}]))


def _assert_patch_matches_both_walks(policies, name, patch):
    text = json.dumps(patch)
    # decoded as kubectl decodes it: JSON joins an escaped surrogate pair into one character
    expected = reference_patch(policies, name, json.loads(text))
    command = f"kubectl patch networkpolicy {name} --type merge -p '{text}'"
    outcome = exec_kubectl(policies, command)
    assert (outcome.kind, outcome.output, cluster_digest(outcome.state)) == expected
    return outcome


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.data(), st.sampled_from([0, 600, 1200, 1235, 1247]))
def test_patch_validation_matches_both_walks(data, rules):
    policies = store_with_big_policy(rules)
    for _ in range(data.draw(st.integers(1, 3))):
        name = data.draw(st.sampled_from(["big", "big", "frontend", "default-deny"]))
        policies = _assert_patch_matches_both_walks(
            policies, name, data.draw(patch_for(policies, name))).state


@pytest.mark.parametrize("rules", [0, 1235])
def test_patch_validation_matches_both_walks_at_the_size_bound(rules):
    """Node counts from three below to two above the bound, of the patch alone and of the
    merged policy only, with the list one and two levels down."""
    policies = store_with_big_policy(rules)
    stored = _check_data(policies["big"], "NetworkPolicy")
    for wrap in (lambda v: {"x": v}, lambda v: {"spec": {"x": v}}):
        for aim in (_MAX_NODES - 2, _MAX_NODES - stored - 1):
            for leaves in range(aim - 3, aim + 3):
                _assert_patch_matches_both_walks(policies, "big", wrap([None] * leaves))
