import json

import pytest
import yaml

from netbench.k8spolicy.connectivity import connectivity_check
from netbench.k8spolicy.kubectl import INVALID, READ, WRITE, exec_kubectl, merge_patch
from netbench.k8spolicy.model import cluster_digest, default_policies


@pytest.fixture
def policies():
    return default_policies()


def test_merge_patch_rfc_semantics():
    assert merge_patch({"a": 1, "b": 2}, {"b": 3}) == {"a": 1, "b": 3}
    assert merge_patch({"a": 1}, {"a": None}) == {}
    assert merge_patch({"a": {"x": 1, "y": 2}}, {"a": {"y": None, "z": 3}}) == {"a": {"x": 1, "z": 3}}
    assert merge_patch({"a": [1, 2]}, {"a": [9]}) == {"a": [9]}  # lists replace wholesale
    assert merge_patch("scalar", {"a": 1}) == {"a": 1}


def test_get_lists_all(policies):
    out = exec_kubectl(policies, "kubectl get networkpolicies")
    assert out.kind == READ
    assert "frontend" in out.output and "default-deny" in out.output


def test_get_yaml_and_apply_round_trip(policies):
    d = cluster_digest(policies)
    for name in policies:
        shown = exec_kubectl(policies, f"kubectl get networkpolicy {name} -o yaml")
        assert shown.kind == READ
        applied = exec_kubectl(policies, "kubectl apply -f -\n" + shown.output)
        assert applied.kind == WRITE
        policies = applied.policies
    assert cluster_digest(policies) == d


def test_get_missing_policy(policies):
    out = exec_kubectl(policies, "kubectl get networkpolicy nothere -o yaml")
    assert out.kind == INVALID and "NotFound" in out.output


def test_describe(policies):
    out = exec_kubectl(policies, "kubectl describe networkpolicy cartservice")
    assert out.kind == READ and "podSelector" in out.output


def test_patch_merge(policies):
    patch = json.dumps({"spec": {"podSelector": {"matchLabels": {"app": "other"}}}})
    out = exec_kubectl(policies,
                       f"kubectl patch networkpolicy adservice --type merge -p '{patch}'")
    assert out.kind == WRITE
    assert out.policies["adservice"]["spec"]["podSelector"]["matchLabels"]["app"] == "other"
    # rest of the policy's spec field is untouched
    assert out.policies["adservice"]["spec"]["ingress"] == policies["adservice"]["spec"]["ingress"]


def test_patch_requires_merge_type(policies):
    out = exec_kubectl(policies, "kubectl patch networkpolicy adservice -p '{}'")
    assert out.kind == INVALID


def test_patch_bad_json(policies):
    out = exec_kubectl(policies, "kubectl patch networkpolicy adservice --type merge -p '{oops'")
    assert out.kind == INVALID and "decoding" in out.output


def test_apply_new_policy(policies):
    manifest = "\n".join([
        "apiVersion: networking.k8s.io/v1",
        "kind: NetworkPolicy",
        "metadata:",
        "  name: extra",
        "  namespace: default",
        "spec:",
        "  podSelector: {}",
        "  policyTypes: [Ingress]",
        "  ingress: []",
    ])
    out = exec_kubectl(policies, "kubectl apply -f -\n" + manifest)
    assert out.kind == WRITE and "created" in out.output
    assert "extra" in out.policies


def test_apply_rejects_non_policy(policies):
    out = exec_kubectl(policies, "kubectl apply -f -\nkind: Pod\nmetadata: {name: x}")
    assert out.kind == INVALID


def test_delete(policies):
    out = exec_kubectl(policies, "kubectl delete networkpolicy adservice")
    assert out.kind == WRITE
    assert "adservice" not in out.policies
    again = exec_kubectl(out.policies, "kubectl delete networkpolicy adservice")
    assert again.kind == INVALID


def test_input_policies_never_mutated(policies):
    d = cluster_digest(policies)
    exec_kubectl(policies, "kubectl delete networkpolicy adservice")
    patch = json.dumps({"spec": {"ingress": []}})
    exec_kubectl(policies, f"kubectl patch networkpolicy adservice --type merge -p '{patch}'")
    assert cluster_digest(policies) == d


def test_unsupported_commands_invalid(policies):
    for cmd in ("", "ls", "sudo kubectl get netpol", "kubectl exec -it pod -- sh",
                "kubectl get pods", "kubectl apply -f file.yaml"):
        out = exec_kubectl(policies, cmd)
        assert out.kind == INVALID, cmd


def _patch(name, payload):
    return f"kubectl patch networkpolicy {name} --type merge -p '{payload}'"


def _assert_rejected(policies, command):
    d = cluster_digest(policies)
    out = exec_kubectl(policies, command)
    assert out.kind == INVALID, out.output
    assert cluster_digest(out.policies) == d
    connectivity_check(out.policies)
    assert exec_kubectl(out.policies, "kubectl get networkpolicies").kind == READ
    return out


def test_patch_spec_not_an_object_rejected(policies):
    out = _assert_rejected(policies, _patch("adservice", '{"spec": 5}'))
    assert "spec" in out.output


def test_patch_not_an_object_rejected(policies):
    _assert_rejected(policies, _patch("adservice", "[1,2]"))


def test_patch_string_pod_selector_rejected(policies):
    out = _assert_rejected(policies, _patch("adservice", '{"spec": {"podSelector": "app=x"}}'))
    assert "podSelector" in out.output


def test_apply_without_spec_rejected(policies):
    _assert_rejected(policies, "kubectl apply -f -\nkind: NetworkPolicy\nmetadata: {name: extra}")


_MALFORMED = {
    "null spec": _patch("adservice", '{"spec": null}'),
    "peer selector not an object":
        _patch("adservice", '{"spec": {"ingress": [{"from": [{"podSelector": 3}]}]}}'),
    "ports not a list": _patch("adservice", '{"spec": {"ingress": [{"ports": {"port": 1}}]}}'),
    "matchLabels not an object":
        _patch("adservice", '{"spec": {"podSelector": {"matchLabels": []}}}'),
    "policyTypes not a list": _patch("adservice", '{"spec": {"policyTypes": "Ingress"}}'),
    "nested too deeply": _patch("adservice", '{"spec": {"x": ' + "[" * 3000 + "]" * 3000 + "}}"),
    "metadata not an object": "kubectl apply -f -\nkind: NetworkPolicy\nmetadata: extra\nspec: {}",
    "name not a string":
        "kubectl apply -f -\nkind: NetworkPolicy\nmetadata: {name: [1]}\nspec: {}",
    "date value": "kubectl apply -f -\nkind: NetworkPolicy\n"
                  "metadata: {name: x, labels: {d: 2020-01-01}}\nspec: {}",
    "null podSelector":
        "kubectl apply -f -\nkind: NetworkPolicy\nmetadata: {name: x}\nspec: {podSelector: null}",
    "egress not a list":
        "kubectl apply -f -\nkind: NetworkPolicy\nmetadata: {name: x}\nspec: {egress: {to: []}}",
    "alias bomb": "kubectl apply -f -\nkind: NetworkPolicy\nmetadata: {name: x}\nspec:\n"
    + "".join(f"  l{i}: &l{i} [" + ",".join([f"*l{i - 1}" if i else "1"] * 10) + "]\n"
              for i in range(6)),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_policy_shapes_rejected(policies, case):
    _assert_rejected(policies, _MALFORMED[case])


def test_get_yaml_of_an_applied_alias_has_no_anchor(policies):
    # kubectl stores a fresh canonical tree, so a node the manifest shares is dumped twice
    manifest = "\n".join([
        "kind: NetworkPolicy",
        "metadata: {name: extra}",
        "spec:",
        "  podSelector: &web {matchLabels: {app: frontend}}",
        "  ingress: [{from: [{podSelector: *web}]}]",
    ])
    applied = exec_kubectl(policies, "kubectl apply -f -\n" + manifest)
    assert applied.kind == WRITE, applied.output
    shown = exec_kubectl(applied.policies, "kubectl get networkpolicy extra -o yaml").output
    described = exec_kubectl(applied.policies, "kubectl describe networkpolicy extra").output
    for text in (shown, described):
        assert "&" not in text and "*" not in text, text
    assert yaml.safe_load(shown) == yaml.safe_load(manifest)
