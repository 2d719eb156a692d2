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


_NOT_FOUND = 'Error from server (NotFound): networkpolicies.networking.k8s.io "nosuch" not found'
_PATCH_USAGE = "usage: kubectl patch networkpolicy <name> --type merge -p '<json>'"
_INVALID_PATCH = 'The NetworkPolicy "adservice" is invalid: '
_REJECTIONS = {
    "": "empty command",
    "sudo kubectl get netpol": "do not include sudo in commands",
    "ls -l": "unsupported command: ls",
    "kubectl": "kubectl: missing verb",
    "kubectl exec -it pod -- sh": "kubectl: unsupported verb 'exec'",
    "kubectl get pods": "kubectl get: only networkpolicy objects exist here",
    "kubectl get": "kubectl get: only networkpolicy objects exist here",
    "kubectl get networkpolicy nosuch -o yaml": _NOT_FOUND,
    "kubectl describe networkpolicy": "usage: kubectl describe networkpolicy <name>",
    "kubectl describe pods frontend": "usage: kubectl describe networkpolicy <name>",
    "kubectl describe netpol nosuch": _NOT_FOUND,
    "kubectl apply -f file.yaml": "kubectl apply: only '-f -' with an inline manifest is supported",
    "kubectl apply": "kubectl apply: only '-f -' with an inline manifest is supported",
    "kubectl apply -f -": "kubectl apply: empty manifest",
    "kubectl apply -f -\n   \n": "kubectl apply: empty manifest",
    "kubectl apply -f -\nkind: Pod\nmetadata: {name: x}":
        "error validating data: kind: must be NetworkPolicy",
    "kubectl apply -f -\n- 1": "error validating data: kind: must be NetworkPolicy",
    "kubectl apply -f -\nkind: NetworkPolicy\nmetadata: {name: x}\nspec: {1: a}":
        "error validating data: NetworkPolicy.spec: keys must be strings",
    "kubectl apply -f -\nkind: NetworkPolicy\nmetadata: {name: x}\nspec: {ingress: [1]}":
        "error validating data: spec.ingress: expected a list of objects",
    "kubectl apply -f -\nkind: NetworkPolicy\nmetadata: {name: x}\nspec: {ingress: [{from: [1]}]}":
        "error validating data: spec.ingress[0].from: expected a list of objects",
    "kubectl patch networkpolicy": _PATCH_USAGE,
    "kubectl patch pods x --type merge -p '{}'": _PATCH_USAGE,
    _patch("nosuch", "{}"): _NOT_FOUND,
    "kubectl patch networkpolicy adservice -p '{}'": "kubectl patch: only --type merge is supported",
    "kubectl patch networkpolicy adservice --type merge": "kubectl patch: missing -p '<json>' payload",
    _patch("adservice", "{oops"): "error decoding patch: Expecting property name enclosed in "
                                  "double quotes: line 1 column 2 (char 1)",
    _patch("adservice", "[1,2]"): "kubectl patch: a merge patch must be a JSON object",
    _patch("adservice", '"x"'): "kubectl patch: a merge patch must be a JSON object",
    _patch("adservice", '{"spec": 5}'): _INVALID_PATCH + "spec: expected an object",
    _patch("adservice", '{"spec": {"x": ' + "[" * 40 + "]" * 40 + "}}"):
        _INVALID_PATCH + "patch.spec.x" + "[0]" * 31 + ": nested too deeply",
    "kubectl delete networkpolicy": "usage: kubectl delete networkpolicy <name>",
    "kubectl delete pods x": "usage: kubectl delete networkpolicy <name>",
    "kubectl delete networkpolicy nosuch": _NOT_FOUND,
}


@pytest.mark.parametrize("command", sorted(_REJECTIONS))
def test_rejection_messages(policies, command):
    assert _assert_rejected(policies, command).output == _REJECTIONS[command]


_MALFORMED_MESSAGES = {
    "null spec": _INVALID_PATCH + "spec: expected an object",
    "peer selector not an object":
        _INVALID_PATCH + "spec.ingress[0].from[0].podSelector: expected an object",
    "ports not a list": _INVALID_PATCH + "spec.ingress[0].ports: expected a list of objects",
    "matchLabels not an object": _INVALID_PATCH + "spec.podSelector.matchLabels: expected an object",
    "policyTypes not a list": _INVALID_PATCH + "spec.policyTypes: expected a list of strings",
    "nested too deeply": "error decoding patch: maximum recursion depth exceeded while decoding "
                         "a JSON array from a unicode string",
    "metadata not an object": "error validating data: metadata.name: is required",
    "name not a string": "error validating data: metadata.name: is required",
    "date value":
        "error validating data: NetworkPolicy.metadata.labels.d: unsupported value of type date",
    "null podSelector": "error validating data: spec.podSelector: expected an object",
    "egress not a list": "error validating data: spec.egress: expected a list of objects",
    "alias bomb": "error validating data: NetworkPolicy.spec.l5[9][9][1][0][0][4]: too large",
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_policy_messages(policies, case):
    assert exec_kubectl(policies, _MALFORMED[case]).output == _MALFORMED_MESSAGES[case]


def test_manifest_parse_error_message(policies):
    out = _assert_rejected(policies, "kubectl apply -f -\n'")
    assert out.output.startswith("error parsing manifest: while scanning a quoted scalar\n")


def test_write_messages(policies):
    manifest = "kubectl apply -f -\nkind: NetworkPolicy\nmetadata: {name: %s}\nspec: {}"
    assert exec_kubectl(policies, manifest % "extra").output == \
        "networkpolicy.networking.k8s.io/extra created"
    assert exec_kubectl(policies, manifest % "frontend").output == \
        "networkpolicy.networking.k8s.io/frontend configured"
    assert exec_kubectl(policies, _patch("adservice", "{}")).output == \
        "networkpolicy.networking.k8s.io/adservice patched"
    assert exec_kubectl(policies, "kubectl delete networkpolicy adservice").output == \
        'networkpolicy.networking.k8s.io "adservice" deleted'


def test_apply_in_another_namespace_rejected(policies):
    shown = exec_kubectl(policies, "kubectl get networkpolicy cartservice -o yaml").output
    manifest = shown.replace("namespace: default", "namespace: other")
    out = _assert_rejected(policies, "kubectl apply -f -\n" + manifest)
    assert out.output == "error validating data: metadata.namespace: must be default"


@pytest.mark.parametrize("metadata, problem", [
    ({"name": "other"}, "metadata.name: field is immutable"),
    ({"namespace": "other"}, "metadata.namespace: must be default"),
    ({"namespace": None}, "metadata.namespace: field is immutable"),
], ids=["rename", "other namespace", "no namespace"])
def test_patch_cannot_move_a_policy(policies, metadata, problem):
    out = _assert_rejected(policies, _patch("adservice", json.dumps({"metadata": metadata})))
    assert out.output == _INVALID_PATCH + problem


def test_other_api_version_rejected(policies):
    out = _assert_rejected(policies, _patch("adservice", '{"apiVersion": "v9"}'))
    assert out.output == _INVALID_PATCH + "apiVersion: must be networking.k8s.io/v1"
    out = _assert_rejected(policies, "kubectl apply -f -\napiVersion: v9\n"
                                     "kind: NetworkPolicy\nmetadata: {name: x}\nspec: {}")
    assert out.output == "error validating data: apiVersion: must be networking.k8s.io/v1"


@pytest.mark.parametrize("rest", ["frontend -o json", "frontend -o wide", "frontend adservice",
                                  "frontend -o yaml adservice"])
def test_get_rejects_unsupported_forms(policies, rest):
    out = _assert_rejected(policies, f"kubectl get networkpolicy {rest}")
    assert out.output == "usage: kubectl get networkpolicy [<name> [-o yaml]]"


_BAD_NAME = ("error validating data: metadata.name: must be a DNS-1123 subdomain: at most 253 "
             "lowercase alphanumerics, '-' or '.', starting and ending alphanumeric")


@pytest.mark.parametrize("name", ["deny all", "Frontend", "-deny", "deny-", ".deny", "a_b",
                                  pytest.param("x" * 254, id="254 chars"), "deny\u00e9", "\u0661"])
def test_apply_rejects_a_name_that_is_not_a_dns_subdomain(policies, name):
    manifest = yaml.safe_dump({"apiVersion": "networking.k8s.io/v1", "kind": "NetworkPolicy",
                               "metadata": {"name": name},
                               "spec": {"podSelector": {}, "policyTypes": ["Ingress"]}})
    assert _assert_rejected(policies, "kubectl apply -f -\n" + manifest).output == _BAD_NAME


@pytest.mark.parametrize("name", ["deny-all", "a", "9", "deny.all.v2",
                                  pytest.param("x" * 253, id="253 chars")])
def test_apply_accepts_a_dns_subdomain_name_that_can_then_be_deleted(policies, name):
    manifest = yaml.safe_dump({"apiVersion": "networking.k8s.io/v1", "kind": "NetworkPolicy",
                               "metadata": {"name": name},
                               "spec": {"podSelector": {}, "policyTypes": ["Ingress"]}})
    applied = exec_kubectl(policies, "kubectl apply -f -\n" + manifest)
    assert applied.kind == WRITE
    deleted = exec_kubectl(applied.policies, f"kubectl delete networkpolicy {name}")
    assert deleted.kind == WRITE and deleted.policies == policies


def test_get_reads_the_output_flag_as_a_pair(policies):
    as_yaml = exec_kubectl(policies, "kubectl get networkpolicy frontend -o yaml").output
    for rest in ("frontend -o yaml", "-o yaml frontend", "frontend -oyaml", "-oyaml frontend"):
        out = exec_kubectl(policies, f"kubectl get networkpolicy {rest}")
        assert (out.kind, out.output) == (READ, as_yaml)
    listing = exec_kubectl(policies, "kubectl get networkpolicy").output
    assert exec_kubectl(policies, "kubectl get networkpolicy -o yaml").output == listing
    assert exec_kubectl(policies, "kubectl get networkpolicy frontend").output == "frontend"
    # a bare yaml is a name
    out = _assert_rejected(policies, "kubectl get networkpolicy yaml")
    assert out.output == ('Error from server (NotFound): '
                          'networkpolicies.networking.k8s.io "yaml" not found')
    for rest in ("frontend yaml", "frontend -o", "-o frontend", "-o", "frontend -o json",
                 "-o json frontend", "frontend -o -o yaml"):
        out = _assert_rejected(policies, f"kubectl get networkpolicy {rest}")
        assert out.output == "usage: kubectl get networkpolicy [<name> [-o yaml]]"
