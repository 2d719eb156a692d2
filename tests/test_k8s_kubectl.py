import json

import pytest
import yaml

from netbench.k8spolicy import kubectl, model
from netbench.k8spolicy.connectivity import connectivity_check
from netbench.k8spolicy.kubectl import INVALID, READ, WRITE, exec_kubectl, merge_patch
from netbench.digest import digest
from netbench.k8spolicy.model import PolicyStore, cluster_digest, default_policies


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
        policies = applied.state
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
    assert out.state["adservice"]["spec"]["podSelector"]["matchLabels"]["app"] == "other"
    # rest of the policy's spec field is untouched
    assert out.state["adservice"]["spec"]["ingress"] == policies["adservice"]["spec"]["ingress"]


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
    assert "extra" in out.state


def test_apply_rejects_non_policy(policies):
    out = exec_kubectl(policies, "kubectl apply -f -\nkind: Pod\nmetadata: {name: x}")
    assert out.kind == INVALID


def test_delete(policies):
    out = exec_kubectl(policies, "kubectl delete networkpolicy adservice")
    assert out.kind == WRITE
    assert "adservice" not in out.state
    again = exec_kubectl(out.state, "kubectl delete networkpolicy adservice")
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
    assert cluster_digest(out.state) == d
    connectivity_check(out.state)
    assert exec_kubectl(out.state, "kubectl get networkpolicies").kind == READ
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
    # the stored policy may share the node the manifest aliases; its YAML is dumped from a
    # fresh JSON tree, which shares none, so the node is written out twice
    manifest = "\n".join([
        "kind: NetworkPolicy",
        "metadata: {name: extra}",
        "spec:",
        "  podSelector: &web {matchLabels: {app: frontend}}",
        "  ingress: [{from: [{podSelector: *web}]}]",
    ])
    applied = exec_kubectl(policies, "kubectl apply -f -\n" + manifest)
    assert applied.kind == WRITE, applied.output
    shown = exec_kubectl(applied.state, "kubectl get networkpolicy extra -o yaml").output
    described = exec_kubectl(applied.state, "kubectl describe networkpolicy extra").output
    for text in (shown, described):
        assert "&" not in text and "*" not in text, text
    assert yaml.safe_load(shown) == yaml.safe_load(manifest)


def test_strings_holding_a_surrogate_are_rejected_and_the_character_is_kept(policies):
    # YAML escapes give two lone surrogates, which no UTF-8 text holds; JSON joins the pair
    patched = exec_kubectl(policies, "kubectl patch networkpolicy frontend --type merge -p "
                                     """'{"metadata": {"labels": {"x": "\\ud83d\\ude00"}}}'""")
    assert patched.kind == WRITE, patched.output
    assert patched.state["frontend"]["metadata"]["labels"] == {"x": "\U0001F600"}
    shown = exec_kubectl(patched.state, "kubectl get networkpolicy frontend -o yaml").output
    assert shown == yaml.safe_dump(patched.state["frontend"], sort_keys=True,
                                   default_flow_style=False)
    manifest = yaml.safe_dump(policies["frontend"]).replace(
        "name: frontend", 'labels: {x: "\\ud83d\\ude00"}\n  name: frontend')
    applied = exec_kubectl(policies, "kubectl apply -f -\n" + manifest)
    assert (applied.kind, applied.output) == (
        INVALID, "error validating data: NetworkPolicy.metadata.labels.x: "
                 "strings must be valid UTF-8")
    lone = exec_kubectl(policies, "kubectl patch networkpolicy frontend --type merge -p "
                                  """'{"metadata": {"labels": {"\\udc00": "x"}}}'""")
    assert (lone.kind, lone.output) == (
        INVALID, 'The NetworkPolicy "frontend" is invalid: patch.metadata.labels: '
                 'keys must be valid UTF-8')


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
    deleted = exec_kubectl(applied.state, f"kubectl delete networkpolicy {name}")
    assert deleted.kind == WRITE and deleted.state == policies


def test_get_reads_the_output_flag_as_a_pair(policies):
    as_yaml = exec_kubectl(policies, "kubectl get networkpolicy frontend -o yaml").output
    for rest in ("frontend -o yaml", "-o yaml frontend", "frontend -oyaml", "-oyaml frontend"):
        out = exec_kubectl(policies, f"kubectl get networkpolicy {rest}")
        assert (out.kind, out.output) == (READ, as_yaml)
    as_list = exec_kubectl(policies, "kubectl get networkpolicy -o yaml").output
    assert exec_kubectl(policies, "kubectl get networkpolicy -oyaml").output == as_list
    assert as_list.startswith("apiVersion: v1\nitems:\n")
    assert exec_kubectl(policies, "kubectl get networkpolicy frontend").output == "frontend"
    # a bare yaml is a name
    out = _assert_rejected(policies, "kubectl get networkpolicy yaml")
    assert out.output == ('Error from server (NotFound): '
                          'networkpolicies.networking.k8s.io "yaml" not found')
    for rest in ("frontend yaml", "frontend -o", "-o frontend", "-o", "frontend -o json",
                 "-o json frontend", "frontend -o -o yaml"):
        out = _assert_rejected(policies, f"kubectl get networkpolicy {rest}")
        assert out.output == "usage: kubectl get networkpolicy [<name> [-o yaml]]"


def test_get_yaml_without_a_name_prints_the_store_as_a_list(policies):
    out = exec_kubectl(policies, "kubectl get networkpolicy -o yaml")
    assert out.kind == READ and out.state is policies
    assert yaml.safe_load(out.output) == {
        "apiVersion": "v1", "items": [policies[name] for name in sorted(policies)],
        "kind": "List", "metadata": {"resourceVersion": ""}}
    assert out.output.startswith("apiVersion: v1\nitems:\n- apiVersion: networking.k8s.io/v1\n"
                                 "  kind: NetworkPolicy\n  metadata:\n    name: adservice\n")
    assert out.output.endswith("kind: List\nmetadata:\n  resourceVersion: ''\n")
    assert digest(out.output) == \
        "c37aca6fec559898100a3c4f9edc01bb515055beab3f7310beccfcb503016d15"
    empty = exec_kubectl(PolicyStore({}), "kubectl get networkpolicy -o yaml").output
    assert empty == "apiVersion: v1\nitems: []\nkind: List\nmetadata:\n  resourceVersion: ''\n"


_HUGE = "9" * 5000  # past int()'s 4,300-digit limit on decimal text


@pytest.mark.parametrize("command, prefix", [
    (_patch("adservice", '{"spec": {"x": ' + _HUGE + "}}"), "error decoding patch: "),
    ("kubectl apply -f -\nkind: NetworkPolicy\nmetadata: {name: x}\nspec: {x: " + _HUGE + "}",
     "error parsing manifest: "),
], ids=["patch", "apply"])
def test_a_huge_integer_is_an_invalid_turn(policies, command, prefix):
    assert _assert_rejected(policies, command).output.startswith(prefix)


@pytest.mark.parametrize("command, message", [
    # hexadecimal text has no digit limit, and the decimal form of this one would have 6,021
    ("kubectl apply -f -\nkind: NetworkPolicy\nmetadata: {name: x}\nspec: {x: 0x" + "f" * 5000
     + "}", "error validating data: NetworkPolicy.spec.x: integer out of range"),
    (_patch("adservice", '{"spec": {"x": %d}}' % 2**63),
     _INVALID_PATCH + "patch.spec.x: integer out of range"),
], ids=["apply", "patch"])
def test_an_integer_beyond_int64_is_rejected(policies, command, message):
    assert _assert_rejected(policies, command).output == message
    assert exec_kubectl(policies, _patch("adservice", '{"spec": {"x": %d}}' % (2**63 - 1))).kind \
        == WRITE


def test_a_patch_whose_merged_policy_is_too_large_is_rejected(policies):
    """Each part is within the node bound alone: the applied policy (900 rules of 8 nodes) and
    the patch (1,200 peers of 4 nodes) are each accepted, but the merged policy is not. Which
    node the walk stops at depends on the order it visits keys in, so the path is not pinned."""
    rules = [{"from": [{"podSelector": {}}], "ports": [{"port": 80, "protocol": "TCP"}]}] * 900
    applied = exec_kubectl(policies, "kubectl apply -f -\n" + json.dumps({
        "kind": "NetworkPolicy", "metadata": {"name": "big"},
        "spec": {"podSelector": {}, "ingress": rules}}))
    assert applied.kind == WRITE, applied.output
    patch = json.dumps({"spec": {"egress": [
        {"to": [{"podSelector": {"matchLabels": {"app": "web"}}}] * 1200}]}})
    assert exec_kubectl(policies, _patch("adservice", patch)).kind == WRITE
    out = _assert_rejected(applied.state, _patch("big", patch))
    assert out.state is applied.state
    assert out.output.startswith('The NetworkPolicy "big" is invalid: NetworkPolicy.')
    assert out.output.endswith(": too large")


_NAMESPACE_FLAGS = ["-n default", "-ndefault", "-n=default", "--namespace default",
                    "--namespace=default"]
_NAMESPACED = [  # (command with {ns} where a flag may stand, expected kind)
    ("kubectl get networkpolicies {ns}", READ),
    ("kubectl get {ns} networkpolicy -o yaml", READ),
    ("kubectl get networkpolicy frontend {ns} -o yaml", READ),
    ("kubectl get networkpolicy {ns} frontend", READ),
    ("kubectl describe networkpolicy frontend {ns}", READ),
    ("kubectl describe {ns} netpol frontend", READ),
    ("kubectl delete networkpolicy adservice {ns}", WRITE),
    ("kubectl patch networkpolicy adservice {ns} --type merge "
     "-p '{{\"spec\": {{\"ingress\": []}}}}'", WRITE),
    ("kubectl apply {ns} -f -\nkind: NetworkPolicy\nmetadata: {{name: extra}}\nspec: {{}}", WRITE),
]


@pytest.mark.parametrize("flag", _NAMESPACE_FLAGS)
@pytest.mark.parametrize("command, kind", _NAMESPACED,
                         ids=[command.split("\n")[0] for command, _ in _NAMESPACED])
def test_every_verb_reads_the_default_namespace_flag_as_no_flag(policies, flag, command, kind):
    plain = exec_kubectl(policies, command.format(ns=""))
    flagged = exec_kubectl(policies, command.format(ns=flag))
    assert (flagged.kind, flagged.output) == (plain.kind, plain.output) and plain.kind == kind
    assert cluster_digest(flagged.state) == cluster_digest(plain.state)


@pytest.mark.parametrize("flag", ["-n other", "-nother", "-n=other", "--namespace other",
                                  "--namespace=other"])
def test_another_namespace_holds_no_policy(policies, flag):
    assert exec_kubectl(policies, f"kubectl get networkpolicies {flag}").output == \
        "No resources found in other namespace."
    assert exec_kubectl(policies, f"kubectl get networkpolicies {flag} -o yaml").output == \
        exec_kubectl(PolicyStore({}), "kubectl get networkpolicies -o yaml").output
    not_found = 'Error from server (NotFound): networkpolicies.networking.k8s.io "frontend" ' \
                'not found'
    for command in (f"kubectl get networkpolicy frontend {flag}",
                    f"kubectl get networkpolicy frontend -o yaml {flag}",
                    f"kubectl describe networkpolicy frontend {flag}",
                    f"kubectl delete networkpolicy frontend {flag}",
                    f"kubectl patch networkpolicy frontend {flag} --type merge -p '{{}}'"):
        assert _assert_rejected(policies, command).output == not_found, command
    manifest = "\nkind: NetworkPolicy\nmetadata: {name: extra}\nspec: {}"
    assert _assert_rejected(policies, f"kubectl apply -f - {flag}" + manifest).output == \
        "error validating data: metadata.namespace: must be default"


def test_an_empty_store_lists_no_resources(policies):
    assert exec_kubectl(PolicyStore({}), "kubectl get networkpolicies").output == \
        "No resources found in default namespace."
    emptied = policies
    for name in sorted(policies):
        emptied = exec_kubectl(emptied, f"kubectl delete networkpolicy {name}").state
    listed = exec_kubectl(emptied, "kubectl get networkpolicies -n default")
    assert (listed.kind, listed.output) == (READ, "No resources found in default namespace.")


_LABELLED = "'{\"metadata\": {\"labels\": {\"a\": \"b\"}}}'"


@pytest.mark.parametrize("command", [
    f"kubectl patch networkpolicy adservice --type merge -p {_LABELLED}",
    f"kubectl patch networkpolicy adservice --type=merge -p {_LABELLED}",
    f"kubectl patch --type merge networkpolicy adservice -p {_LABELLED}",
    f"kubectl patch networkpolicy adservice -p {_LABELLED} --type merge",
    f"kubectl patch networkpolicy adservice -p {_LABELLED} --type=merge -n default",
    f"kubectl patch networkpolicy adservice -p {_LABELLED}  --type merge  ",
])
def test_patch_reads_its_type_flag_before_or_after_the_payload(policies, command):
    out = exec_kubectl(policies, command)
    assert (out.kind, out.output) == (WRITE, "networkpolicy.networking.k8s.io/adservice patched")
    assert out.state["adservice"]["metadata"]["labels"] == {"a": "b"}


@pytest.mark.parametrize("command, message", [
    ("kubectl patch networkpolicy adservice -p "
     "'{\"metadata\": {\"labels\": {\"a\": \"x --type merge y\"}}}'",
     "kubectl patch: only --type merge is supported"),
    ("kubectl patch networkpolicy adservice -p '{\"merge\": 1}' --type",
     "kubectl patch: only --type merge is supported"),
    (f"kubectl patch networkpolicy adservice --type json -p {_LABELLED}",
     "kubectl patch: only --type merge is supported"),
    (f"kubectl patch networkpolicy adservice --type merge -p {_LABELLED} --type=json",
     "kubectl patch: only --type merge is supported"),
    (f"kubectl patch networkpolicy adservice -p {_LABELLED} --type merge extra", _PATCH_USAGE),
    (f"kubectl patch networkpolicy adservice extra --type merge -p {_LABELLED}", _PATCH_USAGE),
    (f"kubectl patch networkpolicy adservice -p {_LABELLED} --type merge -n other",
     'Error from server (NotFound): networkpolicies.networking.k8s.io "adservice" not found'),
])
def test_patch_reads_no_flag_from_its_payload(policies, command, message):
    assert _assert_rejected(policies, command).output == message


@pytest.mark.parametrize("command, message", [
    ("kubectl get networkpolicies -A", "usage: kubectl get networkpolicy [<name> [-o yaml]]"),
    ("kubectl get networkpolicy --all-namespaces -o yaml",
     "usage: kubectl get networkpolicy [<name> [-o yaml]]"),
    ("kubectl describe networkpolicy -A", "usage: kubectl describe networkpolicy <name>"),
    ("kubectl describe networkpolicy frontend extra",
     "usage: kubectl describe networkpolicy <name>"),
    ("kubectl delete networkpolicy frontend extra", "usage: kubectl delete networkpolicy <name>"),
    ("kubectl delete networkpolicy --all", "usage: kubectl delete networkpolicy <name>"),
    ("kubectl patch networkpolicy --type merge -p '{}'", _PATCH_USAGE),
    ("kubectl get networkpolicies -n", "error: flag needs an argument: 'n' in -n"),
    ("kubectl get networkpolicies -n=", "error: flag needs an argument: 'n' in -n"),
    ("kubectl describe networkpolicy frontend --namespace",
     "error: flag needs an argument: --namespace"),
    ("kubectl delete networkpolicy frontend --namespace= ",
     "error: flag needs an argument: --namespace"),
    ("kubectl get networkpolicy -n -o yaml", "error: flag needs an argument: 'n' in -n"),
], ids=lambda value: value if value.startswith("kubectl") else "")
def test_flags_are_never_names_and_extra_words_are_usage_errors(policies, command, message):
    assert _assert_rejected(policies, command).output == message


def test_a_store_reads_each_policy_yaml_once(policies, monkeypatch):
    """``describe`` and ``get <name> -o yaml`` read a policy's YAML as a view of the store: one
    ``policy_yaml`` key and at most one dump per policy and store, and a baseline policy's YAML,
    shared by every store that holds the baseline's object, is dumped at most once per process
    even after the process-wide memo has forgotten it."""
    dumps, keys = [], []
    safe_dump, policy_yaml = yaml.safe_dump, kubectl.policy_yaml
    monkeypatch.setattr(yaml, "safe_dump", lambda *a, **k: dumps.append(a) or safe_dump(*a, **k))
    monkeypatch.setattr(kubectl, "policy_yaml", lambda p: keys.append(p) or policy_yaml(p))
    model._yaml_of.cache_clear()
    patched = exec_kubectl(policies, _patch("frontend", '{"metadata": {"labels": {"a": "b"}}}'))
    for command in ("kubectl describe networkpolicy frontend",
                    "kubectl get networkpolicy frontend -o yaml",
                    "kubectl describe networkpolicy frontend -n default"):
        assert exec_kubectl(patched.state, command).kind == READ
    assert len(dumps) <= 1 and len(keys) == 1
    exec_kubectl(policies, "kubectl describe networkpolicy cartservice")
    model._yaml_of.cache_clear()
    dumps.clear()
    for store in (policies, patched.state):
        assert exec_kubectl(store, "kubectl get networkpolicy cartservice -o yaml").kind == READ
    assert dumps == []
