"""Laws the kubectl interpreter obeys, as a Kubernetes API server does, on the broken stores
of generated queries."""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from netbench.core.reactive import WRITE, rebuild
from netbench.k8spolicy.connectivity import connectivity_check
from netbench.k8spolicy.generate import K8S, generate_k8s_query
from netbench.k8spolicy.kubectl import exec_kubectl
from netbench.k8spolicy.model import SERVICE_PORTS, SERVICES, cluster_digest


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 3), st.integers(0, 2**32))
def test_a_policy_read_as_yaml_applies_back_as_a_write_to_an_equal_store(level, seed):
    """Re-entry: ``get <name> -o yaml`` then ``apply -f -`` of its output is a write that
    stores an equal policy anew, so the store's views of it are computed again, and the
    store keeps its digest and its audit; every policy of the store in turn."""
    _, truth = generate_k8s_query(level, seed)
    policies = rebuild(K8S, truth)[1]
    before, verdict = cluster_digest(policies), connectivity_check(policies)
    for name in sorted(policies):
        shown = exec_kubectl(policies, f"kubectl get networkpolicy {name} -o yaml")
        applied = exec_kubectl(policies, "kubectl apply -f -\n" + shown.output)
        assert applied.kind == WRITE, applied.output
        assert applied.state[name] == policies[name] and applied.state[name] is not policies[name]
        policies = applied.state
        assert cluster_digest(policies) == before
        assert connectivity_check(policies) == verdict


def _stores(truth):
    """The baseline and the broken store of ``truth``, and each store its stored repair passes
    through."""
    baseline, policies = rebuild(K8S, truth)
    stores = [baseline, policies]
    for _, command in truth.recovery:
        policies = exec_kubectl(policies, command).state
        stores.append(policies)
    return stores


_SELECTOR = st.one_of(st.just({}), st.sampled_from([*SERVICES, "nosuch"]).map(
    lambda app: {"matchLabels": {"app": app}}))


def _rules(peer_key):
    rule = st.fixed_dictionaries({}, optional={
        peer_key: st.lists(_SELECTOR.map(lambda sel: {"podSelector": sel}), max_size=2),
        "ports": st.lists(st.sampled_from(sorted(SERVICE_PORTS.values())).map(
            lambda port: {"port": port, "protocol": "TCP"}), max_size=2),
    })
    return st.one_of(st.none(), st.lists(rule, max_size=2))


# a valid merge patch of a policy's spec; a null deletes its key
_SPEC_PATCH = st.fixed_dictionaries({}, optional={
    "podSelector": _SELECTOR,
    "policyTypes": st.sampled_from([["Ingress"], ["Egress"], ["Ingress", "Egress"]]),
    "ingress": _rules("from"),
    "egress": _rules("to"),
})


def _undoing(old: dict, patch: dict) -> dict:
    """The merge patch that gives back ``old``'s values of what ``patch`` sets: key by key
    where both are objects, else the old value, or null where ``old`` has none."""
    return {key: _undoing(old[key], value)
            if isinstance(value, dict) and isinstance(old.get(key), dict) else old.get(key)
            for key, value in patch.items()}


def _patch(name: str, patch: dict) -> str:
    return f"kubectl patch networkpolicy {name} --type merge -p '{json.dumps(patch)}'"


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), st.integers(1, 3), st.integers(0, 2**32))
def test_a_patch_and_the_patch_of_the_old_values_restore_the_digest_and_the_audit(
        data, level, seed):
    """Inverses: on a store a generated query passes through, a merge patch of a policy's
    spec, then the merge patch that gives back the stored policy's old values, are two writes
    that leave the store with the digest and the audit it had."""
    _, truth = generate_k8s_query(level, seed)
    policies = data.draw(st.sampled_from(_stores(truth)))
    name = data.draw(st.sampled_from(sorted(policies)))
    patch = {"spec": data.draw(_SPEC_PATCH)}
    before, verdict = cluster_digest(policies), connectivity_check(policies)
    written = exec_kubectl(policies, _patch(name, patch))
    undone = exec_kubectl(written.state, _patch(name, _undoing(policies[name], patch)))
    assert (written.kind, undone.kind) == (WRITE, WRITE), (written.output, undone.output)
    assert cluster_digest(undone.state) == before
    assert connectivity_check(undone.state) == verdict
