"""Laws the kubectl interpreter obeys, as a Kubernetes API server does, on the broken stores
of generated queries."""

from hypothesis import HealthCheck, given, settings, strategies as st

from netbench.core.reactive import WRITE
from netbench.k8spolicy.connectivity import connectivity_check
from netbench.k8spolicy.generate import generate_k8s_query, rebuild_cluster
from netbench.k8spolicy.kubectl import exec_kubectl
from netbench.k8spolicy.model import cluster_digest


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 3), st.integers(0, 2**32))
def test_a_policy_read_as_yaml_applies_back_as_a_write_to_an_equal_store(level, seed):
    """Re-entry: ``get <name> -o yaml`` then ``apply -f -`` of its output is a write that
    stores an equal policy anew, so the store's views of it are computed again, and the
    store keeps its digest and its audit; every policy of the store in turn."""
    _, truth = generate_k8s_query(level, seed)
    policies = rebuild_cluster(truth)[1]
    before, verdict = cluster_digest(policies), connectivity_check(policies)
    for name in sorted(policies):
        shown = exec_kubectl(policies, f"kubectl get networkpolicy {name} -o yaml")
        applied = exec_kubectl(policies, "kubectl apply -f -\n" + shown.output)
        assert applied.kind == WRITE, applied.output
        assert applied.state[name] == policies[name] and applied.state[name] is not policies[name]
        policies = applied.state
        assert cluster_digest(policies) == before
        assert connectivity_check(policies) == verdict
