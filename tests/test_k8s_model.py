import yaml

from netbench.cli import main
from netbench.digest import digest
from netbench.k8spolicy.connectivity import connectivity_check
from netbench.k8spolicy.model import DEFAULT_DENY, EXPECTED_CALLERS, SERVICES, \
    SERVICE_PORTS, PolicyStore, cluster_digest, default_policies, expected_flows, \
    flow_universe, policy_yaml

BASELINE_DIGEST = "d03ce20a5da051faaeaae965a034c8129cdde2271852617832df4f2664e09d15"


def test_twelve_services_plus_client():
    assert len(SERVICES) == 12
    assert "loadgenerator" in SERVICES
    assert len(SERVICE_PORTS) == 11  # every service except the pure client


def test_known_ports():
    assert SERVICE_PORTS["adservice"] == 9555
    assert SERVICE_PORTS["cartservice"] == 7070
    assert SERVICE_PORTS["redis-cart"] == 6379


def test_expected_graph_shape():
    assert set(EXPECTED_CALLERS["cartservice"]) == {"checkoutservice", "frontend"}
    assert EXPECTED_CALLERS["frontend"] == ("loadgenerator",)
    assert EXPECTED_CALLERS["redis-cart"] == ("cartservice",)
    assert len(expected_flows()) == 16


def test_flow_universe_covers_all_client_server_pairs():
    flows = flow_universe()
    assert len(flows) == 12 * 11 - 11  # every service to every server, minus self-flows
    assert all(port == SERVICE_PORTS[dst] for _, dst, port in flows)


def test_default_policies_count_and_names():
    policies = default_policies()
    assert len(policies) == 13
    assert DEFAULT_DENY in policies
    assert set(policies) == set(SERVICES) | {DEFAULT_DENY}


def test_baseline_is_clean():
    policies = default_policies()
    report = connectivity_check(policies)
    assert report.clean
    assert "match the expected service graph" in report.render()


def test_baseline_allows_exactly_expected_flows():
    # a flow conforms when it is allowed exactly if expected: all conform, none mismatch
    report = connectivity_check(default_policies())
    assert report.good == frozenset(flow_universe()) and report.mismatches == []
    assert set(expected_flows()) < set(flow_universe())


def test_default_policies_are_ingress_only():
    for name, policy in default_policies().items():
        assert policy["spec"]["policyTypes"] == ["Ingress"]
        assert "egress" not in policy["spec"]


def test_cluster_digest_deterministic():
    assert cluster_digest(default_policies()) == BASELINE_DIGEST


def test_policy_yaml_round_trips():
    for name, policy in default_policies().items():
        text = policy_yaml(policy)
        assert yaml.safe_load(text) == policy


def test_wrong_port_is_blocked():
    # a new store: the baseline is shared, so no caller changes it in place
    baseline = default_policies()
    cart = baseline["cartservice"]
    rule = {**cart["spec"]["ingress"][0], "ports": [{"port": 9999, "protocol": "TCP"}]}
    policies = PolicyStore({**baseline, "cartservice": {**cart, "spec": {**cart["spec"],
                                                                         "ingress": [rule]}}})
    report = connectivity_check(policies)
    assert ("frontend", "cartservice", 7070) not in report.good
    assert ("frontend", "cartservice", 7070, True, False) in report.mismatches


def test_unselected_pod_defaults_to_deny_via_catch_all():
    # frontend -> adservice is expected, so it conforms exactly when it is allowed
    policies = PolicyStore({n: p for n, p in default_policies().items() if n != "adservice"})
    # with no per-service policy, default-deny still selects the pod
    assert ("frontend", "adservice", 9555) not in connectivity_check(policies).good
    policies = PolicyStore({n: p for n, p in policies.items() if n != DEFAULT_DENY})
    # with no selecting policy at all, ingress is unrestricted
    assert ("frontend", "adservice", 9555) in connectivity_check(policies).good


def test_the_shared_baseline_survives_generate_and_run(tmp_path):
    """Every k8s environment and every generated query starts from the one baseline store;
    a whole generate and run of each built-in agent must leave it as it was built."""
    assert default_policies() is default_policies()
    batch = tmp_path / "batch.jsonl"
    assert main(["generate", "--app", "k8s", "--num-queries", "6", "--levels", "1,2,3",
                 "--seed", "3", "--out", str(batch)]) == 0
    for agent in ("oracle", "random", "noop"):
        assert main(["run", "--batch", str(batch), "--agent", agent,
                     "--out", str(tmp_path / f"{agent}.jsonl")]) == 0
    assert cluster_digest(default_policies()) == BASELINE_DIGEST
    # serialised anew too: the spliced digest reuses fragments computed before the run
    assert digest(default_policies().policies) == BASELINE_DIGEST
