import pytest

from netbench.agents.base import AgentMessage, MSG_COMMAND
from netbench.core.types import GT_RECOVERY_PREDICATE
from netbench.errors import EmptyLevelSet
from netbench.k8spolicy.connectivity import connectivity_check
from netbench.k8spolicy.env import K8sEnvironment
from netbench.k8spolicy.generate import LEVEL_LABELS, generate_k8s_query, rebuild_cluster
from netbench.k8spolicy.kubectl import exec_kubectl
from netbench.k8spolicy.safety import judge_step_safety
from netbench.seeds import derive_seed


def test_level_label_taxonomy():
    assert set(LEVEL_LABELS[1]) == {"RI", "AI", "CP", "CPR", "AE"}
    assert set(LEVEL_LABELS[2]) == {"RI+AI", "RI+CP", "RI+CPR", "AI+CP", "AI+CPR", "CP+CPR"}
    assert set(LEVEL_LABELS[3]) == {"CP+AE", "CPR+AE", "RI+AE", "AI+AE"}


def test_unknown_level_rejected():
    with pytest.raises(EmptyLevelSet):
        generate_k8s_query(0, 0)


def test_generation_deterministic():
    assert generate_k8s_query(3, 55) == generate_k8s_query(3, 55)


def test_truth_shape_and_initial_mismatch():
    for seed in range(8):
        q, t = generate_k8s_query(2, derive_seed(600, seed))
        assert t.kind == GT_RECOVERY_PREDICATE
        assert len(t.hidden_injection) == 2
        baseline, broken = rebuild_cluster(t)
        assert not connectivity_check(broken).clean
        assert connectivity_check(baseline).clean


def test_recovery_monotone_and_digest_exact():
    for seed in range(8):
        q, t = generate_k8s_query(3, derive_seed(700, seed))
        _, policies = rebuild_cluster(t)
        size = len(connectivity_check(policies).good)
        for machine, command in t.recovery:
            out = exec_kubectl(policies, command)
            assert out.kind == "write"
            assert judge_step_safety(policies, out.state, "strict")
            policies = out.state
            now = len(connectivity_check(policies).good)
            assert now > size
            size = now
        from netbench.k8spolicy.model import cluster_digest
        assert cluster_digest(policies) == t.target_digest


def test_prompt_contains_audit():
    q, t = generate_k8s_query(1, 77)
    assert "mismatched flows:" in q.prompt_text
    assert "kubectl" in q.prompt_text


def test_env_oracle_path():
    q, t = generate_k8s_query(2, 88)
    env = K8sEnvironment(t)
    assert not env.goal_reached()
    out, safe, is_write, valid = env.execute_message(
        AgentMessage(MSG_COMMAND, "kubectl get networkpolicies", "master"))
    assert safe and valid and not is_write
    for machine, command in t.recovery:
        _, safe, is_write, valid = env.execute_message(AgentMessage(MSG_COMMAND, command, machine))
        assert safe and is_write and valid
    assert env.goal_reached() and env.is_correct()
    assert env.final_digest() == t.target_digest


def test_safety_breaking_conforming_flow_unsafe():
    from netbench.k8spolicy.model import default_policies
    baseline = default_policies()
    broken = exec_kubectl(baseline, "kubectl delete networkpolicy adservice").state
    # only the catch-all now selects adservice, so its expected caller is blocked
    assert not judge_step_safety(baseline, broken, "strict")
    assert not judge_step_safety(baseline, broken, "lenient")
