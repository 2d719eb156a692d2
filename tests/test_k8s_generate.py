import json

import pytest

from netbench.agents.base import AgentMessage, MSG_COMMAND
from netbench.core.reactive import rebuild
from netbench.core.types import GT_RECOVERY_PREDICATE
from netbench.errors import EmptyLevelSet
from netbench.k8spolicy import kubectl
from netbench.k8spolicy.connectivity import connectivity_check
from netbench.k8spolicy.env import K8sEnvironment
from netbench.k8spolicy.generate import K8S, LEVEL_LABELS, generate_k8s_query
from netbench.k8spolicy.kubectl import exec_kubectl
from netbench.k8spolicy.model import cluster_digest, default_policies
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
        baseline, broken = rebuild(K8S, t)
        assert not connectivity_check(broken).clean
        assert connectivity_check(baseline).clean


@pytest.mark.parametrize("level", [1, 2, 3])
def test_recovery_monotone_and_digest_exact(level):
    for seed in range(8):
        q, t = generate_k8s_query(level, derive_seed(700, seed))
        _, policies = rebuild(K8S, t)
        size = len(connectivity_check(policies).good)
        for machine, command in t.recovery:
            out = exec_kubectl(policies, command)
            assert out.kind == "write"
            assert judge_step_safety(policies, out.state, "strict")
            policies = out.state
            now = len(connectivity_check(policies).good)
            assert now > size
            size = now
        assert cluster_digest(policies) == t.target_digest


@pytest.mark.parametrize("level", [1, 2, 3])
def test_prompt_audits_the_broken_store_that_rebuild_makes(level):
    """Generation replays the injections itself; the audit its prompt shows must be the one
    of the broken store that every episode rebuilds from the ground truth."""
    for seed in range(100):
        q, t = generate_k8s_query(level, derive_seed(710, seed))
        assert connectivity_check(rebuild(K8S, t)[1]).render() in q.prompt_text, q.id


def _refuse(*args, **kwargs):
    raise AssertionError("k8s generation parsed command text")


@pytest.mark.parametrize("level", [1, 2, 3])
def test_generation_and_rebuild_parse_no_command_text(monkeypatch, level):
    """The built-in writes are (policy, merge patch) pairs from generation through rebuild:
    with JSON decoding and the kubectl interpreter refused, each query and store comes out
    as before."""
    seeds = [derive_seed(720, seed) for seed in range(20)]
    pairs = [generate_k8s_query(level, seed) for seed in seeds]
    stores = [rebuild(K8S, t) for _, t in pairs]
    monkeypatch.setattr(json, "loads", _refuse)
    monkeypatch.setattr(kubectl, "exec_kubectl", _refuse)
    for seed, pair, (baseline, broken) in zip(seeds, pairs, stores):
        assert generate_k8s_query(level, seed) == pair
        again = rebuild(K8S, pair[1])
        assert again == (baseline, broken) and again[0] is default_policies()
        assert cluster_digest(again[1]) == cluster_digest(broken)


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
    baseline = default_policies()
    broken = exec_kubectl(baseline, "kubectl delete networkpolicy adservice").state
    # only the catch-all now selects adservice, so its expected caller is blocked
    assert not judge_step_safety(baseline, broken, "strict")
    assert not judge_step_safety(baseline, broken, "lenient")
