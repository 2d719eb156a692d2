import json

import pytest

from netbench.core.reactive import rebuild
from netbench.core.types import GT_RECOVERY_PREDICATE, ActionSpec, GroundTruth
from netbench.errors import CorruptGroundTruth, MethodOutOfRange, UnknownFamily
from netbench.k8spolicy.connectivity import connectivity_check
from netbench.k8spolicy.generate import K8S
from netbench.k8spolicy.inject import AE_EGRESS_GRAPH, TARGETS, build_mutation
from netbench.k8spolicy.kubectl import exec_kubectl
from netbench.k8spolicy.model import EXPECTED_CALLERS, cluster_digest, default_policies
from builtin_writes import k8s_mutations


def mutation_of(family, target, param=""):
    return build_mutation(ActionSpec(family, (target, param)))


def forward_command(mutation):
    """The ``kubectl patch`` command of a mutation's one forward write."""
    (write,) = mutation.forward
    return write.render()[1]


def inverse_command(mutation):
    return mutation.inverse.render()[1]


def sample_mutations():
    yield mutation_of("RI", "cartservice", "frontend")
    yield mutation_of("AI", "adservice", "cartservice")
    yield mutation_of("CP", "emailservice")
    yield mutation_of("CPR", "paymentservice")
    yield mutation_of("AE", "frontend", "adservice")
    yield mutation_of("AE", "checkoutservice", "paymentservice")


def test_ri_targets_have_multiple_callers():
    assert all(len(EXPECTED_CALLERS[t]) >= 2 for t in TARGETS["RI"])


def test_ae_targets_have_rich_egress():
    for target in TARGETS["AE"]:
        assert len(AE_EGRESS_GRAPH[target]) >= 2


def test_unknown_family_rejected():
    with pytest.raises(UnknownFamily):
        mutation_of("XX", "frontend")


def test_invalid_parameters_rejected():
    with pytest.raises(MethodOutOfRange):
        mutation_of("RI", "frontend", "loadgenerator")  # single-caller target
    with pytest.raises(MethodOutOfRange):
        mutation_of("AI", "cartservice", "frontend")  # already expected
    with pytest.raises(MethodOutOfRange):
        mutation_of("AE", "adservice", "frontend")  # not a rich client
    with pytest.raises(MethodOutOfRange):
        mutation_of("CP", "loadgenerator")  # not a serving policy
    for family in ("CP", "CPR"):  # neither family reads a parameter, so none may be recorded
        with pytest.raises(MethodOutOfRange):
            mutation_of(family, "adservice", "frontend")


def test_every_mutation_is_observable():
    baseline = default_policies()
    for mutation in sample_mutations():
        out = exec_kubectl(baseline, forward_command(mutation))
        assert out.kind == "write", mutation
        report = connectivity_check(out.state)
        assert not report.clean, mutation.action


def test_every_inverse_restores_digest_exactly():
    baseline = default_policies()
    target = cluster_digest(baseline)
    for mutation in sample_mutations():
        broken = exec_kubectl(baseline, forward_command(mutation)).state
        repaired = exec_kubectl(broken, inverse_command(mutation))
        assert repaired.kind == "write"
        assert cluster_digest(repaired.state) == target, mutation.action
        assert connectivity_check(repaired.state).clean


def test_mutations_are_single_patch_commands():
    for mutation in sample_mutations():
        assert len(mutation.forward) == 1
        for write in (mutation.forward[0], mutation.inverse):
            machine, command = write.render()
            assert machine == "master"
            assert command.startswith(f"kubectl patch networkpolicy {write.policy} ")


def test_action_round_trip():
    """Each built-in mutation rebuilds, from its action as a batch stores it, to an equal
    mutation."""
    built = {}  # action -> its forward command
    for mutation in k8s_mutations():
        stored = ActionSpec.from_json(json.loads(json.dumps(mutation.action.to_json())))
        assert build_mutation(stored) == mutation, mutation.action
        built[mutation.action] = forward_command(mutation)
    # distinct actions, each with a distinct forward patch; AI takes no "" caller
    assert len(set(built.values())) == len(built) == 149


@pytest.mark.parametrize("action", [ActionSpec("CP", ("emailservice",)),
                                    ActionSpec("CP", ("emailservice", "", "x")),
                                    ActionSpec("CP", ("nosuchservice", "")),
                                    ActionSpec("CP", ("adservice", "frontend")),
                                    ActionSpec("CPR", ("adservice", "frontend")),
                                    ActionSpec("AI", ("nosuchservice", "frontend")),
                                    ActionSpec("AI", ("cartservice", 5)),
                                    ActionSpec("AI", ("cartservice", "nosuch")),
                                    ActionSpec("XX", ("emailservice", ""))])
def test_malformed_action_is_a_corrupt_ground_truth(action):
    with pytest.raises(CorruptGroundTruth, match="malformed k8s injection"):
        rebuild(K8S, GroundTruth(GT_RECOVERY_PREDICATE, "", hidden_injection=(action,)))


def test_ri_blocks_only_the_removed_caller():
    baseline = default_policies()
    mutation = mutation_of("RI", "cartservice", "frontend")
    broken = exec_kubectl(baseline, forward_command(mutation)).state
    report = connectivity_check(broken)
    assert report.mismatches == [("frontend", "cartservice", 7070, True, False)]


def test_ae_blocks_other_egress_of_the_client():
    baseline = default_policies()
    mutation = mutation_of("AE", "frontend", "adservice")
    broken = exec_kubectl(baseline, forward_command(mutation)).state
    report = connectivity_check(broken)
    blocked = {(src, dst) for src, dst, _, exp, act in report.mismatches if exp and not act}
    assert ("frontend", "adservice") not in blocked
    assert ("frontend", "cartservice") in blocked
    assert all(src == "frontend" for src, _ in blocked)


def test_mismatch_line_format():
    baseline = default_policies()
    mutation = mutation_of("RI", "cartservice", "frontend")
    broken = exec_kubectl(baseline, forward_command(mutation)).state
    text = connectivity_check(broken).render()
    assert "frontend -> cartservice:7070 (Expected: allowed, Actual: blocked)" in text
