import pytest

from netbench.core.types import ActionSpec
from netbench.errors import CorruptGroundTruth, MethodOutOfRange, UnknownFamily
from netbench.k8spolicy.connectivity import connectivity_check
from netbench.k8spolicy.inject import AE_EGRESS_GRAPH, TARGETS, build_mutation, \
    mutation_from_action, mutation_to_action
from netbench.k8spolicy.kubectl import exec_kubectl
from netbench.k8spolicy.model import EXPECTED_CALLERS, cluster_digest, default_policies


def sample_mutations():
    yield build_mutation("RI", "cartservice", "frontend")
    yield build_mutation("AI", "adservice", "cartservice")
    yield build_mutation("CP", "emailservice")
    yield build_mutation("CPR", "paymentservice")
    yield build_mutation("AE", "frontend", "adservice")
    yield build_mutation("AE", "checkoutservice", "paymentservice")


def test_ri_targets_have_multiple_callers():
    assert all(len(EXPECTED_CALLERS[t]) >= 2 for t in TARGETS["RI"])


def test_ae_targets_have_rich_egress():
    for target in TARGETS["AE"]:
        assert len(AE_EGRESS_GRAPH[target]) >= 2


def test_unknown_family_rejected():
    with pytest.raises(UnknownFamily):
        build_mutation("XX", "frontend")


def test_invalid_parameters_rejected():
    with pytest.raises(MethodOutOfRange):
        build_mutation("RI", "frontend", "loadgenerator")  # single-caller target
    with pytest.raises(MethodOutOfRange):
        build_mutation("AI", "cartservice", "frontend")  # already expected
    with pytest.raises(MethodOutOfRange):
        build_mutation("AE", "adservice", "frontend")  # not a rich client
    with pytest.raises(MethodOutOfRange):
        build_mutation("CP", "loadgenerator")  # not a serving policy
    for family in ("CP", "CPR"):  # neither family reads a parameter, so none may be recorded
        with pytest.raises(MethodOutOfRange):
            build_mutation(family, "adservice", "frontend")


def test_every_mutation_is_observable():
    baseline = default_policies()
    for mutation in sample_mutations():
        out = exec_kubectl(baseline, mutation.forward[1])
        assert out.kind == "write", mutation
        report = connectivity_check(out.state)
        assert not report.clean, (mutation.family, mutation.target)


def test_every_inverse_restores_digest_exactly():
    baseline = default_policies()
    target = cluster_digest(baseline)
    for mutation in sample_mutations():
        broken = exec_kubectl(baseline, mutation.forward[1]).state
        repaired = exec_kubectl(broken, mutation.inverse[1])
        assert repaired.kind == "write"
        assert cluster_digest(repaired.state) == target, (mutation.family, mutation.target)
        assert connectivity_check(repaired.state).clean


def test_mutations_are_single_patch_commands():
    for mutation in sample_mutations():
        assert len(mutation.forward) == 2 and mutation.forward[0] == "master"
        assert mutation.forward[1].startswith("kubectl patch networkpolicy ")
        assert mutation.inverse[1].startswith("kubectl patch networkpolicy ")


def test_action_round_trip():
    for mutation in sample_mutations():
        assert mutation_from_action(mutation_to_action(mutation)) == mutation


@pytest.mark.parametrize("action", [ActionSpec("CP", ("emailservice",)),
                                    ActionSpec("CP", ("emailservice", "", "x")),
                                    ActionSpec("CP", ("nosuchservice", "")),
                                    ActionSpec("CP", ("adservice", "frontend")),
                                    ActionSpec("CPR", ("adservice", "frontend")),
                                    ActionSpec("AI", ("nosuchservice", "frontend")),
                                    ActionSpec("XX", ("emailservice", ""))])
def test_malformed_action_is_a_corrupt_ground_truth(action):
    with pytest.raises(CorruptGroundTruth):
        mutation_from_action(action)


def test_ri_blocks_only_the_removed_caller():
    baseline = default_policies()
    mutation = build_mutation("RI", "cartservice", "frontend")
    broken = exec_kubectl(baseline, mutation.forward[1]).state
    report = connectivity_check(broken)
    assert report.mismatches == [("frontend", "cartservice", 7070, True, False)]


def test_ae_blocks_other_egress_of_the_client():
    baseline = default_policies()
    mutation = build_mutation("AE", "frontend", "adservice")
    broken = exec_kubectl(baseline, mutation.forward[1]).state
    report = connectivity_check(broken)
    blocked = {(src, dst) for src, dst, _, exp, act in report.mismatches if exp and not act}
    assert ("frontend", "adservice") not in blocked
    assert ("frontend", "cartservice") in blocked
    assert all(src == "frontend" for src, _ in blocked)


def test_mismatch_line_format():
    baseline = default_policies()
    mutation = build_mutation("RI", "cartservice", "frontend")
    broken = exec_kubectl(baseline, mutation.forward[1]).state
    text = connectivity_check(broken).render()
    assert "frontend -> cartservice:7070 (Expected: allowed, Actual: blocked)" in text
