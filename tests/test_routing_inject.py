import json

import pytest

from netbench.core.reactive import inject, rebuild, solved
from netbench.core.types import GT_RECOVERY_PREDICATE, ActionSpec, GroundTruth
from netbench.errors import CorruptGroundTruth, MethodOutOfRange, UnknownFamily
from netbench.routing.commands import exec_command
from netbench.routing.generate import ROUTING, SETUP_ACTION
from netbench.routing.inject import FAMILY_METHODS, Write, build_fault, fault_action
from netbench.routing.pingall import pingall
from netbench.routing.state import build_topology
from builtin_writes import routing_faults


def all_faults(state):
    for family, methods in FAMILY_METHODS.items():
        for method in range(1, methods + 1):
            aux = 2 if (family, method) in (("RI", 4), ("WR", 1), ("WR", 3)) else 0
            yield build_fault(state, fault_action(family, method, 1, aux))


def injected(*actions) -> GroundTruth:
    """A ground truth of ``actions`` on the healthy 3-subnet, 2-host topology."""
    setup = ActionSpec(SETUP_ACTION, (3, 2, ""))
    return GroundTruth(GT_RECOVERY_PREDICATE, "", hidden_injection=(setup, *actions))


def test_method_counts_match_taxonomy():
    assert FAMILY_METHODS == {"DR": 4, "DI": 3, "RI": 4, "DT": 4, "WR": 4}


def test_unknown_family_and_method():
    s = build_topology(2, 2)
    with pytest.raises(UnknownFamily):
        build_fault(s, fault_action("XX", 1, 1, 0))
    with pytest.raises(MethodOutOfRange):
        build_fault(s, fault_action("DI", 4, 1, 0))


def test_every_fault_is_observable_from_healthy():
    s = build_topology(3, 2)
    for fault in all_faults(s):
        broken = inject(s, fault.forward)
        assert not solved(pingall(broken)), fault.action


def test_every_inverse_restores_digest_exactly():
    s = build_topology(3, 2)
    target = s.state_digest()
    for fault in all_faults(s):
        broken = inject(s, fault.forward)
        outcome = exec_command(broken, *fault.inverse.render())
        assert outcome.kind == "write", (fault.action, outcome.output)
        assert outcome.state.state_digest() == target, fault.action
        assert solved(pingall(outcome.state))


def test_inverse_is_a_single_command():
    s = build_topology(3, 2)
    for fault in all_faults(s):
        assert isinstance(fault.inverse, Write)  # exactly one write
        assert isinstance(fault.inverse.command, str)


def test_action_round_trip():
    """Each fault rebuilds, from its action as a batch stores it, to an equal fault."""
    s = build_topology(3, 2)
    for fault in routing_faults(s):
        stored = ActionSpec.from_json(json.loads(json.dumps(fault.action.to_json())))
        assert build_fault(s, stored) == fault, fault.action


def test_faults_work_with_prefixed_names():
    s = build_topology(2, 2, prefix="q7_")
    fault = build_fault(s, fault_action("DI", 1, 1, 0))
    assert "q7_r0-eth1" in fault.forward[0].command
    broken = inject(s, fault.forward)
    assert not solved(pingall(broken))


@pytest.mark.parametrize("action", [ActionSpec("DI", (1, 0)), ActionSpec("DI-m3", (1,)),
                                    ActionSpec("DI-mx", (1, 0)), ActionSpec("DI-m3", ("a", 0)),
                                    ActionSpec("DI-m3", ([1], 0)), ActionSpec("XX-m1", (1, 0)),
                                    ActionSpec("DR-m9", (1, 0)), ActionSpec(5, (1, 0)),
                                    # generation writes int operands, not bool, and the
                                    # method as str() writes it; each of these once replayed
                                    ActionSpec("DI-m1", (1.5, 0)), ActionSpec("DI-m1", (True, 0)),
                                    ActionSpec("DI-m1", (1, 0.0)), ActionSpec("DI-m1", ("1", 0)),
                                    ActionSpec("DI-m01", (1, 0)), ActionSpec("DI-m 1", (1, 0)),
                                    ActionSpec("DI-m+1", (1, 0))])
def test_malformed_action_is_a_corrupt_ground_truth(action):
    with pytest.raises(CorruptGroundTruth, match="malformed routing injection"):
        rebuild(ROUTING, injected(action))


@pytest.mark.parametrize("action", [ActionSpec("DI-m3", (9, 0)), ActionSpec("DT-m4", (0, 0)),
                                    ActionSpec("WR-m2", (-1, 0)), ActionSpec("WR-m1", (1, 4)),
                                    ActionSpec("WR-m3", (2, 2)), ActionSpec("RI-m4", (1, 300))])
def test_a_subnet_the_topology_lacks_is_a_corrupt_ground_truth(action):
    """A fault names its subnets as generation picks them: ones the topology holds, and an
    ``aux`` subnet other than the target."""
    with pytest.raises(CorruptGroundTruth, match="malformed routing injection"):
        rebuild(ROUTING, injected(action))


def test_a_global_fault_ignores_its_subnet():
    _, broken = rebuild(ROUTING, injected(ActionSpec("DR-m1", (9, 0))))
    assert not broken.ip_forward
