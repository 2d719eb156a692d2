import pytest

from netbench.core.reactive import replay, solved
from netbench.core.types import ActionSpec
from netbench.errors import CorruptGroundTruth, MethodOutOfRange, UnknownFamily
from netbench.routing.commands import exec_command
from netbench.routing.inject import FAMILY_METHODS, build_fault, fault_from_action, \
    fault_to_action
from netbench.routing.pingall import pingall
from netbench.routing.state import build_topology


def all_faults(state):
    for family, methods in FAMILY_METHODS.items():
        for method in range(1, methods + 1):
            aux = 2 if (family, method) in (("RI", 4), ("WR", 1), ("WR", 3)) else 0
            yield build_fault(state, family, method, subnet=1, aux=aux)


def test_method_counts_match_taxonomy():
    assert FAMILY_METHODS == {"DR": 4, "DI": 3, "RI": 4, "DT": 4, "WR": 4}


def test_unknown_family_and_method():
    s = build_topology(2, 2)
    with pytest.raises(UnknownFamily):
        build_fault(s, "XX", 1)
    with pytest.raises(MethodOutOfRange):
        build_fault(s, "DI", 4)


def test_every_fault_is_observable_from_healthy():
    s = build_topology(3, 2)
    for fault in all_faults(s):
        broken = replay(s, fault.forward, exec_command)
        assert not solved(pingall(broken)), (fault.family, fault.method)


def test_every_inverse_restores_digest_exactly():
    s = build_topology(3, 2)
    target = s.state_digest()
    for fault in all_faults(s):
        broken = replay(s, fault.forward, exec_command)
        machine, command = fault.inverse
        outcome = exec_command(broken, machine, command)
        assert outcome.kind == "write", (fault.family, fault.method, outcome.output)
        assert outcome.state.state_digest() == target, (fault.family, fault.method)
        assert solved(pingall(outcome.state))


def test_inverse_is_a_single_command():
    s = build_topology(3, 2)
    for fault in all_faults(s):
        assert len(fault.inverse) == 2  # exactly one (machine, command) pair
        assert isinstance(fault.inverse[1], str)


def test_action_round_trip():
    s = build_topology(3, 2)
    for fault in all_faults(s):
        action = fault_to_action(fault)
        again = fault_from_action(s, action)
        assert again == fault


def test_faults_work_with_prefixed_names():
    s = build_topology(2, 2, prefix="q7_")
    fault = build_fault(s, "DI", 1, subnet=1)
    assert "q7_r0-eth1" in fault.forward[0][1]
    broken = replay(s, fault.forward, exec_command)
    assert not solved(pingall(broken))


@pytest.mark.parametrize("action", [ActionSpec("DI", (1, 0)), ActionSpec("DI-m3", (1,)),
                                    ActionSpec("DI-mx", (1, 0)), ActionSpec("DI-m3", ("a", 0)),
                                    ActionSpec("DI-m3", ([1], 0)), ActionSpec("XX-m1", (1, 0)),
                                    ActionSpec("DR-m9", (1, 0))])
def test_malformed_action_is_a_corrupt_ground_truth(action):
    with pytest.raises(CorruptGroundTruth):
        fault_from_action(build_topology(3, 2), action)
