import json

import pytest

from netbench.core.reactive import rebuild, replay, solved
from netbench.core.types import ActionSpec
from netbench.errors import CorruptGroundTruth, MethodOutOfRange, UnknownFamily
from netbench.routing.commands import exec_command
from netbench.routing.inject import BAD_MASKS, FAMILY_METHODS, NEEDS_AUX, build_fault, \
    fault_action
from netbench.routing.pingall import pingall
from netbench.routing.state import build_topology


def all_faults(state):
    for family, methods in FAMILY_METHODS.items():
        for method in range(1, methods + 1):
            aux = 2 if (family, method) in (("RI", 4), ("WR", 1), ("WR", 3)) else 0
            yield build_fault(state, fault_action(family, method, 1, aux))


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
        broken = replay(s, fault.forward, exec_command)
        assert not solved(pingall(broken)), fault.action


def test_every_inverse_restores_digest_exactly():
    s = build_topology(3, 2)
    target = s.state_digest()
    for fault in all_faults(s):
        broken = replay(s, fault.forward, exec_command)
        machine, command = fault.inverse
        outcome = exec_command(broken, machine, command)
        assert outcome.kind == "write", (fault.action, outcome.output)
        assert outcome.state.state_digest() == target, fault.action
        assert solved(pingall(outcome.state))


def test_inverse_is_a_single_command():
    s = build_topology(3, 2)
    for fault in all_faults(s):
        assert len(fault.inverse) == 2  # exactly one (machine, command) pair
        assert isinstance(fault.inverse[1], str)


def generation_faults(state):
    """Every fault that generation can sample on ``state``."""
    subnets = range(1, state.num_switches + 1)
    for family, methods in FAMILY_METHODS.items():
        for method in range(1, methods + 1):
            for subnet in subnets:
                if (family, method) in NEEDS_AUX:
                    auxes = [s for s in subnets if s != subnet]
                else:
                    auxes = range(len(BAD_MASKS)) if (family, method) == ("RI", 3) else [0]
                for aux in auxes:
                    yield build_fault(state, fault_action(family, method, subnet, aux))


def test_action_round_trip():
    """Each fault rebuilds, from its action as a batch stores it, to an equal fault."""
    s = build_topology(3, 2)
    for fault in generation_faults(s):
        stored = ActionSpec.from_json(json.loads(json.dumps(fault.action.to_json())))
        assert build_fault(s, stored) == fault, fault.action


def test_faults_work_with_prefixed_names():
    s = build_topology(2, 2, prefix="q7_")
    fault = build_fault(s, fault_action("DI", 1, 1, 0))
    assert "q7_r0-eth1" in fault.forward[0][1]
    broken = replay(s, fault.forward, exec_command)
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
    s = build_topology(3, 2)
    with pytest.raises(CorruptGroundTruth, match="malformed routing injection"):
        rebuild("routing", s, [action], lambda a: build_fault(s, a).forward, exec_command)
