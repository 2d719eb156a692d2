import json

import pytest

from netbench.core.reactive import rebuild, replay, solved
from netbench.core.types import ActionSpec
from netbench.errors import CorruptGroundTruth, MethodOutOfRange, UnknownFamily
from netbench.routing.commands import exec_command
from netbench.routing.generate import _applied, generate_routing_query, rebuild_states
from netbench.routing.inject import BAD_MASKS, FAMILY_METHODS, NEEDS_AUX, build_fault, \
    fault_action
from netbench.routing.pingall import pingall
from netbench.routing.state import build_topology


def commands(writes):
    """The (machine, command) pairs of built-in ``(apply, machine, command)`` writes."""
    return [write[1:] for write in writes]


def plain(fault):
    """``fault`` with each write's ``apply`` as its transform and operands, which compare."""
    def unpacked(write):
        apply, machine, command = write
        return apply.func, apply.args, apply.keywords, machine, command
    return fault.action, [unpacked(w) for w in fault.forward], unpacked(fault.inverse)


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
        broken = replay(s, commands(fault.forward), exec_command)
        assert not solved(pingall(broken)), fault.action


def test_every_inverse_restores_digest_exactly():
    s = build_topology(3, 2)
    target = s.state_digest()
    for fault in all_faults(s):
        broken = replay(s, commands(fault.forward), exec_command)
        _, machine, command = fault.inverse
        outcome = exec_command(broken, machine, command)
        assert outcome.kind == "write", (fault.action, outcome.output)
        assert outcome.state.state_digest() == target, fault.action
        assert solved(pingall(outcome.state))


def test_inverse_is_a_single_command():
    s = build_topology(3, 2)
    for fault in all_faults(s):
        assert len(fault.inverse) == 3  # exactly one (apply, machine, command) write
        assert isinstance(fault.inverse[2], str)


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
        assert plain(build_fault(s, stored)) == plain(fault), fault.action


def test_faults_work_with_prefixed_names():
    s = build_topology(2, 2, prefix="q7_")
    fault = build_fault(s, fault_action("DI", 1, 1, 0))
    assert "q7_r0-eth1" in fault.forward[0][2]
    broken = replay(s, commands(fault.forward), exec_command)
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


def assert_same_state(a, b):
    """``a`` and ``b`` hold the same text and the same parsed values, in the same order."""
    assert a.to_json() == b.to_json() and a.state_digest() == b.state_digest()
    assert {n: vars(i) for n, i in a.interfaces.items()} == \
        {n: vars(i) for n, i in b.interfaces.items()}
    assert [vars(r) for r in a.routes] == [vars(r) for r in b.routes]
    assert [vars(f) for f in a.filter_rules] == [vars(f) for f in b.filter_rules]
    assert (a.prohibit_rules, a.delays, a.ip_forward) == (b.prohibit_rules, b.delays, b.ip_forward)


def made_alike(state, write):
    """``write`` made by its ``apply`` and by the interpreter from its command: the same
    kind, output and state. Returns that state."""
    typed, text = _applied(state, *write), exec_command(state, *write[1:])
    assert (typed.kind, typed.output) == (text.kind, text.output), write[1:]
    assert_same_state(typed.state, text.state)
    return text.state


def _start_states():
    """(healthy, start) pairs: each topology size and prefix healthy, and the healthy and
    injected states of generated level 2 and 3 queries, where other faults are present."""
    for num_switches in (2, 3, 4):
        for hosts_per_subnet in (2, 3, 4):
            for prefix in ("", "n7_"):
                healthy = build_topology(num_switches, hosts_per_subnet, prefix)
                yield healthy, healthy
    for level in (2, 3):
        for seed in range(8):
            healthy, injected = rebuild_states(generate_routing_query(level, seed)[1])
            yield healthy, injected


def test_typed_writes_make_what_the_interpreter_makes_of_their_commands():
    """Each built-in fault of every (family, method), subnet and aux: its forward writes in
    order, each of its writes alone on the start state and on the broken one, and its inverse
    a second time. Each write made by its typed ``apply`` gives the interpreter's outcome,
    state and parsed values (``addr``, ``match``) included, rejections included."""
    pairs = set()
    for healthy, start in _start_states():
        for fault in generation_faults(healthy):
            pairs.add(fault.action.name)
            broken = start
            for write in fault.forward:
                broken = made_alike(broken, write)
            for write in (*fault.forward, fault.inverse):
                made_alike(start, write)
                made_alike(broken, write)
            made_alike(made_alike(broken, fault.inverse), fault.inverse)
    assert len(pairs) == sum(FAMILY_METHODS.values()) == 19


@pytest.mark.parametrize("action", [ActionSpec("DI-m3", (9, 0)), ActionSpec("DT-m4", (0, 0)),
                                    ActionSpec("WR-m2", (-1, 0)), ActionSpec("WR-m1", (1, 4)),
                                    ActionSpec("WR-m3", (2, 2)), ActionSpec("RI-m4", (1, 300))])
def test_a_subnet_the_topology_lacks_is_a_corrupt_ground_truth(action):
    """A fault names its subnets as generation picks them: ones the topology holds, and an
    ``aux`` subnet other than the target."""
    s = build_topology(3, 2)
    with pytest.raises(CorruptGroundTruth, match="malformed routing injection"):
        rebuild("routing", s, [action], lambda a: build_fault(s, a).forward, _applied)


def test_a_global_fault_ignores_its_subnet():
    s = build_topology(2, 2)
    broken = rebuild("routing", s, [ActionSpec("DR-m1", (9, 0))],
                     lambda a: build_fault(s, a).forward, _applied)
    assert not broken.ip_forward
