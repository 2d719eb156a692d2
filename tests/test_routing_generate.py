import sys

import pytest

from netbench.agents.base import AgentMessage, MSG_COMMAND, MSG_FINAL
from netbench.core.reactive import rebuild, solved
from netbench.core.types import GT_RECOVERY_PREDICATE, ActionSpec, GroundTruth
from netbench.errors import CorruptGroundTruth, EmptyLevelSet, NodeSetMismatch
from netbench.routing.commands import exec_command
from netbench.routing.env import RoutingEnvironment
from netbench.routing.generate import LEVEL_LABELS, ROUTING, generate_routing_query, \
    sabotage
from netbench.routing.pingall import pingall
from netbench.routing.safety import judge_step_safety
from netbench.routing.state import build_topology
from netbench.seeds import derive_seed


def test_level_label_taxonomy():
    assert set(LEVEL_LABELS[1]) == {"DR", "DI", "RI", "DT", "WR"}
    assert set(LEVEL_LABELS[2]) == {"DR+DI", "DR+RI", "DR+DT", "DR+WR",
                                    "RI+WR", "DT+WR", "DI+DT"}
    assert set(LEVEL_LABELS[3]) == {"DI+WR", "RI+DT", "DI+RI"}


def test_unknown_level_rejected():
    with pytest.raises(EmptyLevelSet):
        generate_routing_query(4, 0)


@pytest.mark.parametrize("operands", [
    (9, 2, ""),  # build_topology takes 2 to 4 switches
    # generation writes two ints and a str prefix, and nothing else replays
    (2.5, 2, ""), (2, True, ""), ("2", 2, ""), (2, 2, 5), (2, 2, None),
], ids=["nine_switches", "float_switches", "bool_hosts", "str_switches", "int_prefix",
        "null_prefix"])
def test_out_of_range_topology_record_is_a_corrupt_ground_truth(operands):
    setup = ActionSpec("topology", operands)
    truth = GroundTruth(GT_RECOVERY_PREDICATE, "", hidden_injection=(setup,))
    with pytest.raises(CorruptGroundTruth):
        rebuild(ROUTING, truth)


def test_generation_deterministic():
    a = generate_routing_query(2, 99)
    b = generate_routing_query(2, 99)
    assert a == b


def test_truth_shape():
    q, t = generate_routing_query(1, 11)
    assert t.kind == GT_RECOVERY_PREDICATE
    assert t.hidden_injection[0].name == "topology"
    assert len(t.hidden_injection) == 2  # setup + one fault
    assert t.recovery


def test_initial_state_has_failures_and_matches_target():
    for seed in range(10):
        q, t = generate_routing_query(3, derive_seed(400, seed))
        healthy, injected = rebuild(ROUTING, t)
        assert healthy.state_digest() == t.target_digest
        assert not solved(pingall(injected))
        assert solved(pingall(healthy))


def test_recovery_is_monotone_and_complete():
    for seed in range(12):
        q, t = generate_routing_query(2, derive_seed(500, seed))
        _, state = rebuild(ROUTING, t)
        received = pingall(state).received
        for machine, command in t.recovery:
            outcome = exec_command(state, machine, command)
            assert outcome.kind == "write"
            assert judge_step_safety(state, outcome.state, "strict")
            state = outcome.state
            now = pingall(state).received
            assert now > received
            received = now
        assert state.state_digest() == t.target_digest


def test_prompt_contains_connectivity_report():
    q, t = generate_routing_query(1, 21)
    assert "*** Results:" in q.prompt_text
    assert "sudo" in q.prompt_text  # the no-sudo instruction
    _, injected = rebuild(ROUTING, t)
    assert pingall(injected).summary_line in q.prompt_text


def test_env_read_then_oracle_recovery():
    q, t = generate_routing_query(2, 31)
    env = RoutingEnvironment(t)
    out, safe, is_write, valid = env.execute_message(AgentMessage(MSG_COMMAND, "ip route"))
    assert safe and valid and not is_write
    for machine, command in t.recovery:
        _, safe, is_write, valid = env.execute_message(
            AgentMessage(MSG_COMMAND, command, machine))
        assert safe and is_write and valid
    assert env.goal_reached() and env.is_correct()
    out, safe, is_write, valid = env.execute_message(AgentMessage(MSG_FINAL, "done"))
    assert safe and valid and not is_write


def test_env_invalid_command_is_harmless():
    q, t = generate_routing_query(1, 41)
    env = RoutingEnvironment(t)
    d = env.final_digest()
    out, safe, is_write, valid = env.execute_message(AgentMessage(MSG_COMMAND, "rm -rf /"))
    assert safe and not is_write and not valid
    assert env.final_digest() == d


# --- safety judge -----------------------------------------------------------

def test_breaking_a_working_pair_is_unsafe_under_both_rules():
    healthy = build_topology(2, 2)
    broken = exec_command(healthy, "r0", "ifconfig r0-eth1 down").state
    assert not judge_step_safety(healthy, broken, "strict")
    assert not judge_step_safety(healthy, broken, "lenient")


def test_strict_requires_progress_during_outage():
    healthy = build_topology(3, 2)
    outage = exec_command(healthy, "r0", "ifconfig r0-eth1 down").state
    # a write that neither breaks nor helps: harmless filter on a healthy subnet pair
    noop_write = exec_command(outage, "r0", "tc qdisc add dev r0-eth2 root netem delay 1ms").state
    assert not judge_step_safety(outage, noop_write, "strict")
    assert judge_step_safety(outage, noop_write, "lenient")


def test_repair_write_is_safe_under_strict():
    healthy = build_topology(2, 2)
    outage = exec_command(healthy, "r0", "ifconfig r0-eth1 down").state
    repaired = exec_command(outage, "r0", "ifconfig r0-eth1 up").state
    assert judge_step_safety(outage, repaired, "strict")


def test_node_set_mismatch_detected():
    a = build_topology(2, 2)
    b = build_topology(3, 2)
    with pytest.raises(NodeSetMismatch):
        judge_step_safety(a, b)


def _refuse(*args, **kwargs):
    raise AssertionError("routing generation parsed command text")


@pytest.mark.parametrize("level", [1, 2, 3])
def test_generation_and_rebuild_parse_no_command_text(monkeypatch, level):
    """The built-in writes are typed from generation through rebuild and the adversary's
    second rebuild: with the interpreter and its parse helpers refused in every module that
    holds them, each query, rebuilt state and sabotage comes out as before."""
    seeds = [derive_seed(729, seed) for seed in range(20)]
    pairs = [generate_routing_query(level, seed) for seed in seeds]
    digests = [[s.state_digest() for s in rebuild(ROUTING, t)] for _, t in pairs]
    sabotages = [sabotage(t) for _, t in pairs]
    for module in [m for name, m in sys.modules.items() if name.startswith("netbench.")]:
        for name in ("exec_command", "_parse_route_args", "_need_prefix", "_need_host_or_cidr"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _refuse)
    for seed, pair, digest, undo in zip(seeds, pairs, digests, sabotages):
        assert generate_routing_query(level, seed) == pair
        assert [s.state_digest() for s in rebuild(ROUTING, pair[1])] == digest
        assert sabotage(pair[1]) == undo
