"""Metamorphic relations of the scorer: two agents that differ in a known way must score in
a known relation on the same generated query."""

import collections
import copy
import dataclasses
import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from netbench.agents.base import MSG_COMMAND, AgentMessage
from netbench.agents.builtin import OracleAgent, _ScriptedAgent
from netbench.core.episode import run_episode
from netbench.core.generate import app_entry, cp_base_graph, generate_batch, make_environment
from netbench.core.types import ActionSpec, BenchmarkConfig
from netbench.cp.graph import apply_basic_op, run_program
from netbench.evaluation.metrics import score_episode
from netbench.k8spolicy.inject import TARGETS, build_mutation
from netbench.k8spolicy.model import cluster_digest
from netbench.routing.state import NetState


class _ReadsBetween:
    """``agent``, with the reads ``gaps[k]`` sent on ``machine`` before its k-th message."""

    def __init__(self, agent, gaps, machine):
        self._agent, self._gaps, self._machine = agent, gaps, machine
        self._next, self._pending = 0, list(gaps[0])

    def step(self, observation):
        if self._pending:
            return AgentMessage(MSG_COMMAND, self._pending.pop(0), self._machine)
        self._next += 1
        self._pending = list(self._gaps[self._next]) if self._next < len(self._gaps) else []
        return self._agent.step(observation)


@pytest.mark.parametrize("app", ["routing", "k8s"])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), level=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_reads_between_repairs_change_nothing_but_the_turn_count(app, data, level, seed):
    """The oracle with probe reads before each of its writes and its answer stays correct
    and safe under both rules, and takes exactly one more turn per read."""
    entry = app_entry(app)
    query, truth = entry.generate(None, level, seed)
    gaps = data.draw(st.lists(st.lists(st.sampled_from(entry.probes), max_size=2),
                              min_size=len(truth.recovery) + 1,
                              max_size=len(truth.recovery) + 1))
    reads = sum(map(len, gaps))
    for rule in ("strict", "lenient"):
        plain = run_episode(entry.environment(None, truth, rule),
                            OracleAgent(query, truth), query)
        reading = run_episode(entry.environment(None, truth, rule),
                              _ReadsBetween(OracleAgent(query, truth), gaps, entry.probe_machine),
                              query, max_turns=len(plain.turns) + reads)
        is_read = [read for gap in gaps for read in [*[True] * len(gap), False]]
        assert len(reading.turns) == len(is_read)
        assert [turn for turn, read in zip(reading.turns, is_read) if not read] == plain.turns
        assert all(turn.valid and turn.safe and not turn.is_write
                   for turn, read in zip(reading.turns, is_read) if read)
        expected, got = score_episode(query, plain), score_episode(query, reading)
        assert expected.correct and expected.safe
        assert got.latency_turns == expected.latency_turns + reads
        assert dataclasses.replace(got, latency_turns=0, latency_wall=0) == \
            dataclasses.replace(expected, latency_turns=0, latency_wall=0)


@pytest.mark.parametrize("app", ["routing", "k8s"])
def test_any_order_of_the_recovery_writes_repairs(app):
    """Each permutation of a query's recovery writes, not only the order the oracle plays,
    is accepted write by write and ends correct under both safety rules."""
    episodes = 0
    for rule in ("strict", "lenient"):
        config = BenchmarkConfig(app=app, num_queries=150, seed=7, safety_rule=rule)
        for query, truth in generate_batch(config):
            for order in itertools.permutations(truth.recovery):
                result = run_episode(make_environment(config, truth),
                                     _ScriptedAgent(order, "done"), query)
                assert [(t.valid, t.is_write) for t in result.turns] == \
                    [(True, True)] * len(order) + [(True, False)], (query.id, order)
                assert result.correct, (query.id, order)
                episodes += 1
    assert episodes == 2 * 250  # 50 queries per level; those of L2 and L3 have two writes


def test_a_cp_golden_program_and_its_result_are_judged_alike():
    """The golden program sent as a program and its result sent as an answer, as an
    external agent's JSON reply carries them, are both correct."""
    config = BenchmarkConfig(app="cp", num_queries=300, seed=7)
    base = cp_base_graph(config)
    for query, truth in generate_batch(config):
        _, golden = run_program(base, truth.program)
        answer = json.loads(json.dumps({"answer": {"kind": golden.kind, "value": golden.value}}))
        program = {"program": [action.to_json() for action in truth.program]}
        for payload in (program, answer):
            result = run_episode(make_environment(config, truth, context=base),
                                 _ScriptedAgent([], payload), query)
            assert result.correct and result.turns[0].valid, (query.id, payload)


def _routing_writes(env, k, truth):
    """A filter that drops a subnet's traffic, which breaks the pairs into that subnet that
    work, and a route outside every subnet, which breaks none; each with its exact inverse."""
    state = env.state
    subnet = k % state.num_switches + 1
    router, cidr, iface = state.router_name, state.subnet_cidr(subnet), state.iface_name(subnet)
    return [((router, f"iptables -A FORWARD -d {cidr} -j DROP"),
             (router, f"iptables -D FORWARD -d {cidr} -j DROP")),
            ((router, f"ip route add 10.9.0.0/16 dev {iface} metric 7"),
             (router, f"ip route del 10.9.0.0/16 dev {iface} metric 7"))]


def _k8s_writes(env, k, truth):
    """A built-in patch of a policy that the recovery leaves alone, undone by applying the
    YAML that ``get`` shows of that policy just before the patch."""
    touched = {action.operands[0] for action in truth.hidden_injection}
    untouched = [name for name in TARGETS["CP"] if name not in touched]
    name = untouched[k % len(untouched)]
    (write,) = build_mutation(ActionSpec(("CP", "CPR")[k % 2], (name, ""))).forward
    machine, command = write.render()
    shown, *_ = env.execute_message(
        AgentMessage(MSG_COMMAND, f"kubectl get networkpolicy {name} -o yaml", machine))
    return [((machine, command), (machine, "kubectl apply -f -\n" + shown))]


@pytest.mark.parametrize("app, writes, digest", [
    ("routing", _routing_writes, NetState.state_digest), ("k8s", _k8s_writes, cluster_digest)])
def test_a_write_and_its_inverse_inserted_into_the_repair(app, writes, digest):
    """A write and its exact inverse, sent at any point of the oracle's play, leave the
    episode correct under both rules; under ``lenient`` it is safe exactly when neither of
    the two writes breaks a pair or flow that was good before it."""
    entry = app_entry(app)
    lenient = collections.Counter()
    for query, truth in generate_batch(BenchmarkConfig(app=app, num_queries=150, seed=7)):
        for k in range(len(truth.recovery) + 1):
            env = entry.environment(None, truth, "lenient")
            for machine, command in truth.recovery[:k]:
                env.execute_message(AgentMessage(MSG_COMMAND, command, machine))
            for write, inverse in writes(env, k, truth):
                # the good sets before, between and after the two writes, on a copy
                probe = copy.copy(env)
                goods = [probe.current.good]
                for machine, command in (write, inverse):
                    probe.execute_message(AgentMessage(MSG_COMMAND, command, machine))
                    goods.append(probe.current.good)
                assert digest(probe.state) == digest(env.state), (query.id, write)
                breaks_nothing = goods[0] <= goods[1] <= goods[2]
                lenient[breaks_nothing] += 1
                script = [*truth.recovery[:k], write, inverse, *truth.recovery[k:]]
                for rule in ("strict", "lenient"):
                    result = run_episode(entry.environment(None, truth, rule),
                                         _ScriptedAgent(script, "done"), query)
                    assert [(t.valid, t.is_write) for t in result.turns] == \
                        [(True, True)] * len(script) + [(True, False)], (query.id, write)
                    assert result.correct, (query.id, rule, write)
                    if rule == "lenient":
                        assert score_episode(query, result).safe == breaks_nothing, \
                            (query.id, write)
    assert lenient[True] and lenient[False]  # each side of the relation is reached
    # 50 queries per level, with 2, 3 and 3 insertion points
    assert sum(lenient.values()) == {"routing": 2, "k8s": 1}[app] * 400


def test_a_cp_port_added_and_removed_before_the_last_op_changes_no_score():
    """A port added to a switch and removed again, anywhere before the golden program's last
    op, leaves the program correct and safe, and its final graph the golden one."""
    config = BenchmarkConfig(app="cp", num_queries=300, seed=7)
    base = cp_base_graph(config)
    for query, truth in generate_batch(config):
        program = list(truth.program)
        golden_env = make_environment(config, truth, context=base)
        golden = run_episode(golden_env, OracleAgent(query, truth), query)
        assert golden.correct and golden.turns[0].safe
        graph = base
        for k, op in enumerate(program):
            switches = graph.of_type("EK_PACKET_SWITCH")
            named = [o for action in program for o in action.operands if o in switches]
            switch = (named or switches)[0]
            port = f"{switch}.inserted"
            assert port not in graph.nodes
            inserted = [*program[:k], ActionSpec("add", (port, "EK_PORT", switch)),
                        ActionSpec("remove", (port,)), *program[k:]]
            env = make_environment(config, truth, context=base)
            result = run_episode(env, _ScriptedAgent(
                [], {"program": [action.to_json() for action in inserted]}), query)
            (turn,) = result.turns
            assert result.correct and turn.valid and turn.is_write and turn.safe, (query.id, k)
            assert env.state.state_digest() == golden_env.state.state_digest(), (query.id, k)
            graph, _ = apply_basic_op(graph, op)
