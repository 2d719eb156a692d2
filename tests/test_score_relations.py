"""Metamorphic relations of the scorer: two agents that differ in a known way must score in
a known relation on the same generated query."""

import dataclasses
import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from netbench.agents.base import MSG_COMMAND, AgentMessage
from netbench.agents.builtin import OracleAgent, _ScriptedAgent
from netbench.core.episode import run_episode
from netbench.core.generate import app_entry, cp_base_graph, generate_batch, make_environment
from netbench.core.types import BenchmarkConfig
from netbench.cp.graph import run_program
from netbench.evaluation.metrics import score_episode


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
    and safe under both rules, and takes exactly one more turn per read. The reward is left
    out: it pays each successful read."""
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
        assert dataclasses.replace(got, latency_turns=0, latency_wall=0, reward=0) == \
            dataclasses.replace(expected, latency_turns=0, latency_wall=0, reward=0)


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
