import sys

import pytest

from netbench.agents import BUILTIN_AGENTS, make_agent
from netbench.agents.base import MSG_COMMAND, MSG_FINAL, AgentMessage, Observation
from netbench.agents.builtin import AdversarialAgent, NoopAgent, OracleAgent, RandomAgent
from netbench.agents.extract import extract_message
from netbench.agents.external import ExecAgent, HttpAgent
from netbench.core.episode import run_episode
from netbench.core.generate import make_environment
from netbench.core.types import BenchmarkConfig
from netbench.errors import AgentProtocolError, TransportError
from netbench.k8spolicy.generate import generate_k8s_query
from netbench.routing.generate import generate_routing_query


OBS = Observation(system_status="status")


def routing_config(**kw):
    return BenchmarkConfig(app="routing", num_queries=1, levels=(1,), seed=0, **kw)


# --- extraction ---------------------------------------------------------

def test_extract_plain_command():
    msg = extract_message('{"machine": "r0", "command": "ip route"}')
    assert msg == AgentMessage(MSG_COMMAND, "ip route", "r0")


def test_extract_command_without_machine():
    msg = extract_message('{"command": "kubectl get networkpolicies"}')
    assert msg.kind == MSG_COMMAND and msg.machine is None


def test_extract_from_fenced_prose():
    text = ("Sure, I'll check the routes first.\n"
            "```json\n{\"machine\": \"r0\", \"command\": \"ip route\"}\n```\n"
            "Let me know what you see.")
    msg = extract_message(text)
    assert msg == AgentMessage(MSG_COMMAND, "ip route", "r0")


def test_extract_skips_unparseable_then_uses_next():
    text = "{broken json} and then {\"final_answer\": \"done\"}"
    msg = extract_message(text)
    assert msg == AgentMessage(MSG_FINAL, "done")


def test_extract_final_answer_object():
    msg = extract_message('{"program": [{"op": "remove"}]}')
    assert msg.kind == MSG_FINAL
    assert msg.payload == {"program": [{"op": "remove"}]}


def test_extract_handles_braces_inside_strings():
    msg = extract_message('{"command": "echo \\"{not json}\\""}')
    assert msg.kind == MSG_COMMAND


def test_extract_unusable_inputs():
    for text in ("", "no json here", "{}", '{"other": 1}', "[1, 2]", None, 42):
        assert extract_message(text) is None


# --- built-in agents ----------------------------------------------------

def test_oracle_reactive_replays_recovery_and_wins():
    query, truth = generate_routing_query(2, 101)
    env = make_environment(routing_config(), query, truth)
    result = run_episode(env, OracleAgent(query, truth), query)
    assert result.correct and result.safe
    assert result.latency_turns == len(truth.recovery) + 1
    assert result.final_state_digest == truth.target_digest


def test_oracle_k8s():
    query, truth = generate_k8s_query(3, 202)
    env = make_environment(BenchmarkConfig(app="k8s", num_queries=1, levels=(3,), seed=0),
                           query, truth)
    result = run_episode(env, OracleAgent(query, truth), query)
    assert result.correct and result.safe


def test_noop_is_safe_but_wrong_on_reactive():
    query, truth = generate_routing_query(1, 303)
    env = make_environment(routing_config(), query, truth)
    result = run_episode(env, NoopAgent(), query)
    assert result.safe and not result.correct
    assert result.latency_turns == 1


def test_adversarial_is_unsafe_yet_ends_correct():
    query, truth = generate_routing_query(1, 404)
    env = make_environment(routing_config(), query, truth)
    result = run_episode(env, AdversarialAgent(query, truth), query)
    assert result.correct and not result.safe


def test_random_agent_is_deterministic_and_valid():
    query, truth = generate_routing_query(1, 505)
    env = make_environment(routing_config(), query, truth)
    first = run_episode(env, RandomAgent("routing", seed=query.seed), query)
    second = run_episode(env, RandomAgent("routing", seed=query.seed), query)
    assert [t.agent_message for t in first.turns] == [t.agent_message for t in second.turns]
    assert all(t.valid for t in first.turns)
    assert all(not t.is_write for t in first.turns[:-1])
    assert first.safe and not first.correct


def test_random_agent_cp_answers_immediately():
    agent = RandomAgent("cp", seed=7)
    msg = agent.step(OBS)
    assert msg.kind == MSG_FINAL and msg.payload["answer"]["kind"] == "scalar"


def test_scripted_agents_reset():
    query, truth = generate_routing_query(1, 606)
    agent = OracleAgent(query, truth)
    opening = agent.step(OBS)
    while agent.step(OBS).kind != MSG_FINAL:
        pass
    agent.reset()
    assert agent.step(OBS) == opening


# --- external bridges ---------------------------------------------------

ECHO_AGENT = (f"{sys.executable} -c \"import sys\n"
              "for line in sys.stdin:\n"
              "    print('{\\\"final_answer\\\": \\\"echo\\\"}', flush=True)\"")


def test_exec_agent_round_trip():
    agent = ExecAgent(ECHO_AGENT, query_id="q1")
    try:
        msg = agent.step(OBS)
        assert msg == AgentMessage(MSG_FINAL, "echo")
    finally:
        agent.close()


def test_exec_agent_garbage_reply_is_protocol_error():
    agent = ExecAgent(f"{sys.executable} -c \"print('not json')\"")
    try:
        with pytest.raises(AgentProtocolError):
            agent.step(OBS)
    finally:
        agent.close()


def test_exec_agent_dead_process_is_transport_error():
    agent = ExecAgent(f"{sys.executable} -c \"pass\"")
    try:
        with pytest.raises(TransportError):
            agent.step(OBS)
    finally:
        agent.close()


def test_http_agent_unreachable_is_transport_error():
    agent = HttpAgent("http://127.0.0.1:1", timeout=2)
    with pytest.raises(TransportError):
        agent.step(OBS)


# --- factory ------------------------------------------------------------

def test_make_agent_builtins():
    query, truth = generate_routing_query(1, 707)
    for spec in BUILTIN_AGENTS:
        agent = make_agent(spec, query, truth)
        assert hasattr(agent, "step") and hasattr(agent, "reset")


def test_make_agent_bridges():
    query, truth = generate_routing_query(1, 808)
    agent = make_agent("exec:cat", query, truth)
    assert isinstance(agent, ExecAgent) and agent.command == "cat"
    agent = make_agent("http://localhost:9/step", query, truth)
    assert isinstance(agent, HttpAgent) and agent.url == "http://localhost:9/step"


def test_make_agent_unknown_spec():
    query, truth = generate_routing_query(1, 909)
    with pytest.raises(ValueError):
        make_agent("telepathy", query, truth)
