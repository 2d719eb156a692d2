import sys
import time
from pathlib import Path

import pytest

from netbench.agents import BUILTIN_AGENTS, make_agent
from netbench.agents.base import MSG_COMMAND, MSG_FINAL, AgentMessage, Observation
from netbench.agents.builtin import NoopAgent, OracleAgent, RandomAgent
from netbench.agents.extract import extract_message
from netbench.agents.external import ExecAgent, HttpAgent
from netbench.core.episode import run_episode
from netbench.core.generate import app_entry, generate_batch, make_environment
from netbench.core.reactive import rebuild
from netbench.core.types import BenchmarkConfig
from netbench.errors import AgentProtocolError, AgentTimeout, TransportError
from netbench.evaluation.metrics import score_episode
from netbench.k8spolicy.generate import generate_k8s_query
from netbench.routing.generate import ROUTING, generate_routing_query
from netbench.routing.pingall import pingall


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
    env = make_environment(routing_config(), truth)
    record = score_episode(query, run_episode(env, OracleAgent(query, truth), query))
    assert record.correct and record.safe
    assert record.latency_turns == len(truth.recovery) + 1
    assert env.final_digest() == truth.target_digest


def test_oracle_k8s():
    query, truth = generate_k8s_query(3, 202)
    env = make_environment(BenchmarkConfig(app="k8s", num_queries=1, levels=(3,), seed=0), truth)
    record = score_episode(query, run_episode(env, OracleAgent(query, truth), query))
    assert record.correct and record.safe


def test_noop_is_safe_but_wrong_on_reactive():
    query, truth = generate_routing_query(1, 303)
    env = make_environment(routing_config(), truth)
    record = score_episode(query, run_episode(env, NoopAgent(), query))
    assert record.safe and not record.correct
    assert record.latency_turns == 1


def test_adversarial_is_unsafe_yet_ends_correct():
    query, truth = generate_routing_query(1, 404)
    env = make_environment(routing_config(), truth)
    record = score_episode(query, run_episode(env, make_agent("adversarial", query, truth), query))
    assert record.correct and not record.safe


def test_adversarial_is_flagged_always_under_strict_and_under_lenient_while_a_router_pair_works():
    """``lenient`` flags only a write that breaks a working pair, and the sabotage toggles a
    router interface. So where no pair through the router works in the injected state (only
    hosts of one subnet reach each other), no sabotage can break one, and the judge is right
    to call the episode safe: 5 of the 60 queries of this batch."""
    lenient_safe = 0
    for rule in ("strict", "lenient"):
        config = BenchmarkConfig(app="routing", num_queries=60, levels=(1, 2, 3), seed=7,
                                 safety_rule=rule)
        for query, truth in generate_batch(config):
            env = make_environment(config, truth)
            record = score_episode(query, run_episode(env, make_agent("adversarial", query, truth),
                                                      query))
            _, injected = rebuild(ROUTING, truth)
            hosts = injected.hosts
            router_pair_works = any(a not in hosts or b not in hosts
                                    or hosts[a].subnet != hosts[b].subnet
                                    for a, b in pingall(injected).good)
            assert record.correct
            assert not record.safe if rule == "strict" else record.safe != router_pair_works
            lenient_safe += record.safe
    assert lenient_safe == 5


def test_random_agent_is_deterministic_and_valid():
    query, truth = generate_routing_query(1, 505)
    probes = app_entry("routing").probes
    first, second = (run_episode(make_environment(routing_config(), truth),
                                 RandomAgent(probes, seed=query.seed), query) for _ in range(2))
    assert [t.agent_message for t in first.turns] == [t.agent_message for t in second.turns]
    assert all(t.valid for t in first.turns)
    assert all(not t.is_write for t in first.turns[:-1])
    assert score_episode(query, first).safe and not first.correct


def test_random_agent_cp_answers_immediately():
    agent = RandomAgent((), seed=7)
    msg = agent.step(OBS)
    assert msg.kind == MSG_FINAL and msg.payload["answer"]["kind"] == "scalar"


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


def _running(pid):
    """Whether process ``pid`` exists and is not a zombie (Linux /proc)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_exec_agent_timeout_ends_the_episode_with_one_invalid_turn(tmp_path):
    query, truth = generate_routing_query(1, 5)
    pid_file = tmp_path / "pid"
    # the shell's child reads its request, then stays silent past the timeout
    silent = (f"{sys.executable} -c \"import os, sys, time; open({str(pid_file)!r}, 'w')"
              ".write(str(os.getpid())); sys.stdin.readline(); time.sleep(10)\"")
    agent = ExecAgent(silent, query_id=query.id, timeout=0.5)
    try:
        started = time.monotonic()
        with pytest.raises(AgentTimeout):
            agent.step(OBS)
        assert time.monotonic() - started < 5
        pid = int(pid_file.read_text())
        deadline = time.monotonic() + 5
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(pid)  # killed with its shell, not left behind
        started = time.monotonic()
        result = run_episode(make_environment(routing_config(), truth), agent, query)
        assert time.monotonic() - started < 5
    finally:
        agent.close()
    (turn,) = result.turns
    assert not turn.valid and "no reply" in turn.env_observation


def test_exec_agent_partial_reply_waits_for_the_line():
    # a reply split over two writes is read as one line
    split = (f"{sys.executable} -c \"import sys, time; sys.stdin.readline(); "
             "sys.stdout.write('{\\\"final_an'); sys.stdout.flush(); time.sleep(0.2); "
             "print('swer\\\": \\\"late\\\"}', flush=True)\"")
    agent = ExecAgent(split, timeout=5)
    try:
        assert agent.step(OBS) == AgentMessage(MSG_FINAL, "late")
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
        assert hasattr(agent, "step")


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
