import json
import re

import pytest

from netbench.agents.base import MSG_FINAL, AgentMessage
from netbench.agents.builtin import NoopAgent, OracleAgent
from netbench.core.config import parse_config
from netbench.core import generate as core_generate
from netbench.core.episode import run_episode
from netbench.core.generate import REGISTRY, cp_base_graph, generate_batch, make_environment, \
    read_batch_jsonl, write_batch_jsonl
from netbench.core.types import APPS, BenchmarkConfig
from netbench.cp import graph as cp_graph
from netbench.cp.env import CpEnvironment
from netbench.errors import AgentProtocolError, ParseError, TransportError, UnknownApp
from netbench.evaluation.metrics import score_episode
from netbench.k8spolicy.env import K8sEnvironment
from netbench.routing.env import RoutingEnvironment
from netbench.seeds import derive_seed


def config(app="routing", **kw):
    kw.setdefault("num_queries", 6)
    kw.setdefault("levels", (1, 2, 3))
    kw.setdefault("seed", 0)
    return BenchmarkConfig(app=app, **kw)


# --- configuration parsing ----------------------------------------------

def test_parse_full_config():
    cfg = parse_config("\n".join([
        "# benchmark setup",
        "app = k8s",
        "num_queries = 40",
        "levels = 3,1",
        "seed = 17",
        "max_turns = 12",
        "agent = noop",
        "parallelism = 4",
        "safety_rule = lenient",
    ]))
    assert cfg.app == "k8s" and cfg.num_queries == 40
    assert cfg.levels == (1, 3)  # normalized: sorted, deduplicated
    assert cfg.agent == "noop" and cfg.safety_rule == "lenient"


def test_parse_defaults():
    cfg = parse_config("app = cp")
    assert cfg.num_queries == 100 and cfg.levels == (1, 2, 3)
    assert cfg.agent == "oracle" and cfg.safety_rule == "strict"


@pytest.mark.parametrize("text", [
    "",                          # missing app
    "app = cp\napp = cp",        # duplicate key
    "app = cp\ncolor = red",     # unknown key
    "app = cp\nnum_queries = x", # non-integer
    "app = cp\nlevels = 1,4",    # level out of range
    "app = nosuch",              # unknown app
    "just words",                # not key = value
])
def test_parse_rejections(text):
    with pytest.raises(ParseError):
        parse_config(text)


# --- batch generation ---------------------------------------------------

def test_generate_batch_round_robin_levels():
    pairs = generate_batch(config(num_queries=7))
    assert [q.level for q, _ in pairs] == [1, 2, 3, 1, 2, 3, 1]


def test_generate_batch_unique_ids_and_seeds():
    pairs = generate_batch(config(num_queries=12))
    assert len({q.id for q, _ in pairs}) == 12
    assert len({q.seed for q, _ in pairs}) == 12


def test_generate_batch_unknown_app():
    cfg = config()
    object.__setattr__(cfg, "app", "nosuch")
    with pytest.raises(UnknownApp):
        generate_batch(cfg)


def test_cp_base_graph_shared_and_seeded():
    a = cp_base_graph(config(app="cp"))
    b = cp_base_graph(config(app="cp"))
    assert a.state_digest() == b.state_digest()
    other = cp_base_graph(config(app="cp", seed=1))
    assert a.state_digest() != other.state_digest()


def test_a_cp_batch_builds_its_base_fragments_before_any_turn(monkeypatch):
    """The first episode to digest a written graph encodes only what its write added."""
    cfg = config(app="cp")
    base = cp_base_graph(cfg)
    texts, canonical_json = [], cp_graph.canonical_json
    monkeypatch.setattr(cp_graph, "canonical_json", lambda obj: texts.append(obj) or canonical_json(obj))
    pairs = [REGISTRY["cp"].generate(base, 1, derive_seed(0, i)) for i in range(12)]
    adds = [(q, t) for q, t in pairs if q.action_label == "add"]
    assert adds and len(texts) == 2 * len(adds)  # generation: the new port and its edge
    texts.clear()
    query, truth = adds[0]
    env = make_environment(cfg, truth, context=base)
    assert run_episode(env, OracleAgent(query, truth), query).correct
    assert len(texts) == 2


@pytest.mark.parametrize("app", ["cp", "routing", "k8s"])
def test_batch_jsonl_round_trip_and_regeneration(app, tmp_path):
    cfg = config(app=app)
    pairs = generate_batch(cfg)
    path = tmp_path / "batch.jsonl"
    assert write_batch_jsonl(pairs, path) == len(pairs)
    assert read_batch_jsonl(path) == pairs
    again = tmp_path / "again.jsonl"
    write_batch_jsonl(generate_batch(cfg), again)
    assert path.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("edit", [
    lambda line: {**line, "extra": 1},
    lambda line: {**line, "query": {**line["query"], "extra": 1}},
    lambda line: {**line, "truth": {**line["truth"], "extra": 1}},
    lambda line: {"query": line["query"]},
    lambda line: {**line, "truth": {k: v for k, v in line["truth"].items() if k != "recovery"}},
    lambda line: {**line, "truth": {**line["truth"], "hidden_injection": 3}},
])
def test_read_batch_jsonl_names_a_line_with_missing_or_extra_keys(tmp_path, edit):
    path = tmp_path / "batch.jsonl"
    write_batch_jsonl(generate_batch(config(num_queries=2)), path)
    first, second = path.read_text().splitlines()
    path.write_text(first + "\n\n" + json.dumps(edit(json.loads(second))) + "\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:3: ")):
        read_batch_jsonl(path)


@pytest.mark.parametrize("app", ["cp", "routing", "k8s"])
def test_make_environment_dispatch(app):
    cfg = config(app=app, num_queries=1)
    (query, truth), = generate_batch(cfg)
    env = make_environment(cfg, truth)
    assert type(env) is {"cp": CpEnvironment, "routing": RoutingEnvironment,
                         "k8s": K8sEnvironment}[app]


# --- the episode loop ---------------------------------------------------

def test_run_episode_oracle_terminates_on_final():
    cfg = config(num_queries=1)
    (query, truth), = generate_batch(cfg)
    env = make_environment(cfg, truth)
    result = run_episode(env, OracleAgent(query, truth), query)
    record = score_episode(query, result)
    assert record.correct and record.safe
    assert result.turns[-1].agent_message["kind"] == MSG_FINAL
    assert record.latency_turns == len(result.turns)
    assert result.latency_wall > 0
    assert env.final_digest() == truth.target_digest


@pytest.mark.parametrize("app", ["cp", "routing", "k8s"])
def test_run_episode_never_digests_the_final_state(app, monkeypatch):
    cfg = config(app=app, num_queries=1)
    (query, truth), = generate_batch(cfg)
    env = make_environment(cfg, truth)
    calls = []
    monkeypatch.setattr(type(env), "final_digest", lambda self: calls.append(self))
    assert run_episode(env, OracleAgent(query, truth), query).correct
    assert calls == []


def test_run_episode_exhausts_max_turns():
    class Chatter:
        def step(self, observation):
            return AgentMessage("command", "ip route", None)

    cfg = config(num_queries=1)
    (query, truth), = generate_batch(cfg)
    env = make_environment(cfg, truth)
    result = run_episode(env, Chatter(), query, max_turns=5)
    assert len(result.turns) == 5
    assert not result.correct


def test_run_episode_transport_error_ends_episode():
    class Dead:
        def step(self, observation):
            raise TransportError("gone")

    cfg = config(num_queries=1)
    (query, truth), = generate_batch(cfg)
    env = make_environment(cfg, truth)
    result = run_episode(env, Dead(), query)
    assert len(result.turns) == 1
    assert not result.turns[0].valid


def test_run_episode_protocol_error_costs_a_turn_but_continues():
    class Flaky:
        def __init__(self):
            self.calls = 0

        def step(self, observation):
            self.calls += 1
            if self.calls == 1:
                raise AgentProtocolError("gibberish")
            return AgentMessage(MSG_FINAL, "done")

    cfg = config(num_queries=1)
    (query, truth), = generate_batch(cfg)
    env = make_environment(cfg, truth)
    result = run_episode(env, Flaky(), query)
    assert len(result.turns) == 2
    assert not result.turns[0].valid and result.turns[1].valid


def test_run_episode_observation_carries_history():
    seen = []

    class Watcher:
        def step(self, observation):
            seen.append(len(observation.history))
            if len(seen) < 3:
                return AgentMessage("command", "ip route", None)
            return AgentMessage(MSG_FINAL, "done")

    cfg = config(num_queries=1)
    (query, truth), = generate_batch(cfg)
    env = make_environment(cfg, truth)
    run_episode(env, Watcher(), query)
    assert seen == [0, 1, 2]


def test_run_episode_noop_counts_single_turn():
    cfg = config(app="k8s", num_queries=1)
    (query, truth), = generate_batch(cfg)
    env = make_environment(cfg, truth)
    record = score_episode(query, run_episode(env, NoopAgent(), query))
    assert record.latency_turns == 1 and record.safe and not record.correct


def test_run_episode_needs_only_the_protocol():
    """An environment answers ``execute_message``, ``goal_reached`` and ``is_correct``,
    and an agent ``step``; the agent sees the query's prompt and the history each turn."""
    class Counter:
        writes = 0

        def execute_message(self, message):
            if message.kind == MSG_FINAL:
                return "noted", True, False, True
            self.writes += 1
            return f"count {self.writes}", self.writes < 2, True, True

        def goal_reached(self):
            return self.writes >= 2

        def is_correct(self):
            return self.writes == 2

    seen = []

    class Counting:
        def step(self, observation):
            seen.append(observation.render())
            if len(seen) < 3:
                return AgentMessage("command", "add", None)
            return AgentMessage(MSG_FINAL, "done")

    (query, _), = generate_batch(config(num_queries=1))
    result = run_episode(Counter(), Counting(), query)
    assert [(t.env_observation, t.safe, t.is_write, t.goal_reached) for t in result.turns] == [
        ("count 1", True, True, False), ("count 2", False, True, True),
        ("noted", True, False, True)]
    assert result.correct and result.latency_wall > 0
    assert seen[0] == query.prompt_text
    assert all(text.startswith(query.prompt_text + "\n") for text in seen[1:])
    assert seen[2].endswith("> {'kind': 'command', 'machine': None, 'payload': 'add'}\ncount 2")


# --- the app registry ---------------------------------------------------

def test_registry_has_one_entry_per_app():
    assert set(REGISTRY) == set(APPS)


def test_generate_batch_calls_the_generator_by_its_global_name(monkeypatch):
    # a registry holding the function object itself would bypass this patch
    calls = []
    original = core_generate.generate_routing_query

    def counted(level, seed):
        calls.append(seed)
        return original(level, seed)

    monkeypatch.setattr(core_generate, "generate_routing_query", counted)
    pairs = generate_batch(config(num_queries=5))
    assert calls == [q.seed for q, _ in pairs]
