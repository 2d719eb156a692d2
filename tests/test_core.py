import pytest

from netbench.agents.base import MSG_FINAL, AgentMessage
from netbench.agents.builtin import NoopAgent, OracleAgent
from netbench.core.config import parse_config
from netbench.core import generate as core_generate
from netbench.core.episode import run_episode
from netbench.core.generate import REGISTRY, cp_base_graph, generate_batch, make_environment, \
    read_batch_jsonl, write_batch_jsonl
from netbench.core.types import APPS, BenchmarkConfig
from netbench.errors import AgentProtocolError, ParseError, TransportError, UnknownApp


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


@pytest.mark.parametrize("app", ["cp", "routing", "k8s"])
def test_make_environment_dispatch(app):
    cfg = config(app=app, num_queries=1)
    (query, truth), = generate_batch(cfg)
    env = make_environment(cfg, query, truth)
    assert env.app == app
    env.reset()
    assert isinstance(env.system_status(), str)


# --- the episode loop ---------------------------------------------------

def test_run_episode_oracle_terminates_on_final():
    cfg = config(num_queries=1)
    (query, truth), = generate_batch(cfg)
    env = make_environment(cfg, query, truth)
    result = run_episode(env, OracleAgent(query, truth), query)
    assert result.correct and result.safe
    assert result.turns[-1].agent_message["kind"] == MSG_FINAL
    assert result.latency_turns == len(result.turns)
    assert result.latency_wall > 0
    assert result.final_state_digest == truth.target_digest


def test_run_episode_exhausts_max_turns():
    class Chatter:
        def reset(self):
            pass

        def step(self, observation):
            return AgentMessage("command", "ip route", None)

    cfg = config(num_queries=1)
    (query, truth), = generate_batch(cfg)
    env = make_environment(cfg, query, truth)
    result = run_episode(env, Chatter(), query, max_turns=5)
    assert result.latency_turns == 5
    assert not result.correct


def test_run_episode_transport_error_ends_episode():
    class Dead:
        def reset(self):
            pass

        def step(self, observation):
            raise TransportError("gone")

    cfg = config(num_queries=1)
    (query, truth), = generate_batch(cfg)
    env = make_environment(cfg, query, truth)
    result = run_episode(env, Dead(), query)
    assert result.latency_turns == 1
    assert not result.turns[0].valid


def test_run_episode_protocol_error_costs_a_turn_but_continues():
    class Flaky:
        def __init__(self):
            self.calls = 0

        def reset(self):
            self.calls = 0

        def step(self, observation):
            self.calls += 1
            if self.calls == 1:
                raise AgentProtocolError("gibberish")
            return AgentMessage(MSG_FINAL, "done")

    cfg = config(num_queries=1)
    (query, truth), = generate_batch(cfg)
    env = make_environment(cfg, query, truth)
    result = run_episode(env, Flaky(), query)
    assert result.latency_turns == 2
    assert not result.turns[0].valid and result.turns[1].valid


def test_run_episode_observation_carries_history():
    seen = []

    class Watcher:
        def reset(self):
            pass

        def step(self, observation):
            seen.append(len(observation.history))
            if len(seen) < 3:
                return AgentMessage("command", "ip route", None)
            return AgentMessage(MSG_FINAL, "done")

    cfg = config(num_queries=1)
    (query, truth), = generate_batch(cfg)
    env = make_environment(cfg, query, truth)
    run_episode(env, Watcher(), query)
    assert seen == [0, 1, 2]


def test_run_episode_noop_counts_single_turn():
    cfg = config(app="k8s", num_queries=1)
    (query, truth), = generate_batch(cfg)
    env = make_environment(cfg, query, truth)
    result = run_episode(env, NoopAgent(), query)
    assert result.latency_turns == 1 and result.safe and not result.correct


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
