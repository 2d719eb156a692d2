"""What the built-in agents see and how their episodes score, pinned per app, agent and rule.

``test_cli.py`` pins the batches; this pins the episodes played on them: the
seed-7, 30-query batch of each app (levels 1-3), played by every built-in
agent that can play the app, under each safety rule. Two digests per run:

* the metric records, as ``run`` writes them, less ``latency_wall``;
* the transcript: each turn's message, observation and safe, valid and
  is-write flags.

A change to an observation (a command's output, a report) or to a score
fails here even when the batches do not move. A change that moves a pin on
purpose re-pins it, and says which observation or score changed and why.
"""

import pytest

from netbench.agents import BUILTIN_AGENTS, check_agent_spec, make_agent
from netbench.core.episode import run_episode
from netbench.core.generate import app_entry, generate_batch, make_environment
from netbench.core.types import SAFETY_RULES, BenchmarkConfig
from netbench.digest import digest
from netbench.evaluation.metrics import score_episode

# (agent, rule) -> (metrics digest, transcript digest), per app
PINNED = {
    "cp": {
        ("oracle", "strict"):
            ("f64822f3d45e7425be709e8569e40e3bcc1e86845378503a1a3019837d23d87a",
             "13f597c87e6bffa9480412df0fa4441404425bdfc45255e6f44f00a4004a623c"),
        ("noop", "strict"):
            ("ec5cc9b71058ae3805b57b7d9ccf9b0085247f79e1d3c1d988ad20e63837cf50",
             "d3a6de8ad1e9a07566341d5407f701b0d2eca2d5279fc7b59e7ef0a30ca2f9ee"),
        ("random", "strict"):
            ("ec5cc9b71058ae3805b57b7d9ccf9b0085247f79e1d3c1d988ad20e63837cf50",
             "1cd99517a441679fb1d303e509c2c5af1e3202d6cd0dec6460dc4560c0eacd24"),
        ("oracle", "lenient"):
            ("f64822f3d45e7425be709e8569e40e3bcc1e86845378503a1a3019837d23d87a",
             "13f597c87e6bffa9480412df0fa4441404425bdfc45255e6f44f00a4004a623c"),
        ("noop", "lenient"):
            ("ec5cc9b71058ae3805b57b7d9ccf9b0085247f79e1d3c1d988ad20e63837cf50",
             "d3a6de8ad1e9a07566341d5407f701b0d2eca2d5279fc7b59e7ef0a30ca2f9ee"),
        ("random", "lenient"):
            ("ec5cc9b71058ae3805b57b7d9ccf9b0085247f79e1d3c1d988ad20e63837cf50",
             "1cd99517a441679fb1d303e509c2c5af1e3202d6cd0dec6460dc4560c0eacd24"),
    },
    "k8s": {
        ("oracle", "strict"):
            ("fa4ed7ffb8fd335b9974eb2cc690e3aa404a69a40c391402f0124f1dee817113",
             "1ace6636642f2519a7e5c441a7e73c1dd1f2804f6c64fdb6d51645fe63137f6f"),
        ("noop", "strict"):
            ("2b1756f25ba895325d209c0bcea3b2c41990faed3be3c7e8a218fe4262e44193",
             "a558bba0f8db7fef2be8c73b69550f845a959213652ff9921daed672c4e41b3b"),
        ("random", "strict"):
            ("e976aa37fda1140a91e8a33a0d3ba474857d695c6cda7f7301362bfa18dde47e",
             "e5324abc98adae0498d6694dd8c118dfd9c7cd87d05ffebd5f50e8f17ead158a"),
        ("oracle", "lenient"):
            ("fa4ed7ffb8fd335b9974eb2cc690e3aa404a69a40c391402f0124f1dee817113",
             "1ace6636642f2519a7e5c441a7e73c1dd1f2804f6c64fdb6d51645fe63137f6f"),
        ("noop", "lenient"):
            ("2b1756f25ba895325d209c0bcea3b2c41990faed3be3c7e8a218fe4262e44193",
             "a558bba0f8db7fef2be8c73b69550f845a959213652ff9921daed672c4e41b3b"),
        ("random", "lenient"):
            ("e976aa37fda1140a91e8a33a0d3ba474857d695c6cda7f7301362bfa18dde47e",
             "e5324abc98adae0498d6694dd8c118dfd9c7cd87d05ffebd5f50e8f17ead158a"),
    },
    "routing": {
        ("oracle", "strict"):
            ("20360420dd588ed4b9832b7310e80036fd85dabbe765447d529032573a977ea2",
             "6b5003a56ff823715879fe1c95efcba04f8fc02218b2c9e17aec1aa072f6e8cf"),
        ("noop", "strict"):
            ("629666e934048a373613080895fc9a40d26413b0d7925bc6b75c2b94ff46568f",
             "a558bba0f8db7fef2be8c73b69550f845a959213652ff9921daed672c4e41b3b"),
        ("random", "strict"):
            ("32f051fc67dac2fe5fc0bf8f3eb7f62de4203bfe6aa1dcca5e9f9989d58b83f0",
             "d87733ec02bf22853f13bfcef84d1bd965cfc6ec34fdd7321e96ac8c749df5fc"),
        ("adversarial", "strict"):
            ("fd569df4ac79793ffabe65a19c9006ef7ecf1f261316c5ed731c4fa585c494fb",
             "5a22e088fe5f70c7bfa282160b987a676061f64f8a19c0e5d78ec094485542c3"),
        ("oracle", "lenient"):
            ("20360420dd588ed4b9832b7310e80036fd85dabbe765447d529032573a977ea2",
             "6b5003a56ff823715879fe1c95efcba04f8fc02218b2c9e17aec1aa072f6e8cf"),
        ("noop", "lenient"):
            ("629666e934048a373613080895fc9a40d26413b0d7925bc6b75c2b94ff46568f",
             "a558bba0f8db7fef2be8c73b69550f845a959213652ff9921daed672c4e41b3b"),
        ("random", "lenient"):
            ("32f051fc67dac2fe5fc0bf8f3eb7f62de4203bfe6aa1dcca5e9f9989d58b83f0",
             "d87733ec02bf22853f13bfcef84d1bd965cfc6ec34fdd7321e96ac8c749df5fc"),
        ("adversarial", "lenient"):
            ("d461ce831c3b4faeb8f74a4f1cf3356f7604450deeeb6891e48d32d0dbd38e4f",
             "72432799fd834038b3a50c44ae3267dd3fbff9004598b534436b0aae49cec4f7"),
    },
}


def _agents(app: str) -> list:
    playable = []
    for agent in BUILTIN_AGENTS:
        try:
            check_agent_spec(agent, app)
        except ValueError:
            continue
        playable.append(agent)
    return playable


def _pins(app: str) -> dict:
    batch = generate_batch(BenchmarkConfig(app=app, num_queries=30, levels=(1, 2, 3), seed=7))
    pins = {}
    for rule in SAFETY_RULES:
        config = BenchmarkConfig(app=app, num_queries=30, levels=(1, 2, 3), seed=7,
                                 safety_rule=rule)
        context = app_entry(app).context(config)
        for agent in _agents(app):
            records, transcripts = [], []
            for query, truth in batch:
                result = run_episode(make_environment(config, truth, context),
                                     make_agent(agent, query, truth), query,
                                     max_turns=config.max_turns)
                record = score_episode(query, result).to_json()
                del record["latency_wall"]
                records.append(record)
                transcripts.append([[t.agent_message, t.env_observation, t.safe, t.valid,
                                     t.is_write] for t in result.turns])
            pins[agent, rule] = (digest(records), digest(transcripts))
    return pins


@pytest.mark.parametrize("app", sorted(PINNED))
def test_episodes_match_the_pinned_ones(app):
    assert _pins(app) == PINNED[app]
