import math
import re

import pytest
from hypothesis import given, strategies as st

from netbench.agents.base import MSG_COMMAND, MSG_FINAL
from netbench.core.types import EpisodeResult, Turn
from netbench.errors import AppMismatch, ParseError, ZeroSamples
from netbench.evaluation.aggregate import CSV_HEADER, aggregate_records, rows_to_csv
from netbench.evaluation.metrics import MetricRecord, score_episode
from netbench.evaluation.report import emit_reports, read_metrics_jsonl, write_metrics_jsonl
from netbench.evaluation.reward import REWARD_DIAGNOSTIC, REWARD_GOAL_WRITE, \
    REWARD_INVALID, episode_reward, turn_reward
from netbench.evaluation.stats import ci95


def command_turn(**kw):
    return Turn(agent_message={"kind": MSG_COMMAND, "payload": "x", "machine": None},
                env_observation="", **kw)


def final_turn(**kw):
    return Turn(agent_message={"kind": MSG_FINAL, "payload": "done", "machine": None},
                env_observation="", **kw)


def record(i=0, **kw):
    defaults = dict(query_id=f"q{i}", app="routing", level=1, action_label="DR",
                    correct=True, safe=True, latency_turns=3, latency_wall=0.5,
                    reward=30.0)
    defaults.update(kw)
    return MetricRecord(**defaults)


# --- confidence intervals -----------------------------------------------

def test_ci95_frozen_half_width():
    # oracle: 1.96 * sqrt(0.5 * 0.5 / 5000), frozen independently
    ci = ci95(2500, 5000)
    assert ci.rate == 0.5
    assert abs((ci.hi - ci.rate) - 0.01385929) < 1e-6
    assert math.isclose(ci.hi - ci.rate, ci.rate - ci.lo)


def test_ci95_shrinks_with_root_n():
    wide = ci95(75, 150)
    narrow = ci95(2500, 5000)
    assert math.isclose((wide.hi - wide.rate) / (narrow.hi - narrow.rate), math.sqrt(5000 / 150))


def test_ci95_clamped_to_unit_interval():
    assert ci95(0, 10).lo == 0.0
    assert ci95(10, 10).hi == 1.0
    assert ci95(1, 3).lo >= 0.0


def test_ci95_rejects_bad_inputs():
    with pytest.raises(ZeroSamples):
        ci95(0, 0)
    with pytest.raises(ValueError):
        ci95(11, 10)
    with pytest.raises(ValueError):
        ci95(-1, 10)


@given(st.integers(min_value=1, max_value=10_000).flatmap(
    lambda n: st.tuples(st.integers(min_value=0, max_value=n), st.just(n))))
def test_ci95_contains_rate(args):
    successes, n = args
    ci = ci95(successes, n)
    assert 0.0 <= ci.lo <= ci.rate <= ci.hi <= 1.0


# --- reward shaping -----------------------------------------------------

def test_turn_reward_table():
    assert turn_reward(command_turn(valid=False)) == REWARD_INVALID
    assert turn_reward(command_turn(is_write=False)) == REWARD_DIAGNOSTIC
    assert turn_reward(command_turn(is_write=True, goal_reached=True)) == REWARD_GOAL_WRITE
    assert turn_reward(command_turn(is_write=True, goal_reached=False)) == 0.0
    assert turn_reward(final_turn()) == 0.0


def test_episode_reward_transcript():
    # one invalid probe, three reads, the repairing write: -100 + 30 + 100
    turns = [command_turn(valid=False),
             command_turn(), command_turn(), command_turn(),
             command_turn(is_write=True, goal_reached=True),
             final_turn(goal_reached=True)]
    assert episode_reward(turns) == 30.0


def test_only_the_write_that_reaches_the_goal_earns_it():
    from netbench.agents.builtin import OracleAgent, _ScriptedAgent
    from netbench.core.episode import run_episode
    from netbench.routing.env import RoutingEnvironment
    from netbench.routing.generate import generate_routing_query
    query, truth = generate_routing_query(2, 1)
    oracle = run_episode(RoutingEnvironment(truth), OracleAgent(query, truth), query)
    script = [*truth.recovery, *[truth.recovery[-1]] * 5]
    repeated = run_episode(RoutingEnvironment(truth), _ScriptedAgent(script, "done"), query)
    assert [t.is_write for t in repeated.turns] == [True] * len(script) + [False]
    record = score_episode(query, repeated)
    assert record.correct and record.safe
    assert episode_reward(repeated.turns) == episode_reward(oracle.turns) == REWARD_GOAL_WRITE
    # losing the goal and reaching it again earns it again
    turns = [command_turn(is_write=True, goal_reached=True),
             command_turn(is_write=True, goal_reached=False),
             command_turn(is_write=True, goal_reached=True)]
    assert episode_reward(turns) == 2 * REWARD_GOAL_WRITE


def test_cp_program_that_answers_wrong_earns_nothing():
    from netbench.agents.builtin import _ScriptedAgent
    from netbench.core.episode import run_episode
    from netbench.cp.env import CpEnvironment
    from netbench.cp.generate import generate_cp_query
    from netbench.cp.topology import generate_synthetic_topology
    base = generate_synthetic_topology(seed=0)
    for level in (1, 2, 3):
        query, truth = generate_cp_query(base, level, 17)
        wrong = [a.to_json() for a in truth.program[:-1]] + \
            [{"name": "count", "operands": ["EK_PORT", "ju1"]}]
        env = CpEnvironment(base, truth)
        result = run_episode(env, _ScriptedAgent([], {"program": wrong}), query)
        (turn,) = result.turns
        assert turn.valid and turn.is_write and not turn.goal_reached
        assert not result.correct and episode_reward(result.turns) == 0.0


# --- per-episode scoring ------------------------------------------------

def test_score_episode():
    from netbench.routing.generate import generate_routing_query
    query, _ = generate_routing_query(1, 11)
    result = EpisodeResult(query_id=query.id,
                           turns=[command_turn(), command_turn(safe=False, is_write=True),
                                  final_turn()],
                           correct=True, latency_wall=0.25)
    rec = score_episode(query, result)
    assert rec.app == "routing" and rec.level == 1
    assert rec.correct and not rec.safe
    assert rec.latency_turns == 3 and rec.latency_wall == 0.25
    # one read (+10); the unsafe non-goal write and final answer are neutral
    assert rec.reward == REWARD_DIAGNOSTIC


def test_score_episode_id_mismatch():
    from netbench.routing.generate import generate_routing_query
    query, _ = generate_routing_query(1, 12)
    with pytest.raises(ValueError):
        score_episode(query, EpisodeResult(query_id="other"))


def test_metric_record_round_trip():
    rec = record(correct=False, reward=-100.0)
    assert MetricRecord.from_json(rec.to_json()) == rec


# --- aggregation --------------------------------------------------------

def test_csv_header_exact():
    assert ",".join(CSV_HEADER) == ("group,n,correct_rate,correct_lo,correct_hi,"
                                    "safe_rate,safe_lo,safe_hi,mean_turns")


def test_aggregate_groups_by_level():
    records = [record(0, level=1), record(1, level=1, correct=False),
               record(2, level=2, latency_turns=5)]
    rows = aggregate_records(records)
    assert [r["group"] for r in rows] == ["routing/L1", "routing/L2"]
    assert rows[0]["n"] == 2 and rows[0]["correct_rate"] == 0.5
    assert rows[1]["mean_turns"] == 5.0


def test_aggregate_rejects_mixed_apps():
    with pytest.raises(AppMismatch):
        aggregate_records([record(0), record(1, app="k8s")])


def test_aggregate_rejects_empty():
    with pytest.raises(ZeroSamples):
        aggregate_records([])


def test_rows_to_csv_format():
    text = rows_to_csv(aggregate_records([record(0)]))
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1].startswith("routing/L1,1,1.000000,")
    assert text.endswith("\n")


# --- reports ------------------------------------------------------------

def test_metrics_jsonl_round_trip(tmp_path):
    records = [record(i, correct=bool(i % 2)) for i in range(5)]
    path = tmp_path / "metrics.jsonl"
    assert write_metrics_jsonl(records, path) == 5
    assert read_metrics_jsonl(path) == records


def test_write_metrics_jsonl_counts_the_lines_of_a_generator(tmp_path):
    path = tmp_path / "metrics.jsonl"
    assert write_metrics_jsonl((record(i) for i in range(3)), path) == 3
    assert len(path.read_text().splitlines()) == 3


@pytest.mark.parametrize("line", ['{"query_id": "q9"}', "{", "[1]", "7"])
def test_read_metrics_jsonl_names_the_malformed_line(tmp_path, line):
    path = tmp_path / "metrics.jsonl"
    write_metrics_jsonl([record(0), record(1)], path)
    path.write_text(path.read_text() + "\n" + line + "\n")  # a blank line is skipped
    with pytest.raises(ParseError, match=re.escape(f"{path}:4: ")):
        read_metrics_jsonl(path)


def test_emit_reports(tmp_path):
    paths = emit_reports([record(i) for i in range(3)], tmp_path / "out")
    assert set(paths) == {"metrics", "csv", "json"}
    for path in paths.values():
        assert path.exists()
    assert paths["csv"].read_text().startswith(",".join(CSV_HEADER))
