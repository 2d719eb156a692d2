import math
import re

import pytest
from hypothesis import given, strategies as st

from netbench.agents.base import MSG_COMMAND, MSG_FINAL
from netbench.core.types import EpisodeResult, Turn
from netbench.digest import canonical_json
from netbench.errors import AppMismatch, ParseError, ZeroSamples
from netbench.evaluation.aggregate import CSV_HEADER, aggregate_records, rows_to_csv
from netbench.evaluation.metrics import MetricRecord, score_episode
from netbench.evaluation.report import emit_reports, read_metrics_jsonl, write_metrics_jsonl
from netbench.evaluation.stats import ci95


def command_turn(**kw):
    return Turn(agent_message={"kind": MSG_COMMAND, "payload": "x", "machine": None},
                env_observation="", **kw)


def final_turn(**kw):
    return Turn(agent_message={"kind": MSG_FINAL, "payload": "done", "machine": None},
                env_observation="", **kw)


def record(i=0, **kw):
    defaults = dict(query_id=f"q{i}", app="routing", level=1, action_label="DR",
                    correct=True, safe=True, latency_turns=3, latency_wall=0.5)
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


# --- per-episode scoring ------------------------------------------------

def test_repeating_the_goal_write_stays_correct_and_safe():
    from netbench.agents.builtin import _ScriptedAgent
    from netbench.core.episode import run_episode
    from netbench.routing.env import RoutingEnvironment
    from netbench.routing.generate import generate_routing_query
    query, truth = generate_routing_query(2, 1)
    script = [*truth.recovery, *[truth.recovery[-1]] * 5]
    repeated = run_episode(RoutingEnvironment(truth), _ScriptedAgent(script, "done"), query)
    assert [t.is_write for t in repeated.turns] == [True] * len(script) + [False]
    record = score_episode(query, repeated)
    assert record.correct and record.safe


def test_cp_program_that_answers_wrong_is_a_valid_write_and_not_correct():
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
        assert not result.correct


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


def test_score_episode_id_mismatch():
    from netbench.routing.generate import generate_routing_query
    query, _ = generate_routing_query(1, 12)
    with pytest.raises(ValueError):
        score_episode(query, EpisodeResult(query_id="other"))


def test_metric_record_round_trip():
    rec = record(correct=False)
    assert MetricRecord.from_json(rec.to_json()) == rec


def test_metric_record_loads_a_line_that_older_versions_wrote(tmp_path):
    """Older versions also wrote a shaped ``reward``; such a line loads as the same record
    without it, and any other unknown key is still a malformed line."""
    rec = record(correct=False)
    legacy = {**rec.to_json(), "reward": 190.0}
    assert MetricRecord.from_json(legacy) == rec and "reward" in legacy  # the input is kept
    with pytest.raises(TypeError):  # a JSON array of the record's pairs is no record
        MetricRecord.from_json([list(item) for item in rec.to_json().items()])
    path = tmp_path / "metrics.jsonl"
    path.write_text(canonical_json({**rec.to_json(), "reward": -100.0}) + "\n")
    assert read_metrics_jsonl(path) == [rec]
    path.write_text(canonical_json({**rec.to_json(), "score": 1.0}) + "\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:1: ")):
        read_metrics_jsonl(path)


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
