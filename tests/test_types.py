import dataclasses

import pytest
from hypothesis import given, strategies as st

from netbench.core.types import APPS, ActionSpec, BenchmarkConfig, GT_ACTION_PROGRAM, \
    GT_RECOVERY_PREDICATE, GroundTruth, QuerySpec
from netbench.evaluation.metrics import MetricRecord


def test_action_spec_round_trip():
    a = ActionSpec("remove", ("node1",))
    assert ActionSpec.from_json(a.to_json()) == a


def test_action_spec_operands_always_tuple():
    assert ActionSpec("list", ["x"]).operands == ("x",)


def test_ground_truth_constructive_requires_program():
    with pytest.raises(ValueError):
        GroundTruth(kind=GT_ACTION_PROGRAM, target_digest="d")


def test_ground_truth_reactive_requires_injection():
    with pytest.raises(ValueError):
        GroundTruth(kind=GT_RECOVERY_PREDICATE, target_digest="d")


def test_ground_truth_unknown_kind():
    with pytest.raises(ValueError):
        GroundTruth(kind="other", target_digest="d")


def test_ground_truth_round_trip():
    t = GroundTruth(kind=GT_RECOVERY_PREDICATE, target_digest="d",
                    hidden_injection=(ActionSpec("DI-m1", (1, 0)),),
                    recovery=(("r0", "ifconfig r0-eth1 up"),))
    again = GroundTruth.from_json(t.to_json())
    assert again == t
    assert again.recovery[0] == ("r0", "ifconfig r0-eth1 up")


def test_query_spec_validation():
    with pytest.raises(ValueError):
        QuerySpec(id="x", app="nope", level=1, action_label="l", prompt_text="p", seed=0)
    with pytest.raises(ValueError):
        QuerySpec(id="x", app="cp", level=4, action_label="l", prompt_text="p", seed=0)


def test_benchmark_config_defaults_and_validation():
    cfg = BenchmarkConfig(app="routing")
    assert cfg.levels == (1, 2, 3)
    assert cfg.safety_rule == "strict"
    with pytest.raises(ValueError):
        BenchmarkConfig(app="routing", levels=(4,))
    with pytest.raises(ValueError):
        BenchmarkConfig(app="routing", num_queries=0)
    with pytest.raises(ValueError):
        BenchmarkConfig(app="routing", safety_rule="other")


def test_benchmark_config_levels_sorted_deduped():
    cfg = BenchmarkConfig(app="cp", levels=(3, 1, 3))
    assert cfg.levels == (1, 3)


_text = st.text()
_levels = st.sampled_from((1, 2, 3))
_queries = st.builds(QuerySpec, id=_text, app=st.sampled_from(APPS), level=_levels,
                     action_label=_text, prompt_text=_text, seed=st.integers(0, 2**64))
_records = st.builds(MetricRecord, query_id=_text, app=_text, level=_levels, action_label=_text,
                     correct=st.booleans(), safe=st.booleans(),
                     latency_turns=st.integers(0, 100), latency_wall=st.floats(0, 1e6))


@given(st.one_of(_queries, _records))
def test_to_json_has_the_dataclass_fields_and_round_trips(record):
    data = record.to_json()
    assert list(data) == [f.name for f in dataclasses.fields(record)]
    assert data == dataclasses.asdict(record)
    assert type(record).from_json(data) == record
