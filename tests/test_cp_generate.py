import json

import pytest

from netbench.agents.base import AgentMessage, MSG_COMMAND, MSG_FINAL
from netbench.core.types import GT_ACTION_PROGRAM
from netbench.cp.compare import compare_results
from netbench.cp.env import CpEnvironment
from netbench.cp.generate import LEVEL_LABELS, generate_cp_query
from netbench.cp.graph import CpGraph, CpResult, run_program
from netbench.cp.safety import check_safety_cp
from netbench.cp.sft import export_sft_records
from netbench.cp.topology import generate_synthetic_topology
from netbench.seeds import derive_seed


@pytest.fixture(scope="module")
def base():
    return generate_synthetic_topology(seed=0)


def test_generation_deterministic(base):
    a = generate_cp_query(base, 2, 123)
    b = generate_cp_query(base, 2, 123)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_all_labels_reachable(base):
    seen = set()
    for level in (1, 2, 3):
        for i in range(60):
            q, _ = generate_cp_query(base, level, derive_seed(level, i))
            seen.add(q.action_label)
    assert seen == set(LEVEL_LABELS[1] + LEVEL_LABELS[2] + LEVEL_LABELS[3])


def test_golden_program_executes_and_is_safe(base):
    for level in (1, 2, 3):
        for i in range(20):
            q, t = generate_cp_query(base, level, derive_seed(10 + level, i))
            assert t.kind == GT_ACTION_PROGRAM
            final, result = run_program(base, t.program)
            assert final.state_digest() == t.target_digest
            assert result is not None
            # re-execute to a graph and check structural safety holds
            state = base
            from netbench.cp.graph import apply_basic_op
            for action in t.program:
                state, _ = apply_basic_op(state, action)
            assert check_safety_cp(state) == []


def test_prompt_mentions_operands(base):
    q, t = generate_cp_query(base, 1, 77)
    for action in t.program:
        for op in action.operands:
            if isinstance(op, str) and op.startswith("ju1"):
                assert op in q.prompt_text


def test_env_oracle_program_correct(base):
    q, t = generate_cp_query(base, 3, 5)
    env = CpEnvironment(base, q, t)
    msg = AgentMessage(MSG_FINAL, {"program": [a.to_json() for a in t.program]})
    _, safe, is_write, valid = env.execute_message(msg)
    assert safe and is_write and valid
    assert env.is_correct()


def test_env_wrong_answer_incorrect(base):
    q, t = generate_cp_query(base, 1, 6)
    env = CpEnvironment(base, q, t)
    env.execute_message(AgentMessage(MSG_FINAL, {"answer": {"kind": "scalar", "value": -1}}))
    assert not env.is_correct()


def test_env_rejects_command_messages(base):
    q, t = generate_cp_query(base, 1, 8)
    env = CpEnvironment(base, q, t)
    out, safe, is_write, valid = env.execute_message(AgentMessage(MSG_COMMAND, "ls"))
    assert safe and not is_write and not valid
    assert "final answer" in out


def test_env_malformed_program_is_invalid_not_fatal(base):
    q, t = generate_cp_query(base, 1, 9)
    env = CpEnvironment(base, q, t)
    out, safe, is_write, valid = env.execute_message(
        AgentMessage(MSG_FINAL, {"program": [{"name": "explode", "operands": []}]}))
    assert safe and not is_write and not valid
    assert "rejected" in out


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", float("nan")])
def test_env_rejects_a_non_finite_update(base, value):
    q, t = generate_cp_query(base, 1, 9)
    env = CpEnvironment(base, q, t)
    port = base.of_type("EK_PORT")[0]
    program = [{"name": "update", "operands": [port, "physical_capacity_bps", value]},
               {"name": "rank", "operands": [port]}]
    out, safe, is_write, valid = env.execute_message(AgentMessage(MSG_FINAL, {"program": program}))
    assert out.startswith("program rejected: ") and "finite" in out
    assert safe and not is_write and not valid
    assert env.state is base


@pytest.mark.parametrize("answer", [
    {"kind": "ranked-list", "value": 5}, {"kind": "ranked-list", "value": [[1]]},
    {"kind": "ranked-list", "value": "ab"}, {"kind": "ranked-list", "value": [["a", "x"]]},
    {"kind": "name-list", "value": 5}, {"kind": "name-list", "value": None}])
def test_env_malformed_answer_is_one_invalid_turn(base, answer):
    q, t = generate_cp_query(base, 1, 9)
    env = CpEnvironment(base, q, t)
    out, safe, is_write, valid = env.execute_message(AgentMessage(MSG_FINAL, {"answer": answer}))
    assert out.startswith("malformed answer: ")
    assert safe and not is_write and not valid
    assert not env.is_correct()


# --- result comparison ------------------------------------------------------

def test_compare_results_kinds_must_match():
    assert not compare_results(CpResult("scalar", 3), CpResult("name-list", [3]))


def test_compare_scalar_and_lists():
    assert compare_results(CpResult("scalar", 3), CpResult("scalar", 3))
    assert not compare_results(CpResult("scalar", 3), CpResult("scalar", 4))
    assert compare_results(CpResult("name-list", ["a", "b"]), CpResult("name-list", ["a", "b"]))
    assert not compare_results(CpResult("name-list", ["b", "a"]), CpResult("name-list", ["a", "b"]))


def test_compare_ranked_list_tolerates_tuple_vs_list():
    a = CpResult("ranked-list", [("x", 10.0), ("y", 5.0)])
    b = CpResult("ranked-list", [["x", 10], ["y", 5]])
    assert compare_results(a, b)


# --- fine-tuning export -----------------------------------------------------

def test_sft_export_round_trip(tmp_path, base):
    pairs = [generate_cp_query(base, 1, derive_seed(50, i)) for i in range(5)]
    path = tmp_path / "sft.jsonl"
    n = export_sft_records(pairs, path)
    assert n == 5
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    rec = json.loads(lines[0])
    assert set(rec) == {"prompt", "program"}
    assert rec["prompt"] == pairs[0][0].prompt_text


def test_sft_export_rejects_reactive(tmp_path):
    from netbench.routing.generate import generate_routing_query
    pair = generate_routing_query(1, 3)
    with pytest.raises(ValueError):
        export_sft_records([pair], tmp_path / "bad.jsonl")


def test_an_add_query_digests_its_target_graph_once(base, monkeypatch):
    query, truth = generate_cp_query(base, 1, derive_seed(1, 3))
    assert query.action_label == "add"
    digested = []
    state_digest = CpGraph.state_digest

    def counted(graph):
        digested.append(graph)
        return state_digest(graph)

    monkeypatch.setattr(CpGraph, "state_digest", counted)
    assert generate_cp_query(base, 1, derive_seed(1, 3)) == (query, truth)
    assert len(digested) == 1
    assert truth.target_digest == state_digest(run_program(base, truth.program)[0])
