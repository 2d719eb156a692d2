import json

import pytest

from netbench.agents.base import AgentMessage, MSG_COMMAND, MSG_FINAL
from netbench.core.types import GT_ACTION_PROGRAM, ActionSpec
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
    env = CpEnvironment(base, t)
    msg = AgentMessage(MSG_FINAL, {"program": [a.to_json() for a in t.program]})
    _, safe, is_write, valid = env.execute_message(msg)
    assert safe and is_write and valid
    assert env.is_correct()


def test_env_wrong_answer_incorrect(base):
    q, t = generate_cp_query(base, 1, 6)
    env = CpEnvironment(base, t)
    env.execute_message(AgentMessage(MSG_FINAL, {"answer": {"kind": "scalar", "value": -1}}))
    assert not env.is_correct()


@pytest.mark.parametrize("op, checks", [("list", 0), ("remove", 1)])
def test_env_checks_structure_only_for_a_program_that_writes(base, monkeypatch, op, checks):
    q, t = generate_cp_query(base, 1, 9)
    env = CpEnvironment(base, t)
    checked = []
    monkeypatch.setattr("netbench.cp.env.check_safety_cp",
                        lambda graph: checked.append(graph) or check_safety_cp(graph))
    port = base.of_type("EK_PORT")[0]
    _, safe, is_write, valid = env.execute_message(
        AgentMessage(MSG_FINAL, {"program": [{"name": op, "operands": [port]}]}))
    assert safe and is_write and valid
    assert len(checked) == checks and (env.state is base) == (op == "list")


def test_env_rejects_command_messages(base):
    q, t = generate_cp_query(base, 1, 8)
    env = CpEnvironment(base, t)
    out, safe, is_write, valid = env.execute_message(AgentMessage(MSG_COMMAND, "ls"))
    assert safe and not is_write and not valid
    assert "final answer" in out


def test_env_malformed_program_is_invalid_not_fatal(base):
    q, t = generate_cp_query(base, 1, 9)
    env = CpEnvironment(base, t)
    out, safe, is_write, valid = env.execute_message(
        AgentMessage(MSG_FINAL, {"program": [{"name": "explode", "operands": []}]}))
    assert safe and not is_write and not valid
    assert "rejected" in out


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", float("nan"),
                                   True, "\u0661\u0665\u0660\u0660", "1_000", "  7 "])
def test_env_rejects_a_non_finite_update(base, value):
    q, t = generate_cp_query(base, 1, 9)
    env = CpEnvironment(base, t)
    port = base.of_type("EK_PORT")[0]
    program = [{"name": "update", "operands": [port, "physical_capacity_bps", value]},
               {"name": "rank", "operands": [port]}]
    out, safe, is_write, valid = env.execute_message(AgentMessage(MSG_FINAL, {"program": program}))
    assert out.startswith("program rejected: ") and "finite" in out
    assert safe and not is_write and not valid
    assert env.state is base


@pytest.mark.parametrize("operands", [(5, "EK_PACKET_SWITCH", "ju1.a1.m1"),
                                      (True, "EK_PACKET_SWITCH", "ju1.a1.m1"),
                                      (None, "EK_PACKET_SWITCH", "ju1.a1.m1"),
                                      ("x", ["EK_PORT"], "ju1.a1.m1"), ("x", "EK_PORT", 3)])
def test_env_rejects_an_add_whose_operand_is_not_a_string(base, operands):
    q, t = generate_cp_query(base, 1, 9)
    env = CpEnvironment(base, t)
    program = [{"name": "add", "operands": list(operands)},
               {"name": "add", "operands": ["x", "EK_PACKET_SWITCH", "ju1.a1.m1"]},
               {"name": "list", "operands": ["ju1.a1"]}]
    out, safe, is_write, valid = env.execute_message(AgentMessage(MSG_FINAL, {"program": program}))
    odd = next(o for o in operands if not isinstance(o, str))
    assert out == f"program rejected: add takes a string name, type and parent, got {odd!r}"
    assert safe and not is_write and not valid
    assert env.state is base


def test_removable_ports_are_the_ports_whose_switch_holds_another(base):
    """The view ``remove-count`` draws from, computed once per graph; on the base every port
    is removable, so the last port of one switch is left alone to be excluded."""
    sw = base.of_type("EK_PACKET_SWITCH")[0]
    ports = [c for c in base.children(sw) if base.node_type(c) == "EK_PORT"]
    graph, _ = run_program(base, [ActionSpec("remove", (p,)) for p in ports[1:]])

    def switch_of(port):
        return min(p for p in graph.parents(port) if graph.node_type(p) == "EK_PACKET_SWITCH")
    expected = [p for p in graph.of_type("EK_PORT")
                if sum(graph.node_type(c) == "EK_PORT" for c in graph.children(switch_of(p))) >= 2]
    assert graph.removable_ports == expected and graph.removable_ports is graph.removable_ports
    assert ports[0] not in expected and len(expected) == len(graph.of_type("EK_PORT")) - 1
    assert base.removable_ports == list(base.of_type("EK_PORT"))


@pytest.mark.parametrize("answer", [
    {"kind": "ranked-list", "value": 5}, {"kind": "ranked-list", "value": [[1]]},
    {"kind": "ranked-list", "value": "ab"}, {"kind": "ranked-list", "value": [["a", "x"]]},
    {"kind": "name-list", "value": 5}, {"kind": "name-list", "value": None},
    {"kind": "scalar", "value": True}, {"kind": "scalar", "value": "3"},
    {"kind": "ranked-list", "value": [["a", False]]}])
def test_env_malformed_answer_is_one_invalid_turn(base, answer):
    q, t = generate_cp_query(base, 1, 9)
    env = CpEnvironment(base, t)
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


@pytest.mark.parametrize("topology_seed", [0, 4])
def test_the_stored_digest_is_the_golden_result_of_a_write_ending_program(topology_seed):
    """The environment takes a write-ending golden result from ``target_digest``; it must be
    what running the program gives, and score each kind of answer as that result would."""
    graph = generate_synthetic_topology(seed=topology_seed)
    write_ending = 0
    for level in (1, 2, 3):
        for i in range(30):
            _, truth = generate_cp_query(graph, level, derive_seed(100 + level, i))
            golden = run_program(graph, truth.program)[1]
            if truth.program[-1].name in ("add", "remove", "update"):
                write_ending += 1
                assert CpResult("graph", truth.target_digest) == golden
            wrong_kind = {"kind": "name-list" if golden.kind == "scalar" else "scalar",
                          "value": [] if golden.kind == "scalar" else 0}
            for payload in ({"program": [a.to_json() for a in truth.program]},
                            {"answer": {"kind": golden.kind, "value": golden.value}},
                            {"answer": wrong_kind}, "no action"):
                env = CpEnvironment(graph, truth)
                env.execute_message(AgentMessage(MSG_FINAL, payload))
                assert env.is_correct() == compare_results(env.result, golden)
                assert env.is_correct() == (payload not in ("no action", {"answer": wrong_kind}))
    assert write_ending
