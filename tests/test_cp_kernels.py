"""Differential tests of the cp graph kernels, and how often a cp episode copies its graph.

Graphs start from small synthetic topologies and change through random
basic ops and through direct edits of ``nodes`` and ``edges``: isolated
nodes, switches stripped of their ports or left linked to them by other
edge types, edges of unknown type, edges to missing nodes and ports
without a capacity. At every graph the one-pass
``check_safety_cp`` and ``remove`` must agree with the degree-based
references in ``reference_kernels``.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from netbench.agents.builtin import OracleAgent
from netbench.core.episode import run_episode
from netbench.core.types import ActionSpec
from netbench.cp.env import CpEnvironment
from netbench.cp.generate import LEVEL_LABELS, generate_cp_query
from netbench.cp.graph import BASIC_OPS, CONTAINS, CONTROL, NODE_TYPES, CpGraph, apply_basic_op
from netbench.cp.safety import check_safety_cp
from netbench.cp.topology import TopoSpec, generate_synthetic_topology
from netbench.errors import NetbenchError
from netbench.seeds import derive_seed
from reference_kernels import ref_check_safety_cp, ref_remove_cascading

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

READS = ("count", "list", "rank")

SPECS = st.builds(TopoSpec, spine_blocks=st.integers(1, 2), super_blocks=st.integers(1, 2),
                  agg_blocks=st.integers(1, 2), chassis_per_agg=st.integers(1, 2),
                  switches_per_chassis=st.integers(1, 3), ports_per_switch=st.integers(1, 3))


def _name(draw, graph):
    return draw(st.sampled_from(sorted(graph.nodes) + ["ghost"]))


@st.composite
def basic_op(draw, graph):
    """One basic op with operands drawn from the graph, valid or not."""
    name = draw(st.sampled_from(BASIC_OPS))
    ntype = draw(st.sampled_from(NODE_TYPES))
    if name == "add":
        operands = (draw(st.sampled_from(["new1", "new2", _name(draw, graph)])), ntype,
                    _name(draw, graph))
    elif name == "count":
        operands = (ntype, _name(draw, graph))
    elif name == "update":
        operands = (_name(draw, graph), draw(st.sampled_from(["physical_capacity_bps", "x"])),
                    draw(st.sampled_from([0, -5, 1.5, 100])))
    else:
        operands = (_name(draw, graph),)
    return ActionSpec(name, operands)


def _edit(data, graph):
    """Change ``graph`` in place, the way a test or a corrupt fixture would."""
    kind = data.draw(st.sampled_from(["isolated", "strip", "odd_edge", "dangling", "drop_node",
                                      "no_capacity"]))
    names = sorted(graph.nodes)
    if kind == "isolated":
        ntype = data.draw(st.sampled_from(NODE_TYPES + ("EK_BOGUS",)))
        graph.nodes[f"iso{len(names)}"] = {"type": ntype, "attrs": {}}
    elif not names:
        return
    elif kind == "strip":
        switches = [n for n in names if graph.nodes[n]["type"] == "EK_PACKET_SWITCH"]
        node = data.draw(st.sampled_from(switches or names))
        stripped = sorted(e for e in graph.edges if e[0] == node)
        graph.edges.difference_update(stripped)
        # some come back under another edge type: linked, yet not containing
        for src, dst, _ in stripped[:data.draw(st.integers(0, 2))]:
            graph.edges.add((src, dst, data.draw(st.sampled_from([CONTROL, "RK_WEIRD"]))))
    elif kind == "odd_edge":
        src, dst = data.draw(st.sampled_from(names)), data.draw(st.sampled_from(names))
        graph.edges.add((src, dst, data.draw(st.sampled_from([CONTAINS, CONTROL, "RK_WEIRD"]))))
    elif kind == "dangling":
        graph.edges.add((data.draw(st.sampled_from(names)), "ghost", CONTAINS))
    elif kind == "drop_node":
        del graph.nodes[data.draw(st.sampled_from(names))]  # its edges stay
    else:
        graph.nodes[data.draw(st.sampled_from(names))]["attrs"].pop("physical_capacity_bps", None)


def _same(a, b):
    return a.nodes == b.nodes and a.edges == b.edges


@SETTINGS
@given(st.data(), SPECS, st.integers(0, 2**32))
def test_safety_and_remove_match_the_references(data, spec, seed):
    graph = generate_synthetic_topology(spec, seed=seed)
    for _ in range(data.draw(st.integers(1, 8))):
        if data.draw(st.booleans()):
            _edit(data, graph)
        else:
            op = data.draw(basic_op(graph))
            before = graph.copy()
            try:
                new, _ = apply_basic_op(graph, op)
            except (NetbenchError, KeyError, TypeError, ValueError):
                new = graph  # rejected, as CpEnvironment rejects a program
            else:
                assert (new is graph) == (op.name in READS)
            assert _same(graph, before)  # the input is never mutated
            graph = new
        assert check_safety_cp(graph) == ref_check_safety_cp(graph)
        victim = data.draw(st.sampled_from(sorted(graph.nodes) or ["ghost"]))
        if victim in graph.nodes:
            removed, _ = apply_basic_op(graph, ActionSpec("remove", (victim,)))
            expected = graph.copy()
            ref_remove_cascading(expected, victim)
            assert _same(removed, expected)
            assert check_safety_cp(removed) == ref_check_safety_cp(removed)


@pytest.mark.parametrize("level", sorted(LEVEL_LABELS))
def test_oracle_episode_copies_the_graph_once_per_write_op(monkeypatch, level):
    base = generate_synthetic_topology(seed=0)
    copies = []
    original = CpGraph.copy

    def counted(self):
        copies.append(self)
        return original(self)

    monkeypatch.setattr(CpGraph, "copy", counted)
    labels = set()
    for i in range(12):
        query, truth = generate_cp_query(base, level, derive_seed(level, i))
        labels.add(query.action_label)
        writes = sum(op.name not in READS for op in truth.program)
        copies.clear()
        env = CpEnvironment(base, query, truth)
        assert len(copies) == writes  # the golden result, computed once
        copies.clear()
        env.reset()
        assert copies == []
        result = run_episode(env, OracleAgent(query, truth), query)
        assert len(copies) == writes
        assert result.correct and env.goal_reached()
        assert len(copies) == writes
    assert labels == set(LEVEL_LABELS[level])
