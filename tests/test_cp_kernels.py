"""Differential tests of the cp graph kernels, and how often a cp episode builds a graph.

Graphs start from small synthetic topologies and change through random
basic ops and through edits that build a changed graph: isolated nodes,
switches stripped of their ports or left linked to them by other edge
types, edges of unknown type, edges to missing nodes and ports without a
capacity. At every graph the one-pass ``check_safety_cp`` and ``remove``
must agree with the degree-based references in ``reference_kernels``.
"""

import copy
import functools

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
    """A changed copy of ``graph``, the way a corrupt fixture would change it."""
    kind = data.draw(st.sampled_from(["isolated", "strip", "odd_edge", "dangling", "drop_node",
                                      "no_capacity"]))
    nodes, edges = graph.nodes, graph.edges
    names = sorted(nodes)
    if kind == "isolated":
        ntype = data.draw(st.sampled_from(NODE_TYPES + ("EK_BOGUS",)))
        return CpGraph({**nodes, f"iso{len(names)}": {"type": ntype, "attrs": {}}}, edges)
    if not names:
        return graph
    if kind == "strip":
        switches = [n for n in names if nodes[n]["type"] == "EK_PACKET_SWITCH"]
        node = data.draw(st.sampled_from(switches or names))
        stripped = sorted(e for e in edges if e[0] == node)
        # some come back under another edge type: linked, yet not containing
        back = {(src, dst, data.draw(st.sampled_from([CONTROL, "RK_WEIRD"])))
                for src, dst, _ in stripped[:data.draw(st.integers(0, 2))]}
        return CpGraph(nodes, edges.difference(stripped) | back)
    if kind == "odd_edge":
        src, dst = data.draw(st.sampled_from(names)), data.draw(st.sampled_from(names))
        etype = data.draw(st.sampled_from([CONTAINS, CONTROL, "RK_WEIRD"]))
        return CpGraph(nodes, edges | {(src, dst, etype)})
    if kind == "dangling":
        return CpGraph(nodes, edges | {(data.draw(st.sampled_from(names)), "ghost", CONTAINS)})
    victim = data.draw(st.sampled_from(names))
    if kind == "drop_node":
        return CpGraph({n: d for n, d in nodes.items() if n != victim}, edges)  # its edges stay
    attrs = {k: v for k, v in nodes[victim]["attrs"].items() if k != "physical_capacity_bps"}
    return CpGraph({**nodes, victim: {"type": nodes[victim]["type"], "attrs": attrs}}, edges)


class _Scratch:
    """A plain graph that ``ref_remove_cascading`` may edit in place."""

    def __init__(self, graph):
        self.nodes, self.edges = dict(graph.nodes), set(graph.edges)

    def degree(self, name):
        return sum(1 for src, dst, _ in self.edges if name in (src, dst))


def _same(a, b):
    return a.nodes == b.nodes and a.edges == b.edges


@SETTINGS
@given(st.data(), SPECS, st.integers(0, 2**32))
def test_safety_and_remove_match_the_references(data, spec, seed):
    graph = generate_synthetic_topology(spec, seed=seed)
    for _ in range(data.draw(st.integers(1, 8))):
        if data.draw(st.booleans()):
            graph = _edit(data, graph)
        else:
            op = data.draw(basic_op(graph))
            before = copy.deepcopy((graph.nodes, graph.edges))
            try:
                new, _ = apply_basic_op(graph, op)
            except (NetbenchError, KeyError, TypeError, ValueError):
                new = graph  # rejected, as CpEnvironment rejects a program
            else:
                assert (new is graph) == (op.name in READS)
            assert (graph.nodes, graph.edges) == before  # the input is never mutated
            graph = new
        assert check_safety_cp(graph) == ref_check_safety_cp(graph)
        victim = data.draw(st.sampled_from(sorted(graph.nodes) or ["ghost"]))
        if victim in graph.nodes:
            removed, _ = apply_basic_op(graph, ActionSpec("remove", (victim,)))
            expected = _Scratch(graph)
            ref_remove_cascading(expected, victim)
            assert _same(removed, expected)
            assert check_safety_cp(removed) == ref_check_safety_cp(removed)


@pytest.mark.parametrize("level", sorted(LEVEL_LABELS))
def test_oracle_episode_copies_the_graph_once_per_write_op(monkeypatch, level):
    """Each write op builds one new graph; a read op and ``reset`` build none."""
    base = generate_synthetic_topology(seed=0)
    built = []
    init = CpGraph.__init__

    def counted(self, nodes, edges):
        built.append(self)
        init(self, nodes, edges)

    monkeypatch.setattr(CpGraph, "__init__", counted)
    labels = set()
    for i in range(12):
        query, truth = generate_cp_query(base, level, derive_seed(level, i))
        labels.add(query.action_label)
        writes = sum(op.name not in READS for op in truth.program)
        built.clear()
        env = CpEnvironment(base, query, truth)
        assert len(built) == writes  # the golden result, computed once
        built.clear()
        env.reset()
        assert built == []
        result = run_episode(env, OracleAgent(query, truth), query)
        assert len(built) == writes
        assert result.correct and env.goal_reached()
        assert len(built) == writes
    assert labels == set(LEVEL_LABELS[level])


def test_oracle_episodes_over_one_base_compute_its_views_once(monkeypatch):
    base = generate_synthetic_topology(seed=0)
    computed = []
    for view in ("_containment", "_by_type", "linked", "_digest"):
        compute = CpGraph.__dict__[view].func

        def counted(graph, compute=compute, view=view):
            if graph is base:
                computed.append(view)
            return compute(graph)

        cached = functools.cached_property(counted)
        cached.__set_name__(CpGraph, view)
        monkeypatch.setattr(CpGraph, view, cached)
    labels = set()
    for level in sorted(LEVEL_LABELS):
        for i in range(20):
            query, truth = generate_cp_query(base, level, derive_seed(level, i))
            labels.add(query.action_label)
            env = CpEnvironment(base, query, truth)
            assert run_episode(env, OracleAgent(query, truth), query).correct
    assert labels == {label for group in LEVEL_LABELS.values() for label in group}
    assert sorted(computed) == ["_by_type", "_containment", "_digest", "linked"]
