"""Differential tests of the cp graph kernels, and how often a cp episode builds a graph.

Graphs start from small synthetic topologies and change through random
basic ops and through edits that build a changed graph: isolated nodes,
switches stripped of their ports or left linked to them by other edge
types, edges of unknown type, edges to missing nodes and ports without a
capacity. At every graph the one-pass ``check_safety_cp`` and ``remove``
must agree with the degree-based references in ``reference_kernels``, and
every view a write derives from its parent's must equal the same view of
the graph built fresh.
"""

import copy
import functools
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from netbench.agents.base import AgentMessage, MSG_FINAL
from netbench.agents.builtin import OracleAgent
from netbench.core.episode import run_episode
from netbench.core.types import ActionSpec
from netbench.cp.env import CpEnvironment
from netbench.cp.generate import LEVEL_LABELS, generate_cp_query
from netbench.cp import graph as cp_graph
from netbench.cp.graph import BASIC_OPS, CONTAINS, CONTROL, NODE_TYPES, CpGraph, apply_basic_op
from netbench.cp.safety import check_safety_cp
from netbench.cp.topology import TopoSpec, generate_synthetic_topology
from netbench.digest import digest
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
    """Each write op builds one new graph; a read op builds none. The environment runs a
    golden program that ends on a read, and takes the stored digest of one that ends on a
    write, so it builds no graph for that."""
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
        env = CpEnvironment(base, truth)
        assert len(built) == (writes if truth.program[-1].name in READS else 0)
        built.clear()
        result = run_episode(env, OracleAgent(query, truth), query)
        assert len(built) == writes
        assert result.correct and env.goal_reached()
        assert len(built) == writes
    assert labels == set(LEVEL_LABELS[level])


VIEWS = ("_links", "_by_type", "_json", "faults", "_digest")


def test_oracle_episodes_over_one_base_compute_its_views_once(monkeypatch):
    base = generate_synthetic_topology(seed=0)
    computed, from_scratch = [], []
    for view in VIEWS:
        compute = CpGraph.__dict__[view].func

        def counted(graph, compute=compute, view=view):
            if graph is base:
                computed.append(view)
            if graph._delta[0] is cp_graph._Empty:  # built directly, not by a write
                from_scratch.append(view)
            return compute(graph)

        cached = functools.cached_property(counted)
        cached.__set_name__(CpGraph, view)
        monkeypatch.setattr(CpGraph, view, cached)
    checks, texts, written = [], [], []
    fault, canonical_json, write = cp_graph._fault, cp_graph.canonical_json, cp_graph._written
    monkeypatch.setattr(cp_graph, "_fault", lambda g, *key: checks.append(g) or fault(g, *key))
    monkeypatch.setattr(cp_graph, "canonical_json", lambda obj: texts.append(obj) or canonical_json(obj))
    monkeypatch.setattr(cp_graph, "_written",
                        lambda *args, **kwargs: written.append(write(*args, **kwargs)) or written[-1])
    labels = set()
    for level in sorted(LEVEL_LABELS):
        for i in range(20):
            query, truth = generate_cp_query(base, level, derive_seed(level, i))
            labels.add(query.action_label)
            env = CpEnvironment(base, truth)
            assert run_episode(env, OracleAgent(query, truth), query).correct
    assert labels == {label for group in LEVEL_LABELS.values() for label in group}
    # the base checks and digests itself in full once; each written graph derives its faults,
    # digest and other views from the base's, with no second full check or full digest
    assert sorted(computed) == sorted(from_scratch) == sorted(VIEWS)
    base_checks = checks.count(base)
    assert base_checks >= 3 * len(base.nodes) + len(base.edges)
    assert written and all(10 * checks.count(g) < base_checks for g in written)
    assert len(texts) <= len(base.nodes) + len(base.edges) + 2 * len(written)


def _views(graph):
    """The views a graph derives from its parent's, with empty groups left out."""
    incident, children, parents = graph._links
    return {"incident": {name: set(edges) for name, edges in incident.items()},
            "children": {name: set(names) for name, names in children.items()},
            "parents": {name: set(names) for name, names in parents.items()},
            "by_type": {ntype: names for ntype, names in graph._by_type.items() if names},
            "json": graph._json, "faults": graph.faults, "digest": graph.state_digest()}


@st.composite
def awkward_write(draw, graph):
    """A graph and a write on it that a derived view must follow: a ``remove`` of a port,
    which may leave its switch empty; an ``add`` of a name that an edge of any type already
    points at; or the ``add`` of a port that such an edge from an empty switch points at,
    under another switch, which fills the empty one."""
    names = sorted(graph.nodes)
    ports = [n for n in names if graph.nodes[n]["type"] == "EK_PORT"]
    switches = [n for n in names if graph.nodes[n]["type"] == "EK_PACKET_SWITCH"]
    kind = draw(st.sampled_from(["remove_port", "add_dangling", "fill_switch"]))
    if kind == "remove_port" and ports:
        return graph, ActionSpec("remove", (draw(st.sampled_from(ports)),))
    if kind == "fill_switch" and len(switches) >= 2:
        empty, parent = draw(st.permutations(switches))[:2]
        edges = {e for e in graph.edges if e[0] != empty} | {(empty, "new1", CONTAINS)}
        return CpGraph(graph.nodes, edges), ActionSpec("add", ("new1", "EK_PORT", parent))
    dangling = (draw(st.sampled_from(names)), "new1",
                draw(st.sampled_from([CONTAINS, CONTROL, "RK_WEIRD"])))
    parent = draw(st.sampled_from([dangling[0], *names]))
    return (CpGraph(graph.nodes, graph.edges | {dangling}),
            ActionSpec("add", ("new1", draw(st.sampled_from(NODE_TYPES)), parent)))


@SETTINGS
@given(st.data(), SPECS, st.integers(0, 2**32))
def test_a_written_graph_derives_the_views_of_the_graph_built_fresh(data, spec, seed):
    graph = generate_synthetic_topology(spec, seed=seed)
    for _ in range(data.draw(st.integers(1, 8))):
        if data.draw(st.booleans()):
            graph = _edit(data, graph)  # writes then start from an edited, faulty parent
        if graph.nodes and data.draw(st.booleans()):
            graph, op = data.draw(awkward_write(graph))
        else:
            op = data.draw(basic_op(graph))
        try:
            graph, _ = apply_basic_op(graph, op)
        except (NetbenchError, KeyError, TypeError, ValueError):
            continue
        fresh = CpGraph(graph.nodes, graph.edges)
        assert _views(graph) == _views(fresh)
        assert check_safety_cp(graph) == ref_check_safety_cp(graph)
        assert graph.state_digest() == digest(
            {"nodes": graph.nodes, "edges": sorted(list(e) for e in graph.edges)})


@pytest.mark.parametrize("kind", ["update", "add", "add_then_remove"])
def test_a_long_program_derives_its_views_from_the_base_alone(kind):
    """However many writes a program makes, each view of its graphs derives one graph deep,
    so a long program is scored like a short one, with no recursion through its graphs."""
    base = generate_synthetic_topology(seed=0)
    port, switches = base.of_type("EK_PORT")[0], base.of_type("EK_PACKET_SWITCH")
    if kind == "update":
        program = [{"name": "update", "operands": [port, "physical_capacity_bps", i + 1]}
                   for i in range(2000)]
    else:
        program = [{"name": "add", "operands": [f"new{i}", "EK_PORT", switches[i % len(switches)]]}
                   for i in range(2000)]
    if kind == "add_then_remove":  # half the added edges are cut again, and some re-added
        program += [{"name": "remove", "operands": [f"new{i}"]} for i in range(0, 2000, 2)]
        program += program[:20:2]
    query, truth = generate_cp_query(base, 1, 9)
    env = CpEnvironment(base, truth)
    assert env.execute_message(AgentMessage(MSG_FINAL, {"program": program}))[1:] == (True, True, True)
    state, fresh = env.state, CpGraph(env.state.nodes, env.state.edges)
    assert state is not base
    assert env.result.value == env.final_digest() == fresh.state_digest()
    assert check_safety_cp(state) == ref_check_safety_cp(fresh) == []
    assert _views(state) == _views(fresh)


def test_threads_sharing_a_fresh_base_derive_what_one_thread_alone_derives():
    """``run --parallelism 2`` shares one base graph between episode threads, so whichever
    thread computes the base's views first, every thread's written graphs must come out as
    they do when one thread does all the work."""
    alone = generate_synthetic_topology(seed=3)
    ops = [ActionSpec("add", (f"new{i}", "EK_PORT", sw))
           for i, sw in enumerate(alone.of_type("EK_PACKET_SWITCH"))]
    ops += [ActionSpec("remove", (name,)) for name in alone.of_type("EK_PACKET_SWITCH")[::3]]
    ops += [ActionSpec("remove", (name,)) for name in alone.of_type("EK_PORT")[::7]]

    def outcome(base, op):
        graph, _ = apply_basic_op(base, op)
        children = {name: sorted(names) for name, names in graph._links[1].items()}
        return check_safety_cp(graph), graph.state_digest(), children, graph.of_type("EK_PORT")

    expected = [outcome(alone, op) for op in ops]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            shared, got = generate_synthetic_topology(seed=3), {}

            def work(first, shared=shared, got=got):
                for i in range(first, len(ops), 4):
                    got[i] = outcome(shared, ops[i])

            threads = [threading.Thread(target=work, args=(first,)) for first in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert [got.get(i) for i in range(len(ops))] == expected
            assert shared.state_digest() == alone.state_digest() and check_safety_cp(shared) == []
    finally:
        sys.setswitchinterval(saved)
