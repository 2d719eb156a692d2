import pytest
from hypothesis import given, settings, strategies as st

from netbench.core.types import ActionSpec
from netbench.cp.graph import CONTAINS, CONTROL, CpGraph, CpResult, DEFAULT_PORT_CAPACITY_BPS, \
    apply_basic_op, run_program
from netbench.cp.topology import DESK_SCALE, TopoSpec, generate_synthetic_topology, load_topology
from netbench.errors import ArityMismatch, DuplicateName, HierarchyViolation, \
    UnknownAction, UnknownNode


def node(ntype, **attrs):
    return {"type": ntype, "attrs": attrs}


def small_graph(nodes=(), edges=()):
    """A switch with two ports under one aggregation block, plus ``nodes`` and ``edges``."""
    return CpGraph({"ju1": node("EK_JUPITER"), "ju1.s1": node("EK_SPINE_BLOCK"),
                    "ju1.a1": node("EK_AGG_BLOCK"),
                    "sw1": node("EK_PACKET_SWITCH", switch_loc="ju1.a1"),
                    "sw1.p1": node("EK_PORT", physical_capacity_bps=100),
                    "sw1.p2": node("EK_PORT", physical_capacity_bps=200), **dict(nodes)},
                   {("ju1", "ju1.s1", CONTAINS), ("ju1.s1", "ju1.a1", CONTAINS),
                    ("ju1.a1", "sw1", CONTAINS), ("sw1", "sw1.p1", CONTAINS),
                    ("sw1", "sw1.p2", CONTAINS), *edges})


# --- structure --------------------------------------------------------------

def test_children_sorted():
    g = small_graph()
    assert g.children("sw1") == ["sw1.p1", "sw1.p2"]


def test_containment_closure_includes_self_and_descendants():
    g = small_graph()
    assert g.containment_closure("ju1.a1") == {"ju1.a1", "sw1", "sw1.p1", "sw1.p2"}


def test_capacity_sums_ports_in_closure():
    g = small_graph()
    assert g.capacity("sw1") == 300
    assert g.capacity("ju1") == 300
    assert g.capacity("sw1.p1") == 100


def test_duplicate_node_rejected(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("node sw1 EK_PACKET_SWITCH\nnode sw1 EK_PACKET_SWITCH\n")
    with pytest.raises(DuplicateName, match="node 'sw1' already exists"):
        load_topology(path)


def test_edge_to_missing_node_rejected(tmp_path):
    path = tmp_path / "dangling.txt"
    for edge, end in (("ghost sw1", "source"), ("sw1 ghost", "target")):
        path.write_text(f"node sw1 EK_PACKET_SWITCH\nedge {edge} RK_CONTAINS\n")
        with pytest.raises(UnknownNode, match=f"edge {end} 'ghost' not in graph"):
            load_topology(path)


def test_digest_stable_and_copy_independent():
    g = small_graph()
    d = g.state_digest()
    h, _ = apply_basic_op(g, ActionSpec("add", ("x", "EK_PORT", "sw1")))
    assert g.state_digest() == d == small_graph().state_digest()
    assert h.state_digest() != d
    assert "x" not in g.nodes and ("sw1", "x", CONTAINS) not in g.edges


# --- basic operations -------------------------------------------------------

def test_op_unknown_action():
    with pytest.raises(UnknownAction):
        apply_basic_op(small_graph(), ActionSpec("teleport", ("sw1",)))


def test_op_arity_checked():
    with pytest.raises(ArityMismatch):
        apply_basic_op(small_graph(), ActionSpec("remove", ("a", "b")))


def test_add_port_gets_default_capacity():
    g2, res = run_program(small_graph(), [ActionSpec("add", ("p9", "EK_PORT", "sw1"))])
    assert g2.nodes["p9"]["attrs"]["physical_capacity_bps"] == DEFAULT_PORT_CAPACITY_BPS
    assert res == CpResult("graph", g2.state_digest())


def test_add_rejects_hierarchy_violation():
    with pytest.raises(HierarchyViolation):
        apply_basic_op(small_graph(), ActionSpec("add", ("x", "EK_PORT", "ju1")))


def test_add_rejects_duplicate():
    with pytest.raises(DuplicateName):
        apply_basic_op(small_graph(), ActionSpec("add", ("sw1.p1", "EK_PORT", "sw1")))


def test_count_counts_closure_of_type():
    _, res = apply_basic_op(small_graph(), ActionSpec("count", ("EK_PORT", "ju1")))
    assert res.kind == "scalar" and res.value == 2


def test_list_returns_direct_children():
    _, res = apply_basic_op(small_graph(), ActionSpec("list", ("sw1",)))
    assert res.kind == "name-list" and res.value == ["sw1.p1", "sw1.p2"]


def test_rank_descending_with_name_ties():
    g = small_graph({"sw2": node("EK_PACKET_SWITCH", switch_loc="ju1.a1"),
                     "sw2.p1": node("EK_PORT", physical_capacity_bps=300)},
                    {("ju1.a1", "sw2", CONTAINS), ("sw2", "sw2.p1", CONTAINS)})
    _, res = apply_basic_op(g, ActionSpec("rank", ("ju1.a1",)))
    assert res.kind == "ranked-list"
    assert res.value == [("sw1", 300), ("sw2", 300)]  # tie broken by name


def test_remove_cascades_and_sweeps_orphans():
    g2, _ = apply_basic_op(small_graph(), ActionSpec("remove", ("sw1",)))
    # the switch and both its (now isolated) ports must be gone
    for gone in ("sw1", "sw1.p1", "sw1.p2"):
        assert gone not in g2.nodes
    assert "ju1.a1" in g2.nodes


def test_update_overwrites_numeric_attribute():
    g2, _ = apply_basic_op(small_graph(),
                           ActionSpec("update", ("sw1.p1", "physical_capacity_bps", 500)))
    assert g2.nodes["sw1.p1"]["attrs"]["physical_capacity_bps"] == 500


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", float("nan"), float("inf")])
def test_update_rejects_a_non_finite_value(value):
    with pytest.raises(ValueError, match="finite"):
        apply_basic_op(small_graph(), ActionSpec("update", ("sw1.p1", "physical_capacity_bps", value)))


def test_ops_do_not_mutate_input():
    g = small_graph()
    for op in (ActionSpec("remove", ("sw1",)), ActionSpec("add", ("p9", "EK_PORT", "sw1")),
               ActionSpec("update", ("sw1.p1", "physical_capacity_bps", 500))):
        apply_basic_op(g, op)
    assert g.nodes == small_graph().nodes and g.edges == small_graph().edges


# --- capacity oracle: independent exhaustive traversal ----------------------

def _oracle_capacity(graph, root):
    """Plain recursive traversal, written independently of CpGraph internals."""
    def descendants(n, seen):
        seen.add(n)
        for src, dst, et in graph.edges:
            if src == n and et == CONTAINS and dst not in seen:
                descendants(dst, seen)
        return seen

    total = 0
    for n in descendants(root, set()):
        data = graph.nodes[n]
        if data["type"] == "EK_PORT":
            total += int(data["attrs"].get("physical_capacity_bps", 0))
    return total


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_capacity_matches_oracle_on_random_topologies(seed):
    spec = TopoSpec(agg_blocks=2, chassis_per_agg=2, switches_per_chassis=2, ports_per_switch=3)
    g = generate_synthetic_topology(spec, seed=seed)
    for node in ("ju1", "ju1.a1", "ju1.a2"):
        assert g.capacity(node) == _oracle_capacity(g, node)


def test_capacity_matches_oracle_desk_scale():
    g = generate_synthetic_topology(DESK_SCALE, seed=0)
    for node in sorted(g.nodes)[:40]:
        assert g.capacity(node) == _oracle_capacity(g, node)
