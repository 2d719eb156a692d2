from netbench.cp.graph import CONTAINS, CONTROL, CpGraph
from netbench.cp.safety import check_safety_cp
from netbench.cp.topology import generate_synthetic_topology


def node(ntype, **attrs):
    return {"type": ntype, "attrs": attrs}


def valid_graph(nodes=(), edges=(), without=()):
    """A valid chain from the root to one port, with ``nodes`` added or replaced, ``edges``
    added, and the nodes named in ``without`` dropped with their edges."""
    nodes = {"ju1": node("EK_JUPITER"), "s1": node("EK_SPINE_BLOCK"), "a1": node("EK_AGG_BLOCK"),
             "sw1": node("EK_PACKET_SWITCH", switch_loc="a1"),
             "p1": node("EK_PORT", physical_capacity_bps=100), **dict(nodes)}
    edges = {("ju1", "s1", CONTAINS), ("s1", "a1", CONTAINS), ("a1", "sw1", CONTAINS),
             ("sw1", "p1", CONTAINS), *edges}
    return CpGraph({n: d for n, d in nodes.items() if n not in without},
                   {e for e in edges if not set(e[:2]) & set(without)})


def kinds(graph):
    return [v.kind for v in check_safety_cp(graph)]


def test_valid_graph_has_no_violations():
    assert check_safety_cp(valid_graph()) == []


def test_synthetic_topology_is_clean():
    assert check_safety_cp(generate_synthetic_topology(seed=3)) == []


def test_unknown_node_type_flagged():
    g = valid_graph({"sw1": node("EK_TOASTER", switch_loc="a1")})
    assert "UnknownNodeType" in kinds(g)


def test_port_missing_capacity_flagged():
    g = valid_graph({"p1": node("EK_PORT")})
    assert any(v.kind == "MissingAttribute" and v.subject == "p1" for v in check_safety_cp(g))


def test_port_nonpositive_capacity_flagged():
    g = valid_graph({"p1": node("EK_PORT", physical_capacity_bps=0)})
    assert "MissingAttribute" in kinds(g)


def test_unknown_edge_type_flagged():
    g = valid_graph(edges=[("ju1", "a1", "RK_TELEPORT")])
    assert "UnknownEdgeType" in kinds(g)


def test_containment_rule_violation_flagged():
    g = valid_graph(edges=[("p1", "ju1", CONTAINS)])  # a port may not contain the root
    assert "HierarchyRuleViolation" in kinds(g)


def test_control_rule_violation_flagged():
    g = valid_graph(edges=[("ju1", "sw1", CONTROL)])  # only control points/domains control
    assert "HierarchyRuleViolation" in kinds(g)


def test_isolated_node_flagged():
    g = valid_graph({"lonely": node("EK_RACK")})
    assert any(v.kind == "IsolatedNode" and v.subject == "lonely" for v in check_safety_cp(g))


def test_empty_switch_flagged():
    g = valid_graph(without=["p1"])
    result = check_safety_cp(g)
    assert any(v.kind == "EmptySwitch" and v.subject == "sw1" for v in result)


def test_violations_reported_in_stable_order():
    g = valid_graph({"sw1": node("EK_TOASTER", switch_loc="a1"), "lonely": node("EK_RACK")})
    assert check_safety_cp(g) == check_safety_cp(g)
