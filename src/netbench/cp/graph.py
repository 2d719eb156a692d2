"""Datacenter capacity-planning graph model and its six basic operations.

The graph is a directed DAG of typed devices. Containment edges must
follow the fixed hierarchy table; every port carries a physical
capacity in bits/s, and the capacity of any node is the sum over the
ports inside its containment closure.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..digest import digest
from ..errors import (
    ArityMismatch,
    DuplicateName,
    HierarchyViolation,
    UnknownAction,
    UnknownNode,
)

CONTAINS = "RK_CONTAINS"
CONTROL = "RK_CONTROL"
EDGE_TYPES = (CONTAINS, CONTROL)

NODE_TYPES = (
    "EK_JUPITER",
    "EK_SPINE_BLOCK",
    "EK_SUPER_BLOCK",
    "EK_AGG_BLOCK",
    "EK_PACKET_SWITCH",
    "EK_CHASSIS",
    "EK_CONTROL_POINT",
    "EK_CONTROL_DOMAIN",
    "EK_RACK",
    "EK_PORT",
)

# Legal (parent type, child type) pairs for containment edges.
HIERARCHY_RULES = frozenset(
    {
        ("EK_JUPITER", "EK_SPINE_BLOCK"),
        ("EK_SPINE_BLOCK", "EK_AGG_BLOCK"),
        ("EK_AGG_BLOCK", "EK_PACKET_SWITCH"),
        ("EK_CHASSIS", "EK_CONTROL_POINT"),
        ("EK_CONTROL_POINT", "EK_PACKET_SWITCH"),
        ("EK_RACK", "EK_CHASSIS"),
        ("EK_PACKET_SWITCH", "EK_PORT"),
        ("EK_SPINE_BLOCK", "EK_PACKET_SWITCH"),
        ("EK_CONTROL_DOMAIN", "EK_CONTROL_POINT"),
        ("EK_CHASSIS", "EK_PACKET_SWITCH"),
        ("EK_JUPITER", "EK_SUPER_BLOCK"),
        ("EK_SUPER_BLOCK", "EK_AGG_BLOCK"),
    }
)

# Legal (src type, dst type) pairs for control edges.
CONTROL_RULES = frozenset(
    {
        ("EK_CONTROL_POINT", "EK_PACKET_SWITCH"),
        ("EK_CONTROL_DOMAIN", "EK_CONTROL_POINT"),
    }
)

DEFAULT_PORT_CAPACITY_BPS = 100_000_000_000  # capacity assigned to agent-added ports

BASIC_OPS = ("add", "count", "update", "remove", "list", "rank")

_OP_ARITY = {
    "add": 3,  # name, type, parent
    "count": 2,  # child type, node
    "update": 3,  # name, attribute, numeric value
    "remove": 1,  # name
    "list": 1,  # node
    "rank": 1,  # node
}


@dataclass(frozen=True)
class CpResult:
    """Typed payload returned by a basic operation."""

    kind: str  # scalar | name-list | ranked-list | graph
    value: object


class CpGraph:
    """Typed device graph with containment/control edges.

    Mutating operations go through :func:`apply_basic_op`, which copies
    the graph before a write; instances handed to callers are therefore
    value-like and may be shared.
    """

    def __init__(self):
        self.nodes: dict[str, dict] = {}  # name -> {"type": ..., "attrs": {...}}
        self.edges: set[tuple[str, str, str]] = set()

    # -- construction --------------------------------------------------------

    def add_node(self, name: str, ntype: str, attrs: dict | None = None):
        if name in self.nodes:
            raise DuplicateName(f"node {name!r} already exists")
        self.nodes[name] = {"type": ntype, "attrs": dict(attrs or {})}

    def add_edge(self, src: str, dst: str, etype: str = CONTAINS):
        if src not in self.nodes:
            raise UnknownNode(f"edge source {src!r} not in graph")
        if dst not in self.nodes:
            raise UnknownNode(f"edge target {dst!r} not in graph")
        self.edges.add((src, dst, etype))

    def copy(self) -> "CpGraph":
        g = CpGraph()
        g.nodes = {n: {"type": d["type"], "attrs": dict(d["attrs"])} for n, d in self.nodes.items()}
        g.edges = set(self.edges)
        return g

    # -- queries -------------------------------------------------------------

    def node_type(self, name: str) -> str:
        try:
            return self.nodes[name]["type"]
        except KeyError:
            raise UnknownNode(f"no node named {name!r}") from None

    def children(self, name: str) -> list[str]:
        if name not in self.nodes:
            raise UnknownNode(f"no node named {name!r}")
        return sorted(dst for src, dst, et in self.edges if src == name and et == CONTAINS)

    def containment_closure(self, name: str) -> set[str]:
        """All containment descendants of ``name``, including itself."""
        if name not in self.nodes:
            raise UnknownNode(f"no node named {name!r}")
        seen = {name}
        stack = [name]
        children_of: dict[str, list[str]] = {}
        for src, dst, et in self.edges:
            if et == CONTAINS:
                children_of.setdefault(src, []).append(dst)
        while stack:
            for child in children_of.get(stack.pop(), ()):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def capacity(self, name: str) -> int:
        """Sum of physical_capacity_bps over ports inside the closure."""
        total = 0
        for n in self.containment_closure(name):
            d = self.nodes[n]
            if d["type"] == "EK_PORT":
                total += int(d["attrs"].get("physical_capacity_bps", 0))
        return total

    def degree(self, name: str) -> int:
        return sum(1 for src, dst, _ in self.edges if src == name or dst == name)

    def linked(self) -> set[str]:
        """Names at either end of some edge: the nodes whose degree is not 0."""
        return {end for src, dst, _ in self.edges for end in (src, dst)}

    # -- canonical form ------------------------------------------------------

    def to_json(self):
        return {
            "nodes": {
                n: {"type": d["type"], "attrs": d["attrs"]} for n, d in sorted(self.nodes.items())
            },
            "edges": sorted(list(e) for e in self.edges),
        }

    def state_digest(self) -> str:
        return digest(self.to_json())


def apply_basic_op(graph: CpGraph, op) -> tuple[CpGraph, CpResult | None]:
    """Execute one basic operation, returning the new graph and its result.

    ``op`` is an ActionSpec-like object with ``name`` and ``operands``.
    The input graph is never mutated: writes (``add``, ``remove``,
    ``update``) return a changed copy and no result (``run_program``
    digests the graph a program's last write leaves), reads return the
    input graph.
    """
    name = op.name
    operands = tuple(op.operands)
    if name not in BASIC_OPS:
        raise UnknownAction(name)
    if len(operands) != _OP_ARITY[name]:
        raise ArityMismatch(name, len(operands), _OP_ARITY[name])

    if name == "count":
        child_type, node = operands
        closure = graph.containment_closure(node)
        closure.discard(node)
        n = sum(1 for c in closure if graph.nodes[c]["type"] == child_type)
        return graph, CpResult("scalar", n)

    if name == "list":
        (node,) = operands
        return graph, CpResult("name-list", graph.children(node))

    if name == "rank":
        (node,) = operands
        # descending capacity; ties broken lexicographically by name
        entries = [(child, graph.capacity(child)) for child in graph.children(node)]
        entries.sort(key=lambda e: (-e[1], e[0]))
        return graph, CpResult("ranked-list", entries)

    g = graph.copy()
    node_name = operands[0]
    if name == "add":
        _, ntype, parent = operands
        if node_name in g.nodes:
            raise DuplicateName(f"node {node_name!r} already exists")
        if ntype not in NODE_TYPES:
            raise HierarchyViolation(f"unknown node type {ntype!r}")
        parent_type = g.node_type(parent)
        if (parent_type, ntype) not in HIERARCHY_RULES:
            raise HierarchyViolation(f"{parent_type} may not contain {ntype}")
        attrs = {}
        if ntype == "EK_PORT":
            attrs["physical_capacity_bps"] = DEFAULT_PORT_CAPACITY_BPS
        elif ntype == "EK_PACKET_SWITCH":
            attrs["switch_loc"] = parent
        g.add_node(node_name, ntype, attrs)
        g.add_edge(parent, node_name, CONTAINS)
    elif node_name not in g.nodes:
        raise UnknownNode(f"no node named {node_name!r}")
    elif name == "remove":
        _remove_cascading(g, node_name)
    else:  # update: numeric attribute overwrite on an existing node
        _, attr, value = operands
        g.nodes[node_name]["attrs"][attr] = float(value) if not float(value).is_integer() else int(value)
    return g, None


def run_program(graph: CpGraph, program) -> tuple[CpGraph, CpResult | None]:
    """Apply ``program``'s ops in order; returns the final graph and the last op's result."""
    result = None
    for op in program:
        graph, result = apply_basic_op(graph, op)
    if program and result is None:  # the last op wrote
        result = CpResult("graph", graph.state_digest())
    return graph, result


def _remove_cascading(g: CpGraph, name: str):
    """Delete a node, its incident edges, and any nodes left isolated.

    Deleting an isolated node removes no edge, so one pass finds them all.
    """
    g.edges = {(s, d, t) for s, d, t in g.edges if s != name and d != name}
    del g.nodes[name]
    for n in g.nodes.keys() - g.linked():
        del g.nodes[n]
