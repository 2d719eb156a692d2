"""Datacenter capacity-planning graph model and its six basic operations.

The graph is a directed DAG of typed devices. Containment edges must
follow the fixed hierarchy table; every port carries a physical
capacity in bits/s, and the capacity of any node is the sum over the
ports inside its containment closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from ..digest import digest
from ..errors import ArityMismatch, DuplicateName, HierarchyViolation, UnknownAction, UnknownNode

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
    """A typed device graph with containment/control edges, and a value: nothing changes it,
    or the ``nodes`` dict it keeps, after ``CpGraph(nodes, edges)``, so graphs and node entries
    may be shared. Each of the views below is computed on first use, once per graph."""

    def __init__(self, nodes: dict[str, dict], edges):
        self.nodes = nodes  # name -> {"type": ..., "attrs": {...}}
        self.edges = frozenset(edges)  # (src, dst, edge type)

    def copy(self) -> "CpGraph":  # a value is its own copy; kept as a benchmark hook
        return self

    # -- views ---------------------------------------------------------------

    @cached_property
    def _containment(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """The containment children and parents of each node, unsorted."""
        children, parents = {}, {}
        for src, dst, et in self.edges:
            if et == CONTAINS:
                children.setdefault(src, []).append(dst)
                parents.setdefault(dst, []).append(src)
        return children, parents

    @cached_property
    def _by_type(self) -> dict[str, tuple[str, ...]]:
        by_type = {}
        for name in sorted(self.nodes):
            by_type.setdefault(self.nodes[name]["type"], []).append(name)
        return {ntype: tuple(names) for ntype, names in by_type.items()}

    @cached_property
    def linked(self) -> frozenset[str]:
        """Names at either end of some edge: the nodes whose degree is not 0."""
        return _ends(self.edges)

    # -- queries -------------------------------------------------------------

    def node_type(self, name: str) -> str:
        try:
            return self.nodes[name]["type"]
        except KeyError:
            raise UnknownNode(f"no node named {name!r}") from None

    def of_type(self, ntype: str) -> tuple[str, ...]:
        """The names of the nodes of type ``ntype``, sorted."""
        return self._by_type.get(ntype, ())

    def children(self, name: str) -> list[str]:
        if name not in self.nodes:
            raise UnknownNode(f"no node named {name!r}")
        return sorted(self._containment[0].get(name, ()))

    def parents(self, name: str) -> list[str]:  # unsorted
        return self._containment[1].get(name, [])

    def containment_closure(self, name: str) -> set[str]:
        """All containment descendants of ``name``, including itself."""
        if name not in self.nodes:
            raise UnknownNode(f"no node named {name!r}")
        children_of = self._containment[0]
        seen = {name}
        stack = [name]
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

    # -- canonical form ------------------------------------------------------

    def state_digest(self) -> str:
        return self._digest

    @cached_property
    def _digest(self) -> str:
        return digest({"nodes": self.nodes, "edges": sorted(list(e) for e in self.edges)})


def _ends(edges) -> frozenset[str]:
    return frozenset([e[0] for e in edges] + [e[1] for e in edges])


def apply_basic_op(graph: CpGraph, op) -> tuple[CpGraph, CpResult | None]:
    """Execute one basic operation, returning the new graph and its result.

    ``op`` is an ActionSpec-like object with ``name`` and ``operands``.
    Writes (``add``, ``remove``, ``update``) return a new graph built from
    the input's nodes plus one change, and no result (``run_program``
    digests the graph a program's last write leaves); reads return the
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

    nodes = graph.nodes
    node_name = operands[0]
    if name == "add":
        _, ntype, parent = operands
        if node_name in nodes:
            raise DuplicateName(f"node {node_name!r} already exists")
        if ntype not in NODE_TYPES:
            raise HierarchyViolation(f"unknown node type {ntype!r}")
        parent_type = graph.node_type(parent)
        if (parent_type, ntype) not in HIERARCHY_RULES:
            raise HierarchyViolation(f"{parent_type} may not contain {ntype}")
        attrs = {}
        if ntype == "EK_PORT":
            attrs["physical_capacity_bps"] = DEFAULT_PORT_CAPACITY_BPS
        elif ntype == "EK_PACKET_SWITCH":
            attrs["switch_loc"] = parent
        return CpGraph({**nodes, node_name: {"type": ntype, "attrs": attrs}},
                       graph.edges | {(parent, node_name, CONTAINS)}), None
    if node_name not in nodes:
        raise UnknownNode(f"no node named {node_name!r}")
    if name == "remove":
        # drop the node's edges, then keep only the nodes still linked
        edges = frozenset(e for e in graph.edges if e[0] != node_name and e[1] != node_name)
        linked = _ends(edges)
        return CpGraph({n: d for n, d in nodes.items() if n in linked}, edges), None
    # update: numeric attribute overwrite on an existing node
    _, attr, value = operands
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"update value must be a finite number, got {value!r}")
    entry = nodes[node_name]
    attrs = {**entry["attrs"], attr: number if not number.is_integer() else int(value)}
    return CpGraph({**nodes, node_name: {"type": entry["type"], "attrs": attrs}}, graph.edges), None


def run_program(graph: CpGraph, program) -> tuple[CpGraph, CpResult | None]:
    """Apply ``program``'s ops in order; returns the final graph and the last op's result."""
    result = None
    for op in program:
        graph, result = apply_basic_op(graph, op)
    if program and result is None:  # the last op wrote
        result = CpResult("graph", graph.state_digest())
    return graph, result

