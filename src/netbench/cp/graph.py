"""Datacenter capacity-planning graph model and its six basic operations.

The graph is a directed DAG of typed devices. Containment edges must
follow the fixed hierarchy table; every port carries a physical
capacity in bits/s, and the capacity of any node is the sum over the
ports inside its containment closure. A graph's structural faults are one of its views.
"""

from __future__ import annotations

import hashlib
import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from ..digest import canonical_json
from ..errors import ArityMismatch, DuplicateName, HierarchyViolation, NoEligibleOperand, \
    OperandTypeMismatch, UnknownAction, UnknownNode

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
WRITE_OPS = ("add", "update", "remove")  # a program ending on one results in its graph's digest

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


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: str
    detail: str

    def __str__(self):
        return f"{self.kind}({self.subject}): {self.detail}"


class _Empty:  # the parent that a graph built directly derives its views from
    nodes, _by_type, faults, _links, _json = {}, {}, {}, ({}, {}, {}), (([], []), ([], []))


class _Views:  # a written graph's nodes and views, all computed, that a write on it derives
    def __init__(self, g):  # from in its place: so no view derives two deep, and g is freed
        self.nodes, self._by_type, self.faults, self._links, self._json = (
            g.nodes, g._by_type, g.faults, g._links, g._json)


class CpGraph:
    """A typed device graph with containment/control edges, and a value: nothing changes it,
    or the ``nodes`` dict it keeps, after ``CpGraph(nodes, edges)``, so graphs and node entries
    may be shared. Each view below is computed once, from its parent's, on first use."""

    def __init__(self, nodes: dict[str, dict], edges):
        self.nodes = nodes  # name -> {"type": ..., "attrs": {...}}
        self.edges = frozenset(edges)  # (src, dst, edge type)

    def copy(self) -> "CpGraph":  # a value is its own copy; kept as a benchmark hook
        return self

    # -- views ---------------------------------------------------------------

    @cached_property
    def _delta(self) -> tuple:
        """(parent, names whose entry or edges changed, edges added, edges removed)."""
        return _Empty, {*self.nodes, *(n for e in self.edges for n in e[:2])}, self.edges, ()

    @cached_property
    def _links(self) -> tuple[dict[str, tuple], dict[str, tuple], dict[str, tuple]]:
        """The edges at each name, and the containment children and parents of each, unsorted."""
        parent, _, added, removed = self._delta
        incident, children, parents = parent._links
        grown, cut = ([e for e in edges if e[2] == CONTAINS] for edges in (added, removed))
        return (_regroup(incident, added, removed, lambda e: {(e[0], e), (e[1], e)}),
                _regroup(children, grown, cut, lambda e: ((e[0], e[1]),)),
                _regroup(parents, grown, cut, lambda e: ((e[1], e[0]),)))

    @cached_property
    def _by_type(self) -> dict[str, tuple[str, ...]]:
        parent, touched, _, _ = self._delta
        nodes, by_type = self.nodes, dict(parent._by_type)
        for ntype in {g.nodes[n]["type"] for g in (parent, self) for n in touched if n in g.nodes}:
            names = [n for n in by_type.pop(ntype, ()) if n not in touched]
            names += [n for n in touched if n in nodes and nodes[n]["type"] == ntype]
            by_type[ntype] = tuple(sorted(names))  # () once a type's last node is removed
        return by_type

    @cached_property
    def _json(self) -> tuple[tuple[list, list], tuple[list, list]]:
        """The sorted names and edges, each beside the list of their canonical JSON texts
        (``"name":{...}``) in the same order."""
        parent, touched, added, removed = self._delta
        nodes, before = self.nodes, parent.nodes
        return (_spliced(parent._json[0], [n for n in touched if n in before and n not in nodes],
                         {n: canonical_json({n: nodes[n]})[1:-1] for n in touched
                          if n in nodes and nodes[n] is not before.get(n)}),
                _spliced(parent._json[1], removed, {e: canonical_json(e) for e in added}))

    @cached_property
    def faults(self) -> dict[tuple, Violation]:
        """The violation of each faulty element, keyed (0, node), (1, edge), (2, isolated node)
        or (3, empty switch) in check order: the parent's, with each touched node, each edge
        at one or removed and each container of one checked anew."""
        parent, touched, _, removed = self._delta
        incident, _, parents_of = self._links
        keys = {(section, n) for n in touched for section in (0, 2, 3)}
        keys.update((3, p) for n in touched for p in parents_of.get(n, ()))
        keys.update((1, e) for e in {*removed, *(e for n in touched for e in incident.get(n, ()))})
        kept = {key: fault for key, fault in parent.faults.items() if key not in keys}
        return {**kept, **{key: fault for key in keys if (fault := _fault(self, *key))}}

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
        return sorted(self._links[1].get(name, ()))

    def parents(self, name: str) -> tuple[str, ...]:  # unsorted
        return self._links[2].get(name, ())

    def containment_closure(self, name: str) -> set[str]:
        """All containment descendants of ``name``, including itself."""
        if name not in self.nodes:
            raise UnknownNode(f"no node named {name!r}")
        children_of, seen, stack = self._links[1], {name}, [name]
        while stack:
            for child in children_of.get(stack.pop(), ()):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def capacity(self, name: str) -> int:
        """Sum of physical_capacity_bps over ports inside the closure."""
        nodes = self.nodes
        return sum(int(nodes[n]["attrs"].get("physical_capacity_bps", 0))
                   for n in self.containment_closure(name) if nodes[n]["type"] == "EK_PORT")

    def parent_of(self, name: str, parent_type: str) -> str:
        """The least-named container of ``name`` of type ``parent_type``; raises
        NoEligibleOperand if none contains it."""
        nodes = self.nodes
        parents = [p for p in self.parents(name) if nodes[p]["type"] == parent_type]
        if not parents:
            raise NoEligibleOperand(f"{name} has no {parent_type} parent")
        return min(parents)

    @cached_property
    def removable_ports(self) -> list[str]:
        """The ports, sorted, whose switch (``parent_of`` the port) holds another port, so that
        removing one leaves its switch valid. Raises NoEligibleOperand for the first port that
        no switch contains."""
        nodes, children_of = self.nodes, self._links[1]
        removable = []
        for port in self.of_type("EK_PORT"):
            switch = self.parent_of(port, "EK_PACKET_SWITCH")
            if sum(nodes[c]["type"] == "EK_PORT" for c in children_of.get(switch, ())) >= 2:
                removable.append(port)
        return removable

    def degree(self, name: str) -> int:
        return len(self._links[0].get(name, ()))

    # -- canonical form ------------------------------------------------------

    def state_digest(self) -> str:
        return self._digest

    @cached_property
    def _digest(self) -> str:
        """The SHA-256 of ``canonical_json({"nodes": ..., "edges": sorted edges})``, spliced."""
        (_, node_texts), (_, edge_texts) = self._json
        text = '{"edges":[%s],"nodes":{%s}}' % (",".join(edge_texts), ",".join(node_texts))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _regroup(index: dict, added, removed, pairs) -> dict:
    """A copy of ``index`` (key -> tuple of values) less the pairs of each removed edge, plus
    those of each added one; ``pairs(edge)`` gives an edge's ``(key, value)`` pairs."""
    index = dict(index)
    for edge in removed:
        for key, value in pairs(edge):
            kept = tuple(v for v in index.pop(key) if v != value)
            if kept:
                index[key] = kept
    for edge in added:
        for key, value in pairs(edge):
            index[key] = (*index.get(key, ()), value)
    return index


def _spliced(view: tuple[list, list], gone, changed: dict) -> tuple[list, list]:
    """A copy of ``view`` (sorted keys, their texts) less the keys in ``gone``, plus ``changed``
    (key -> text), each key found by bisection."""
    keys, texts = view[0][:], view[1][:]
    for key in gone:
        i = bisect_left(keys, key)
        del keys[i], texts[i]
    for key, text in changed.items():
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            texts[i] = text
        else:
            keys.insert(i, key)
            texts.insert(i, text)
    return keys, texts


def _fault(graph: CpGraph, section: int, subject) -> Violation | None:
    """The violation of one element, keyed as in ``CpGraph.faults``, or None."""
    nodes = graph.nodes
    if subject not in (graph.edges if section == 1 else nodes):
        return None
    if section == 1:
        src, dst, etype = subject
        if etype not in EDGE_TYPES:
            return Violation("UnknownEdgeType", f"{src}->{dst}", f"edge type {etype!r} is not allowed")
        stype, dtype = (nodes[n]["type"] if n in nodes else "?" for n in (src, dst))
        if (stype, dtype) in (HIERARCHY_RULES if etype == CONTAINS else CONTROL_RULES):
            return None
        return Violation("HierarchyRuleViolation", f"{src}->{dst}",
                         f"{stype} -> {dtype} is not in the {etype} rule table")
    d = nodes[subject]
    if section == 0 and d["type"] not in NODE_TYPES:
        return Violation("UnknownNodeType", subject, f"type {d['type']!r} is not a known device type")
    if section == 0 and d["type"] == "EK_PORT":
        cap = d["attrs"].get("physical_capacity_bps")
        if cap is None:
            return Violation("MissingAttribute", subject, "port lacks physical_capacity_bps")
        if not isinstance(cap, (int, float)) or cap <= 0:
            return Violation("MissingAttribute", subject, f"physical_capacity_bps must be > 0, got {cap!r}")
    if section == 2 and subject not in graph._links[0]:
        return Violation("IsolatedNode", subject, "node has no edges")
    if section == 3 and d["type"] == "EK_PACKET_SWITCH" and not any(
            nodes.get(c, {}).get("type") == "EK_PORT" for c in graph._links[1].get(subject, ())):
        return Violation("EmptySwitch", subject, "packet switch contains no ports")
    return None


def _written(parent: CpGraph, nodes: dict, edges, touched, added=(), removed=()) -> CpGraph:
    if parent._delta[0] is not _Empty:  # written too: keep its views, so none derives deeper
        parent = _Views(parent)
    graph = CpGraph(nodes, edges)
    graph._delta = parent, touched, added, removed
    return graph


_DECIMAL = r"([+-]?)([0-9]*)(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?"  # compiled on first use


def _number(value) -> int | float:
    """An ``update`` value: an int, a float or ASCII decimal text, finite and never a bool.
    An integral value is stored as the exact int written, so ``"1e30"`` is 10**30."""
    text = repr(value) if type(value) in (int, float) else value if isinstance(value, str) else ""
    match = re.fullmatch(_DECIMAL, text)
    number = float(text) if match and any(match.group(2, 3)) else math.nan
    if not math.isfinite(number):
        raise ValueError(f"update value must be a finite number in ASCII digits, got {value!r}")
    if not (number and number.is_integer()):
        return number or 0
    sign, whole, frac, exp = match.groups(default="")
    shift = int(exp or 0) - len(frac)  # bounded, as the text's value is a finite float's
    exact, rest = divmod(int(sign + whole + frac) * 10 ** max(shift, 0), 10 ** max(-shift, 0))
    return number if rest else exact


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
        closure = graph.containment_closure(node) - {node}
        return graph, CpResult("scalar", sum(1 for c in closure if graph.nodes[c]["type"] == child_type))

    if name == "list":
        return graph, CpResult("name-list", graph.children(operands[0]))

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
        for operand in operands:  # a name of another type could not be sorted among the rest
            if not isinstance(operand, str):
                raise OperandTypeMismatch(f"add takes a string name, type and parent, "
                                          f"got {operand!r}")
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
        edge = (parent, node_name, CONTAINS)  # may already dangle towards the new name
        return _written(graph, {**nodes, node_name: {"type": ntype, "attrs": attrs}},
                        graph.edges | {edge}, {node_name, parent}, {edge} - graph.edges), None
    if node_name not in nodes:
        raise UnknownNode(f"no node named {node_name!r}")
    if name == "remove":
        # drop the node's edges, then keep only the nodes still linked
        incident = graph._links[0]
        cut = frozenset(incident.get(node_name, ()))
        ends = {n for e in cut for n in e[:2]}
        gone = nodes.keys() - incident.keys() | {n for n in ends if cut.issuperset(incident[n])}
        kept = dict(nodes)
        for n in gone & kept.keys():
            del kept[n]
        return _written(graph, kept, graph.edges - cut, gone | ends, removed=cut), None
    # update: numeric attribute overwrite on an existing node
    _, attr, value = operands
    entry = nodes[node_name]
    attrs = {**entry["attrs"], attr: _number(value)}
    return _written(graph, {**nodes, node_name: {"type": entry["type"], "attrs": attrs}},
                    graph.edges, {node_name}), None


def run_program(graph: CpGraph, program) -> tuple[CpGraph, CpResult | None]:
    """Apply ``program``'s ops in order; returns the final graph and the last op's result."""
    result = None
    for op in program:
        graph, result = apply_basic_op(graph, op)
    if program and result is None:  # the last op wrote
        result = CpResult("graph", graph.state_digest())
    return graph, result

