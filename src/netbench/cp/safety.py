"""Structural safety checker for capacity-planning graphs.

Violations are data, not exceptions: the checker always returns the
full list so an episode can be scored on every broken constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import CONTAINS, CONTROL_RULES, EDGE_TYPES, HIERARCHY_RULES, NODE_TYPES, CpGraph


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: str
    detail: str

    def __str__(self):
        return f"{self.kind}({self.subject}): {self.detail}"


def check_safety_cp(graph: CpGraph) -> list[Violation]:
    """Every violation of the structural constraint set, in stable order."""
    out: list[Violation] = []

    for name in sorted(graph.nodes):
        d = graph.nodes[name]
        if d["type"] not in NODE_TYPES:
            out.append(Violation("UnknownNodeType", name, f"type {d['type']!r} is not a known device type"))
        if d["type"] == "EK_PORT":
            cap = d["attrs"].get("physical_capacity_bps")
            if cap is None:
                out.append(Violation("MissingAttribute", name, "port lacks physical_capacity_bps"))
            elif not isinstance(cap, (int, float)) or cap <= 0:
                out.append(Violation("MissingAttribute", name, f"physical_capacity_bps must be > 0, got {cap!r}"))

    for src, dst, etype in sorted(graph.edges):
        if etype not in EDGE_TYPES:
            out.append(Violation("UnknownEdgeType", f"{src}->{dst}", f"edge type {etype!r} is not allowed"))
            continue
        stype = graph.nodes[src]["type"] if src in graph.nodes else "?"
        dtype = graph.nodes[dst]["type"] if dst in graph.nodes else "?"
        table = HIERARCHY_RULES if etype == CONTAINS else CONTROL_RULES
        if (stype, dtype) not in table:
            out.append(
                Violation(
                    "HierarchyRuleViolation",
                    f"{src}->{dst}",
                    f"{stype} -> {dtype} is not in the {etype} rule table",
                )
            )

    linked = graph.linked()
    for name in sorted(graph.nodes):
        if name not in linked:
            out.append(Violation("IsolatedNode", name, "node has no edges"))

    ported = {s for s, d, et in graph.edges
              if et == CONTAINS and graph.nodes.get(d, {}).get("type") == "EK_PORT"}
    for name in sorted(graph.nodes):
        if graph.nodes[name]["type"] == "EK_PACKET_SWITCH" and name not in ported:
            out.append(Violation("EmptySwitch", name, "packet switch contains no ports"))

    return out
