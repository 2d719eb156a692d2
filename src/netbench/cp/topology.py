"""Synthetic topology generation and the line-oriented fixture format.

The fixture format is one record per line::

    node <name> <EK_TYPE> [key=value ...]
    edge <src> <dst> <RK_TYPE>

Blank lines and ``#`` comments are ignored. Attribute values parse as
int, then finite float, then string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import DuplicateName, InvariantViolation, ParseError, UnknownNode
from ..seeds import rng_for
from .graph import CONTAINS, CONTROL, CpGraph
from .safety import check_safety_cp

PORT_CAPACITY_CHOICES = (100_000_000_000, 200_000_000_000, 400_000_000_000)


@dataclass(frozen=True)
class TopoSpec:
    """Layer sizes for a synthetic datacenter graph."""

    spine_blocks: int = 1
    super_blocks: int = 1
    agg_blocks: int = 4
    chassis_per_agg: int = 2
    switches_per_chassis: int = 4
    ports_per_switch: int = 4

    def validate(self):
        for field_name, v in self.__dict__.items():
            if v < 1:
                raise ValueError(f"{field_name} must be >= 1, got {v}")


DESK_SCALE = TopoSpec()


def generate_synthetic_topology(spec: TopoSpec = DESK_SCALE, seed: int = 0) -> CpGraph:
    """A valid desk-scale graph exercising all ten device types."""
    spec.validate()
    rng = rng_for(seed)
    nodes, edges = {}, set()

    def node(name, ntype, attrs=None):
        nodes[name] = {"type": ntype, "attrs": attrs or {}}

    root = "ju1"
    node(root, "EK_JUPITER")
    spines = [f"ju1.s{i}" for i in range(1, spec.spine_blocks + 1)]
    supers = [f"ju1.b{i}" for i in range(1, spec.super_blocks + 1)]
    for s in spines:
        node(s, "EK_SPINE_BLOCK")
        edges.add((root, s, CONTAINS))
    for b in supers:
        node(b, "EK_SUPER_BLOCK")
        edges.add((root, b, CONTAINS))

    for i in range(1, spec.agg_blocks + 1):
        agg = f"ju1.a{i}"
        node(agg, "EK_AGG_BLOCK")
        # alternate the containing block so both rules appear in the graph
        if i % 2 == 1:
            edges.add((spines[(i - 1) % len(spines)], agg, CONTAINS))
        else:
            edges.add((supers[(i - 1) % len(supers)], agg, CONTAINS))

        rack = f"ju1.r{i}"
        node(rack, "EK_RACK")
        dom = f"ju1.a{i}.dom"
        node(dom, "EK_CONTROL_DOMAIN")

        for j in range(1, spec.chassis_per_agg + 1):
            chassis = f"ju1.a{i}.m{j}"
            node(chassis, "EK_CHASSIS")
            edges.add((rack, chassis, CONTAINS))

            cpoint = f"ju1.a{i}.m{j}.cp1"
            node(cpoint, "EK_CONTROL_POINT")
            edges.add((chassis, cpoint, CONTAINS))
            edges.add((dom, cpoint, CONTAINS))

            for k in range(1, spec.switches_per_chassis + 1):
                switch = f"ju1.a{i}.m{j}.s2c{k}"
                node(switch, "EK_PACKET_SWITCH", {"switch_loc": chassis})
                edges.add((chassis, switch, CONTAINS))
                edges.add((agg, switch, CONTAINS))
                edges.add((cpoint, switch, CONTROL))

                for p in range(1, spec.ports_per_switch + 1):
                    port = f"{switch}.p{p}"
                    node(port, "EK_PORT", {"physical_capacity_bps": rng.choice(PORT_CAPACITY_CHOICES)})
                    edges.add((switch, port, CONTAINS))

    return CpGraph(nodes, edges)


def _parse_value(text: str):
    for cast in (int, float):
        try:
            value = cast(text)
        except ValueError:
            continue
        return value if cast is int or math.isfinite(value) else text
    return text


def load_topology(path) -> CpGraph:
    """Load and validate a fixture file; invalid graphs fail loudly."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    nodes, edges = {}, set()
    saw_record = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "node":
                name, ntype = parts[1], parts[2]
                attrs = {}
                for kv in parts[3:]:
                    if "=" not in kv:
                        raise ParseError(f"line {lineno}: malformed attribute {kv!r}")
                    k, v = kv.split("=", 1)
                    attrs[k] = _parse_value(v)
                if name in nodes:
                    raise DuplicateName(f"node {name!r} already exists")
                nodes[name] = {"type": ntype, "attrs": attrs}
            elif parts[0] == "edge":
                edge = (parts[1], parts[2], parts[3])
                for end, role in zip(edge, ("source", "target")):
                    if end not in nodes:
                        raise UnknownNode(f"edge {role} {end!r} not in graph")
                edges.add(edge)
            else:
                raise ParseError(f"line {lineno}: unknown record kind {parts[0]!r}")
        except IndexError:
            raise ParseError(f"line {lineno}: truncated record: {line!r}") from None
        saw_record = True

    if not saw_record:
        raise ParseError(f"{path}: no node/edge records found")

    g = CpGraph(nodes, edges)
    violations = check_safety_cp(g)
    if violations:
        raise InvariantViolation(violations)
    return g


def save_topology(graph: CpGraph, path):
    """Write a graph in the fixture format, with a count header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# nodes={len(graph.nodes)} edges={len(graph.edges)}\n")
        for name in sorted(graph.nodes):
            d = graph.nodes[name]
            attrs = " ".join(f"{k}={v}" for k, v in sorted(d["attrs"].items()))
            fh.write(f"node {name} {d['type']}" + (f" {attrs}" if attrs else "") + "\n")
        for src, dst, et in sorted(graph.edges):
            fh.write(f"edge {src} {dst} {et}\n")
