"""Synthetic datacenter topology generation."""

from __future__ import annotations

from dataclasses import dataclass

from ..seeds import rng_for
from .graph import CONTAINS, CONTROL, CpGraph

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
