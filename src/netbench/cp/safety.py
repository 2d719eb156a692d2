"""Structural safety checker for capacity-planning graphs.

Violations are data, not exceptions: the checker always returns the
full list so an episode can be scored on every broken constraint. It
reads the graph's ``faults`` view, which holds the rules.
"""

from __future__ import annotations

from .graph import CpGraph, Violation


def check_safety_cp(graph: CpGraph) -> list[Violation]:
    """Every violation of the structural constraint set, in stable order."""
    faults = graph.faults
    return [faults[key] for key in sorted(faults)]
