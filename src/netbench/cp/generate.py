"""Capacity-planning query generation with executable ground truths.

Each label maps to a natural-language template plus the action program
that realizes it. The program is executed once at generation time as a
self-consistency check, and its final digest becomes the target.
"""

from __future__ import annotations

from ..core.types import GT_ACTION_PROGRAM, ActionSpec, GroundTruth, QuerySpec
from ..errors import NoEligibleOperand
from ..seeds import rng_for
from .graph import CpGraph, run_program

LEVEL_LABELS = {
    1: ("remove", "rank", "list", "add"),
    2: ("remove-count", "remove-list", "remove-rank"),
    3: ("add-count", "add-list", "add-rank"),
}


def _pick(rng, pool, what):
    if not pool:
        raise NoEligibleOperand(f"no eligible {what} in graph")
    return rng.choice(pool)


def _fresh_name(rng, graph: CpGraph, ntype: str) -> str:
    short = ntype  # names carry the full EK_* type so it can be inferred back
    while True:
        cand = f"new_{short}_{rng.randrange(1, 100)}"
        if cand not in graph.nodes:
            return cand


def generate_cp_query(graph: CpGraph, level: int, seed: int) -> tuple[QuerySpec, GroundTruth]:
    """Sample one query at the given complexity level, with its program."""
    rng = rng_for(seed)
    label = rng.choice(LEVEL_LABELS[level])

    switches = graph.of_type("EK_PACKET_SWITCH")
    chassis = graph.of_type("EK_CHASSIS")
    domains = graph.of_type("EK_CONTROL_DOMAIN")
    aggs = graph.of_type("EK_AGG_BLOCK")

    if label in ("remove", "remove-list", "remove-rank"):
        sw = _pick(rng, switches, "packet switch")
        parent = graph.parent_of(sw, "EK_CHASSIS")
        prompt = {
            "remove": (f"Remove {sw} from the graph. "
                       f"List the direct child nodes of {parent} in the updated graph."),
            "remove-list": f"Remove {sw} from the graph. List the direct child nodes of {parent}.",
            "remove-rank": (f"Remove {sw}. "
                            f"Rank the child nodes of {parent} based on the total bandwidth."),
        }[label]
        program = [ActionSpec("remove", (sw,)),
                   ActionSpec("rank" if label == "remove-rank" else "list", (parent,))]

    elif label == "rank":
        pools = [("EK_CONTROL_DOMAIN", domains), ("EK_CHASSIS", chassis), ("EK_AGG_BLOCK", aggs)]
        ntype, pool = pools[rng.randrange(len(pools))]
        node = _pick(rng, pool, ntype)
        prompt = (f"Rank all child nodes of type {ntype} with name {node} "
                  f"based on the physical_capacity_bps attribute.")
        program = [ActionSpec("rank", (node,))]

    elif label == "list":
        node = _pick(rng, sorted(chassis + aggs + domains), "container node")
        prompt = f"List all the child nodes of {node}. Return a list of child node names."
        program = [ActionSpec("list", (node,))]

    elif label == "remove-count":
        # keep at least one sibling port so the switch stays structurally valid
        port = _pick(rng, graph.removable_ports, "removable port")
        sw = graph.parent_of(port, "EK_PACKET_SWITCH")
        prompt = (f"Remove {port}. Count the number of nodes with type=EK_PORT "
                  f"under {sw} in the updated graph.")
        program = [ActionSpec("remove", (port,)), ActionSpec("count", ("EK_PORT", sw))]

    elif label in ("add", "add-count", "add-list", "add-rank"):
        sw = _pick(rng, switches, "packet switch")
        name = _fresh_name(rng, graph, "EK_PORT")
        prompt = f"Add a new PORT with {name} and type=EK_PORT to the node {sw}."
        program = [ActionSpec("add", (name, "EK_PORT", sw))]
        if label == "add-count":
            prompt += f" Count the number of type=EK_PORT under {sw} in the updated graph."
            program.append(ActionSpec("count", ("EK_PORT", sw)))
        elif label == "add-list":
            prompt += f" List the direct child nodes of {sw} in the updated graph."
            program.append(ActionSpec("list", (sw,)))
        elif label == "add-rank":
            prompt += f" Rank the child nodes of {sw} based on the physical_capacity_bps attribute."
            program.append(ActionSpec("rank", (sw,)))

    else:  # pragma: no cover - label table is closed
        raise AssertionError(label)

    # self-consistency: the golden program must execute cleanly right now
    state, result = run_program(graph, program)

    query = QuerySpec(
        id=f"cp-L{level}-{seed:016x}",
        app="cp",
        level=level,
        action_label=label,
        prompt_text=prompt,
        seed=seed,
    )
    # a program that ends on a write already digested its graph
    target = result.value if result.kind == "graph" else state.state_digest()
    truth = GroundTruth(kind=GT_ACTION_PROGRAM, target_digest=target, program=tuple(program))
    return query, truth
