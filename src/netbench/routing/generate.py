"""Query generation for the routing application.

A query is a hidden fault combination injected into a freshly built
healthy topology. The ground truth carries the injection (so the
environment can be rebuilt from the query alone) plus a recovery
sequence: the faults' inverse commands in an order where every step
strictly increases the number of reachable pairs without breaking a
working one. Combinations for which no such order exists under the
sampled parameters are resampled.
"""

from __future__ import annotations

from ..core.reactive import monotone_order
from ..core.types import ActionSpec, GT_RECOVERY_PREDICATE, GroundTruth, QuerySpec
from ..errors import EmptyLevelSet, IneffectiveInjection
from ..seeds import rng_for
from .commands import exec_command
from .inject import FAMILY_METHODS, apply_fault, build_fault, fault_from_action, \
    fault_scope, fault_to_action, needs_aux
from .pingall import PingMatrix, pingall
from .state import NetState, build_topology

LEVEL_LABELS = {
    1: ("DR", "DI", "RI", "DT", "WR"),
    2: ("DR+DI", "DR+RI", "DR+DT", "DR+WR", "RI+WR", "DT+WR", "DI+DT"),
    3: ("DI+WR", "RI+DT", "DI+RI"),
}

MAX_RESAMPLES = 16
_BAD_MASK_COUNT = 5

SETUP_ACTION = "topology"


def _sample_faults(rng, state: NetState, families) -> list:
    """Pick a method and target per family, keeping subnet targets distinct."""
    subnets = list(range(1, state.num_switches + 1))
    rng.shuffle(subnets)
    faults = []
    for family in families:
        method = rng.randint(1, FAMILY_METHODS[family])
        if fault_scope(family, method) == "subnet":
            subnet = subnets.pop()
        else:
            subnet = 1  # unused by global methods
        if needs_aux(family, method):
            aux = rng.choice([s for s in range(1, state.num_switches + 1) if s != subnet])
        elif (family, method) == ("RI", 3):
            aux = rng.randrange(_BAD_MASK_COUNT)
        else:
            aux = 0
        faults.append(build_fault(state, family, method, subnet, aux))
    return faults


def _exec_inverse(state: NetState, inverse) -> NetState | None:
    outcome = exec_command(state, *inverse)
    return outcome.state if outcome.kind == "write" else None


def generate_routing_query(level: int, seed: int) -> tuple:
    """Build one reactive routing query; returns (QuerySpec, GroundTruth)."""
    if level not in LEVEL_LABELS:
        raise EmptyLevelSet(f"no fault combinations defined for level {level}")
    rng = rng_for(seed)
    label = rng.choice(LEVEL_LABELS[level])
    families = label.split("+")
    prefix = f"n{rng.randrange(100)}_"

    heavy = len(families) == 2 and all(f in ("DR", "DT", "WR") for f in families)
    for _ in range(MAX_RESAMPLES):
        num_switches = rng.randint(3, 4) if heavy else rng.randint(2, 4)
        hosts_per_subnet = rng.randint(2, 4)
        healthy = build_topology(num_switches, hosts_per_subnet, prefix=prefix)
        faults = _sample_faults(rng, healthy, families)

        injected = healthy
        for fault in faults:
            injected = apply_fault(injected, fault)
        matrix = pingall(injected)
        if matrix.all_reachable:
            continue  # fault not observable; resample parameters

        # the faults' inverses, in an order where each strictly improves reachability
        recovery = monotone_order(injected, matrix, [f.inverse for f in faults],
                                  _exec_inverse, pingall, NetState.state_digest,
                                  healthy.state_digest())
        if recovery is None:
            continue

        setup = ActionSpec(SETUP_ACTION, (num_switches, hosts_per_subnet, prefix))
        truth = GroundTruth(
            kind=GT_RECOVERY_PREDICATE,
            target_digest=healthy.state_digest(),
            hidden_injection=(setup,) + tuple(fault_to_action(f) for f in faults),
            recovery=tuple(recovery),
        )
        query = QuerySpec(
            id=f"routing-L{level}-{seed:016x}",
            app="routing",
            level=level,
            action_label=label,
            prompt_text=render_routing_prompt(healthy, matrix),
            seed=seed,
        )
        return query, truth

    raise IneffectiveInjection(
        f"no observable, monotonically recoverable injection for {label} after "
        f"{MAX_RESAMPLES} attempts (seed {seed})")


def rebuild_states(truth: GroundTruth) -> tuple:
    """Reconstruct (healthy, injected) states from a stored ground truth."""
    setup = truth.hidden_injection[0]
    if setup.name != SETUP_ACTION:
        raise ValueError("routing ground truth is missing its topology record")
    num_switches, hosts_per_subnet, prefix = setup.operands
    healthy = build_topology(int(num_switches), int(hosts_per_subnet), prefix=str(prefix))
    injected = healthy
    for action in truth.hidden_injection[1:]:
        injected = apply_fault(injected, fault_from_action(healthy, action))
    return healthy, injected


def render_routing_prompt(healthy: NetState, matrix: PingMatrix) -> str:
    subnet_lines = []
    for k in range(1, healthy.num_switches + 1):
        hosts = ", ".join(h.name for h in healthy.hosts_in_subnet(k))
        subnet_lines.append(
            f"  subnet {k}: {healthy.subnet_cidr(k)} with hosts {hosts} behind a switch; "
            f"gateway {healthy.expected_gateway(k)} on interface {healthy.iface_name(k)}")
    return "\n".join([
        "You are a network operator debugging a Linux router.",
        f"Router {healthy.router_name} connects {healthy.num_switches} subnets:",
        *subnet_lines,
        "",
        "One or more faults were injected into the router configuration.",
        "Current connectivity check:",
        matrix.render(),
        "",
        "Diagnose and repair the network. Respond with exactly one JSON object",
        'per turn: {"machine": "<node>", "command": "<shell command>"}.',
        "Available commands: ifconfig, ip addr, ip link, ip route, ip rule,",
        "iptables, sysctl net.ipv4.ip_forward, tc qdisc.",
        "Do not include sudo in commands. vtysh is not installed, and ping",
        "commands are not permitted: an updated connectivity check is shown",
        "after every configuration change.",
        'When connectivity is fully restored, respond {"final_answer": "done"}.',
    ])
