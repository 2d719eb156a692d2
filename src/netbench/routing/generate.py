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

from ..core.reactive import INVALID, Outcome, Reject, generate_reactive_query, rebuild
from ..core.types import ActionSpec, GroundTruth
from ..errors import CorruptGroundTruth, NetbenchError
from .inject import BAD_MASKS, FAMILY_METHODS, GLOBAL, NEEDS_AUX, build_fault, fault_action
from .pingall import PingMatrix, pingall
from .state import NetState, build_topology

LEVEL_LABELS = {
    1: ("DR", "DI", "RI", "DT", "WR"),
    2: ("DR+DI", "DR+RI", "DR+DT", "DR+WR", "RI+WR", "DT+WR", "DI+DT"),
    3: ("DI+WR", "RI+DT", "DI+RI"),
}

SETUP_ACTION = "topology"


def _sample_faults(rng, state: NetState, families) -> list:
    """Pick a method and target per family, keeping subnet targets distinct."""
    subnets = list(range(1, state.num_switches + 1))
    rng.shuffle(subnets)
    faults = []
    for family in families:
        method = rng.randint(1, FAMILY_METHODS[family])
        subnet = 1 if (family, method) in GLOBAL else subnets.pop()  # unused by global methods
        if (family, method) in NEEDS_AUX:
            aux = rng.choice([s for s in range(1, state.num_switches + 1) if s != subnet])
        elif (family, method) == ("RI", 3):
            aux = rng.randrange(len(BAD_MASKS))
        else:
            aux = 0
        faults.append(build_fault(state, fault_action(family, method, subnet, aux)))
    return faults


def _attempts(rng, families):
    """Candidates: a fresh topology with faults of ``families`` sampled into it."""
    prefix = f"n{rng.randrange(100)}_"
    heavy = len(families) == 2 and all(f in ("DR", "DT", "WR") for f in families)
    while True:
        num_switches = rng.randint(3, 4) if heavy else rng.randint(2, 4)
        hosts_per_subnet = rng.randint(2, 4)
        healthy = build_topology(num_switches, hosts_per_subnet, prefix=prefix)
        setup = ActionSpec(SETUP_ACTION, (num_switches, hosts_per_subnet, prefix))
        yield healthy, (setup,), _sample_faults(rng, healthy, families)


def _applied(state: NetState, apply, machine: str, command: str) -> Outcome:
    """A built-in ``(apply, machine, command)`` write, made by ``apply`` alone: what
    ``exec_command`` makes of the command, which it need not parse."""
    try:
        return apply(state)
    except Reject as exc:
        return Outcome(state, str(exc), INVALID)


def _command(write: tuple) -> tuple:
    """The (machine, command) pair of a built-in write: how a batch stores a repair."""
    return write[1:]


def generate_routing_query(level: int, seed: int) -> tuple:
    """Build one reactive routing query; returns (QuerySpec, GroundTruth)."""
    return generate_reactive_query("routing", LEVEL_LABELS, level, seed, _attempts,
                                   _applied, _command, pingall, NetState.state_digest,
                                   render_routing_prompt)


def rebuild_states(truth: GroundTruth) -> tuple:
    """Reconstruct (healthy, injected) states from a stored ground truth."""
    setup = truth.hidden_injection[0]
    if setup.name != SETUP_ACTION:
        raise CorruptGroundTruth("routing ground truth is missing its topology record")
    try:
        num_switches, hosts_per_subnet, prefix = setup.typed_operands(int, int, str)
        healthy = build_topology(num_switches, hosts_per_subnet, prefix=prefix)
    except (TypeError, ValueError, NetbenchError) as exc:
        raise CorruptGroundTruth(f"malformed routing topology record {setup.to_json()}: "
                                 f"{exc!r}") from None
    return healthy, rebuild("routing", healthy, truth.hidden_injection[1:],
                            lambda action: build_fault(healthy, action).forward, _applied)


def sabotage(truth: GroundTruth) -> tuple:
    """Down, then up: the interface toward the first host (by name) that
    still reaches the router both ways. ``strict`` always flags the down step;
    ``lenient`` flags it whenever some pair through the router still works,
    which the down step then breaks."""
    _, injected = rebuild_states(truth)
    matrix = pingall(injected)
    router = injected.router_name
    class_of = dict(zip(matrix.nodes, matrix.ids))
    # the router's class row; the verdict is symmetric, so a host it reaches reaches it back
    row = matrix.verdict[class_of[router]]
    working = (host.subnet for host in sorted(injected.hosts.values(), key=lambda h: h.name)
               if row[class_of[host.name]])
    # when every router-adjacent pair is already down, toggling any interface
    # is still a non-improving write, which the strict judge flags just the same
    subnet = next(working, min(h.subnet for h in injected.hosts.values()))
    iface = injected.iface_name(subnet)
    return (router, f"ifconfig {iface} down"), (router, f"ifconfig {iface} up")


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
