"""Fault families for the routing application.

Each fault is realized as one or two whitelisted shell commands executed
through the same interpreter the agent uses, paired with a *single*
inverse command that restores the pre-fault state digest exactly. Five
families, each with several concrete methods:

    DR  disable routing (forwarding flag, filter drop-all, policy prohibit,
        per-source drop)
    DI  disable an interface (admin down via ifconfig or ip link, tiny MTU)
    RI  remove or corrupt an interface address (flush, foreign address,
        wrong mask, duplicated gateway)
    DT  drop traffic toward a subnet (filter DROP/REJECT, icmp-only drop,
        pathological netem delay)
    WR  wrong route for a subnet (wrong egress device, blackhole next hop,
        metric competition, non-local gateway)
"""

from __future__ import annotations

from ..core.reactive import Injection
from ..core.types import ActionSpec
from ..errors import MethodOutOfRange, UnknownFamily
from .state import NetState

FAMILY_METHODS = {"DR": 4, "DI": 3, "RI": 4, "DT": 4, "WR": 4}

# methods whose effect is router-global rather than tied to one subnet
GLOBAL = {("DR", 1), ("DR", 2), ("DR", 3)}

# methods that need a second, distinct subnet as auxiliary parameter
NEEDS_AUX = {("RI", 4), ("WR", 1), ("WR", 3)}

BAD_MASKS = (8, 16, 30, 31, 32)
_NETEM_DELAY_MS = 20_000  # comfortably above the ping delay ceiling


def fault_action(family: str, method: int, subnet: int, aux: int) -> ActionSpec:
    return ActionSpec(f"{family}-m{method}", (subnet, aux))


def build_fault(state: NetState, action: ActionSpec) -> Injection:
    """The commands of the ``<family>-m<method>`` fault that ``action`` records.

    Its operands are the target subnet, read by subnet-scoped methods, and
    ``aux``: a second distinct subnet, or a mask-choice index for RI m3.
    """
    family, method_text = action.name.split("-m")
    method = int(method_text)
    if method_text != str(method):
        raise ValueError(f"method {method_text!r} is not written as {method}")
    subnet, aux = action.typed_operands(int, int)
    if family not in FAMILY_METHODS:
        raise UnknownFamily(f"unknown fault family {family!r}")
    if not 1 <= method <= FAMILY_METHODS[family]:
        raise MethodOutOfRange(f"{family} has methods 1..{FAMILY_METHODS[family]}, got {method}")

    r = state.router_name
    iface = state.iface_name(subnet)
    cidr = state.subnet_cidr(subnet)
    gw = state.expected_gateway(subnet)

    if family == "DR":
        table = {
            1: ((r, "sysctl -w net.ipv4.ip_forward=0"),
                (r, "sysctl -w net.ipv4.ip_forward=1")),
            2: ((r, "iptables -A FORWARD -j DROP"),
                (r, "iptables -D FORWARD -j DROP")),
            3: ((r, "ip rule add prohibit from all"),
                (r, "ip rule del prohibit from all")),
            4: ((r, f"iptables -A FORWARD -s {cidr} -j DROP"),
                (r, f"iptables -D FORWARD -s {cidr} -j DROP")),
        }
        fwd, inv = table[method]
        return Injection(action, (fwd,), inv)

    if family == "DI":
        table = {
            1: ((r, f"ifconfig {iface} down"), (r, f"ifconfig {iface} up")),
            2: ((r, f"ip link set {iface} down"), (r, f"ip link set {iface} up")),
            3: ((r, f"ip link set {iface} mtu 100"), (r, f"ip link set {iface} mtu 1500")),
        }
        fwd, inv = table[method]
        return Injection(action, (fwd,), inv)

    if family == "RI":
        restore = (r, f"ip addr replace {gw}/24 dev {iface}")
        if method == 1:
            fwd = (r, f"ip addr flush dev {iface}")
        elif method == 2:
            fwd = (r, f"ip addr replace 10.0.0.{subnet}/24 dev {iface}")
        elif method == 3:
            mask = BAD_MASKS[aux % len(BAD_MASKS)]
            fwd = (r, f"ip addr replace {gw}/{mask} dev {iface}")
        else:  # duplicate another subnet's gateway address
            fwd = (r, f"ip addr replace {state.expected_gateway(aux)}/24 dev {iface}")
        return Injection(action, (fwd,), restore)

    if family == "DT":
        table = {
            1: ((r, f"iptables -A FORWARD -d {cidr} -j DROP"),
                (r, f"iptables -D FORWARD -d {cidr} -j DROP")),
            2: ((r, f"iptables -A FORWARD -d {cidr} -j REJECT"),
                (r, f"iptables -D FORWARD -d {cidr} -j REJECT")),
            3: ((r, f"iptables -A FORWARD -p icmp -d {cidr} -j DROP"),
                (r, f"iptables -D FORWARD -p icmp -d {cidr} -j DROP")),
            4: ((r, f"tc qdisc add dev {iface} root netem delay {_NETEM_DELAY_MS}ms"),
                (r, f"tc qdisc del dev {iface} root")),
        }
        fwd, inv = table[method]
        return Injection(action, (fwd,), inv)

    # WR
    restore = (r, f"ip route replace {cidr} dev {iface}")
    if method == 1:
        wrong = state.iface_name(aux)
        forward = ((r, f"ip route replace {cidr} dev {wrong}"),)
    elif method == 2:
        # next hop nobody owns: packets toward the subnet blackhole
        forward = ((r, f"ip route replace {cidr} via {gw[:-1]}250 dev {iface}"),)
    elif method == 3:
        wrong = state.iface_name(aux)
        # the bogus low-metric route wins over the correct high-metric one
        forward = ((r, f"ip route replace {cidr} dev {wrong} metric 50"),
                   (r, f"ip route add {cidr} dev {iface} metric 9999"))
    else:
        forward = ((r, f"ip route replace {cidr} via {gw[:-1]}254 dev {iface}"),)
    return Injection(action, forward, restore)

