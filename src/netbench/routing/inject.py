"""Fault families for the routing application.

Each fault is realized as one or two writes, paired with a *single*
inverse write that restores the pre-fault state digest exactly. A write is
made by one of the interpreter's own state transforms (``routing.commands``)
over typed operands, with no command text parsed, and carries the
whitelisted router command that makes it through the interpreter, which a
batch stores of an inverse. Five families, each with several concrete
methods:

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

from functools import partial

from ..core.reactive import Injection
from ..core.types import ActionSpec
from ..errors import MethodOutOfRange, ParameterOutOfRange, UnknownFamily
from .commands import add_prohibit, add_route, append_rule, delete_delay, delete_prohibit, \
    delete_rule, replace_route, set_delay, set_forwarding, set_interface
from .state import DEFAULT_MTU, FilterRule, NetState, Route

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
    """The writes of the ``<family>-m<method>`` fault that ``action`` records.

    Its operands are the target subnet, read by subnet-scoped methods, and
    ``aux``: a second distinct subnet, or a mask-choice index for RI m3.
    Each write is a ``(apply, machine, command)`` triple: ``apply(state)`` makes
    it by the interpreter's own transform, and ``(machine, command)`` is the
    command that makes it on the router, which a batch stores of an inverse.
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
    subnets = range(1, state.num_switches + 1)
    # a subnet names an interface and a prefix that the topology holds, as generation picks it
    if (family, method) not in GLOBAL and subnet not in subnets:
        raise ParameterOutOfRange(f"{action.name}: subnet {subnet} is not one of "
                                  f"1..{state.num_switches}")
    if (family, method) in NEEDS_AUX and (aux not in subnets or aux == subnet):
        raise ParameterOutOfRange(f"{action.name}: aux {aux} is not one of "
                                  f"1..{state.num_switches} other than {subnet}")

    r = state.router_name
    iface = state.iface_name(subnet)
    cidr = state.subnet_cidr(subnet)
    gw = state.expected_gateway(subnet)

    def write(command: str, transform, **operands) -> tuple:
        return partial(transform, **operands), r, command

    if family == "DR":
        if method == 1:
            fwd = write("sysctl -w net.ipv4.ip_forward=0", set_forwarding, on=False)
            inv = write("sysctl -w net.ipv4.ip_forward=1", set_forwarding, on=True)
        elif method == 3:
            fwd = write("ip rule add prohibit from all", add_prohibit, spec="from all")
            inv = write("ip rule del prohibit from all", delete_prohibit, spec="from all")
        else:  # a FORWARD DROP of all traffic (m2) or of the subnet's (m4)
            match = f"-s {cidr} " if method == 4 else ""
            rule = FilterRule("FORWARD", "DROP", src=cidr if method == 4 else None)
            fwd = write(f"iptables -A FORWARD {match}-j DROP", append_rule, rule=rule)
            inv = write(f"iptables -D FORWARD {match}-j DROP", delete_rule, rule=rule)
        return Injection(action, (fwd,), inv)

    if family == "DI":
        if method == 3:
            fwd = write(f"ip link set {iface} mtu 100", set_interface, iface=iface, mtu=100)
            inv = write(f"ip link set {iface} mtu {DEFAULT_MTU}", set_interface, iface=iface,
                        mtu=DEFAULT_MTU)
        else:  # m1 and m2 make the same write by two commands
            verb = f"ifconfig {iface}" if method == 1 else f"ip link set {iface}"
            fwd = write(f"{verb} down", set_interface, iface=iface, up=False)
            inv = write(f"{verb} up", set_interface, iface=iface, up=True)
        return Injection(action, (fwd,), inv)

    if family == "RI":
        restore = write(f"ip addr replace {gw}/24 dev {iface}", set_interface, iface=iface,
                        ip=gw, mask=24)
        if method == 1:
            fwd = write(f"ip addr flush dev {iface}", set_interface, iface=iface, ip=None,
                        mask=None)
        else:
            if method == 2:
                ip, mask = f"10.0.0.{subnet}", 24
            elif method == 3:
                ip, mask = gw, BAD_MASKS[aux % len(BAD_MASKS)]
            else:  # duplicate another subnet's gateway address
                ip, mask = state.expected_gateway(aux), 24
            fwd = write(f"ip addr replace {ip}/{mask} dev {iface}", set_interface, iface=iface,
                        ip=ip, mask=mask)
        return Injection(action, (fwd,), restore)

    if family == "DT":
        if method == 4:
            fwd = write(f"tc qdisc add dev {iface} root netem delay {_NETEM_DELAY_MS}ms",
                        set_delay, iface=iface, ms=_NETEM_DELAY_MS, exclusive=True)
            inv = write(f"tc qdisc del dev {iface} root", delete_delay, iface=iface)
        else:  # a FORWARD filter of the traffic toward the subnet
            proto, verdict = {1: (None, "DROP"), 2: (None, "REJECT"), 3: ("icmp", "DROP")}[method]
            match = f"-p {proto} -d {cidr}" if proto else f"-d {cidr}"
            rule = FilterRule("FORWARD", verdict, dst=cidr, proto=proto)
            fwd = write(f"iptables -A FORWARD {match} -j {verdict}", append_rule, rule=rule)
            inv = write(f"iptables -D FORWARD {match} -j {verdict}", delete_rule, rule=rule)
        return Injection(action, (fwd,), inv)

    # WR
    restore = write(f"ip route replace {cidr} dev {iface}", replace_route,
                    route=Route(cidr, iface))
    if method in (1, 3):
        wrong = state.iface_name(aux)
        if method == 1:
            forward = (write(f"ip route replace {cidr} dev {wrong}", replace_route,
                             route=Route(cidr, wrong)),)
        else:  # the bogus low-metric route wins over the correct high-metric one
            forward = (write(f"ip route replace {cidr} dev {wrong} metric 50", replace_route,
                             route=Route(cidr, wrong, metric=50)),
                       write(f"ip route add {cidr} dev {iface} metric 9999", add_route,
                             route=Route(cidr, iface, metric=9999)))
    else:
        # a next hop nobody owns (m2), where packets toward the subnet blackhole, or a
        # non-local gateway (m4)
        via = f"{gw[:-1]}{250 if method == 2 else 254}"
        forward = (write(f"ip route replace {cidr} via {via} dev {iface}", replace_route,
                         route=Route(cidr, iface, gateway=via)),)
    return Injection(action, forward, restore)
