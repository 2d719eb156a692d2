"""Closed-whitelist command interpreter for the routing environment.

Every agent-visible interaction goes through :func:`exec_command`. The
grammar covers the standard Linux diagnostic and repair commands for
this topology; anything else (notably ``vtysh`` and ``ping``) yields a
diagnostic string, never an exception. The input state is not mutated;
writes return an updated copy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .state import DEFAULT_MTU, FilterRule, NetState, Route

READ = "read"
WRITE = "write"
INVALID = "invalid"

_CIDR_RE = re.compile(r"^(\d{1,3}\.){3}\d{1,3}/\d{1,2}$")
_IP_RE = re.compile(r"^(\d{1,3}\.){3}\d{1,3}$")


@dataclass
class CommandOutcome:
    state: NetState
    output: str
    kind: str  # read | write | invalid


def _resolve_machine(state: NetState, machine: str) -> str | None:
    """Accept node names with or without the topology prefix."""
    candidates = {state.router_name, *state.hosts}
    if machine in candidates:
        return machine
    prefixed = state.prefix + machine
    if prefixed in candidates:
        return prefixed
    return None


def _resolve_iface(state: NetState, name: str) -> str | None:
    if name in state.interfaces:
        return name
    prefixed = state.prefix + name
    if prefixed in state.interfaces:
        return prefixed
    return None


# --- renderers --------------------------------------------------------------

def _render_iface(iface, style: str) -> str:
    flags = "UP,BROADCAST,RUNNING,MULTICAST" if iface.up else "BROADCAST,MULTICAST"
    if style == "ifconfig":
        lines = [f"{iface.name}: flags=<{flags}>  mtu {iface.mtu}"]
        if iface.ip is not None:
            lines.append(f"        inet {iface.ip}  prefixlen {iface.mask}")
        return "\n".join(lines)
    state_word = "UP" if iface.up else "DOWN"
    lines = [f"{iface.subnet + 1}: {iface.name}: <{flags}> mtu {iface.mtu} state {state_word}"]
    if style == "addr" and iface.ip is not None:
        lines.append(f"    inet {iface.ip}/{iface.mask} scope global {iface.name}")
    return "\n".join(lines)


def _render_routes(state: NetState) -> str:
    lines = []
    for r in state.routes:
        iface = state.interfaces.get(r.dev)
        connected = (r.gateway is None and r.metric == 0 and iface is not None
                     and iface.ip is not None and r.dest == state.subnet_cidr(iface.subnet)
                     and iface.ip == state.expected_gateway(iface.subnet))
        if connected:
            lines.append(f"{r.dest} dev {r.dev} proto kernel scope link src {iface.ip}")
        else:
            line = f"{r.dest}"
            if r.gateway is not None:
                line += f" via {r.gateway}"
            line += f" dev {r.dev}"
            if r.metric:
                line += f" metric {r.metric}"
            lines.append(line)
    return "\n".join(lines) if lines else "(no routes)"


def _render_filters(state: NetState, chain: str = "FORWARD") -> str:
    lines = [f"Chain {chain} (policy ACCEPT)",
             "target     prot opt source               destination"]
    for rule in state.filter_rules:
        if rule.chain != chain:
            continue
        proto = rule.proto or "all"
        src = rule.src or "anywhere"
        dst = rule.dst or "anywhere"
        lines.append(f"{rule.verdict:<10} {proto:<4} --  {src:<20} {dst}")
    return "\n".join(lines)


def _render_rules(state: NetState) -> str:
    lines = ["0:\tfrom all lookup local",
             "32766:\tfrom all lookup main"]
    for spec in state.prohibit_rules:
        lines.append(f"100:\t{spec} prohibit")
    return "\n".join(lines)


def _render_qdiscs(state: NetState) -> str:
    if not state.delays:
        return "(no qdiscs configured)"
    return "\n".join(f"qdisc netem on {name} root delay {ms}ms"
                     for name, ms in sorted(state.delays.items()))


def _render_host(state: NetState, host) -> str:
    return (f"{host.name}-eth0: inet {host.ip}/{host.mask}\n"
            f"default via {host.gateway} dev {host.name}-eth0")


# --- interpreter ------------------------------------------------------------

def exec_command(state: NetState, machine: str, command: str) -> CommandOutcome:
    """Run one command on one machine; never raises on agent input."""
    node = _resolve_machine(state, machine)
    if node is None:
        return CommandOutcome(state, f"unknown machine: {machine}", INVALID)

    text = command.strip()
    if not text:
        return CommandOutcome(state, "empty command", INVALID)
    tokens = text.split()

    if tokens[0] == "vtysh":
        return CommandOutcome(state, "vtysh: command not permitted in this environment", INVALID)
    if tokens[0].startswith("ping"):
        return CommandOutcome(
            state, "ping commands are not permitted; connectivity results are provided to you",
            INVALID)
    if tokens[0] == "sudo":
        return CommandOutcome(state, "do not include sudo in commands", INVALID)

    if node != state.router_name:
        return _exec_on_host(state, node, tokens)

    try:
        return _exec_on_router(state, tokens, text)
    except _Reject as exc:
        return CommandOutcome(state, str(exc), INVALID)


class _Reject(Exception):
    pass


def _need_iface(state: NetState, token: str) -> str:
    name = _resolve_iface(state, token)
    if name is None:
        raise _Reject(f"Cannot find device \"{token}\"")
    return name


def _is_ip(token: str) -> bool:
    return bool(_IP_RE.match(token)) and all(int(octet) <= 255 for octet in token.split("."))


def _need_cidr(token: str) -> str:
    if not (_CIDR_RE.match(token) and _is_ip(token.split("/")[0])
            and int(token.split("/")[1]) <= 32):
        raise _Reject(f"invalid address/prefix: {token!r}")
    return token


def _need_host_or_cidr(token: str) -> str:
    """An iptables address: a prefix, or a single host taken as its /32."""
    if "/" in token:
        return _need_cidr(token)
    if not _is_ip(token):
        raise _Reject(f"invalid address: {token!r}")
    return token + "/32"


def _exec_on_host(state: NetState, node: str, tokens) -> CommandOutcome:
    host = state.hosts[node]
    if tokens[0] == "ifconfig" and len(tokens) == 1:
        return CommandOutcome(state, _render_host(state, host), READ)
    if tokens[:2] in (["ip", "addr"], ["ip", "route"]):
        return CommandOutcome(state, _render_host(state, host), READ)
    return CommandOutcome(
        state, "host configuration is fixed in this benchmark; run commands on the router",
        INVALID)


def _exec_on_router(state: NetState, tokens, text: str) -> CommandOutcome:
    cmd = tokens[0]

    if cmd == "ifconfig":
        return _ifconfig(state, tokens)
    if cmd == "ip":
        return _ip(state, tokens)
    if cmd == "iptables":
        return _iptables(state, tokens)
    if cmd == "sysctl":
        return _sysctl(state, tokens)
    if cmd == "tc":
        return _tc(state, tokens)
    return CommandOutcome(state, f"unsupported command: {cmd}", INVALID)


def _ifconfig(state: NetState, tokens) -> CommandOutcome:
    if len(tokens) == 1:
        out = "\n".join(_render_iface(i, "ifconfig") for _, i in sorted(state.interfaces.items()))
        return CommandOutcome(state, out, READ)
    iface = _need_iface(state, tokens[1])
    if len(tokens) == 2:
        return CommandOutcome(state, _render_iface(state.interfaces[iface], "ifconfig"), READ)
    if len(tokens) == 3 and tokens[2] in ("up", "down"):
        new = state.copy()
        new.interfaces[iface].up = tokens[2] == "up"
        return CommandOutcome(new, "", WRITE)
    raise _Reject(f"ifconfig: unsupported arguments: {' '.join(tokens[2:])}")


def _ip(state: NetState, tokens) -> CommandOutcome:
    if len(tokens) < 2:
        raise _Reject("ip: missing object (addr|link|route|rule)")
    obj = tokens[1]
    rest = tokens[2:]

    if obj in ("addr", "address", "a"):
        return _ip_addr(state, rest)
    if obj in ("link", "l"):
        return _ip_link(state, rest)
    if obj in ("route", "r"):
        return _ip_route(state, rest)
    if obj == "rule":
        return _ip_rule(state, rest)
    raise _Reject(f"ip: unknown object {obj!r}")


def _ip_addr(state: NetState, rest) -> CommandOutcome:
    if not rest or rest[0] == "show":
        args = rest[1:] if rest else []
        if args and args[0] == "dev":
            args = args[1:]
        if args:
            iface = _need_iface(state, args[0])
            return CommandOutcome(state, _render_iface(state.interfaces[iface], "addr"), READ)
        out = "\n".join(_render_iface(i, "addr") for _, i in sorted(state.interfaces.items()))
        return CommandOutcome(state, out, READ)

    verb = rest[0]
    if verb == "flush":
        if len(rest) != 3 or rest[1] != "dev":
            raise _Reject("usage: ip addr flush dev <iface>")
        iface = _need_iface(state, rest[2])
        new = state.copy()
        new.interfaces[iface].ip = None
        new.interfaces[iface].mask = None
        return CommandOutcome(new, "", WRITE)

    if verb in ("add", "del", "replace"):
        if len(rest) != 4 or rest[2] != "dev":
            raise _Reject(f"usage: ip addr {verb} <addr>/<mask> dev <iface>")
        cidr = _need_cidr(rest[1])
        iface = _need_iface(state, rest[3])
        ip, mask = cidr.split("/")
        new = state.copy()
        target = new.interfaces[iface]
        if verb == "add":
            if target.ip is not None:
                return CommandOutcome(state, "RTNETLINK answers: File exists", INVALID)
            target.ip, target.mask = ip, int(mask)
        elif verb == "del":
            if target.ip != ip or target.mask != int(mask):
                return CommandOutcome(state, "RTNETLINK answers: Cannot assign requested address",
                                      INVALID)
            target.ip, target.mask = None, None
        else:  # replace
            target.ip, target.mask = ip, int(mask)
        return CommandOutcome(new, "", WRITE)

    raise _Reject(f"ip addr: unknown verb {verb!r}")


def _ip_link(state: NetState, rest) -> CommandOutcome:
    if not rest or rest[0] == "show":
        out = "\n".join(_render_iface(i, "link") for _, i in sorted(state.interfaces.items()))
        return CommandOutcome(state, out, READ)
    if rest[0] != "set":
        raise _Reject(f"ip link: unknown verb {rest[0]!r}")
    args = rest[1:]
    if args and args[0] == "dev":
        args = args[1:]
    if len(args) < 2:
        raise _Reject("usage: ip link set <iface> up|down|mtu <bytes>")
    iface = _need_iface(state, args[0])
    new = state.copy()
    if args[1] in ("up", "down") and len(args) == 2:
        new.interfaces[iface].up = args[1] == "up"
        return CommandOutcome(new, "", WRITE)
    if args[1] == "mtu" and len(args) == 3:
        try:
            mtu = int(args[2])
        except ValueError:
            raise _Reject(f"invalid mtu: {args[2]!r}") from None
        if mtu < 68:
            raise _Reject("Error: mtu less than device minimum")
        new.interfaces[iface].mtu = mtu
        return CommandOutcome(new, "", WRITE)
    raise _Reject(f"ip link set: unsupported arguments: {' '.join(args[1:])}")


def _parse_route_args(state: NetState, rest) -> Route:
    dest = _need_cidr(rest[0])
    gateway = None
    dev = None
    metric = 0
    i = 1
    while i < len(rest):
        if rest[i] == "via" and i + 1 < len(rest):
            if not _is_ip(rest[i + 1]):
                raise _Reject(f"invalid gateway: {rest[i + 1]!r}")
            gateway = rest[i + 1]
            i += 2
        elif rest[i] == "dev" and i + 1 < len(rest):
            dev = _need_iface(state, rest[i + 1])
            i += 2
        elif rest[i] == "metric" and i + 1 < len(rest):
            try:
                metric = int(rest[i + 1])
            except ValueError:
                raise _Reject(f"invalid metric: {rest[i + 1]!r}") from None
            i += 2
        else:
            raise _Reject(f"ip route: unsupported argument {rest[i]!r}")
    if dev is None:
        raise _Reject("ip route: a dev is required in this environment")
    return Route(dest=dest, dev=dev, gateway=gateway, metric=metric)


def _ip_route(state: NetState, rest) -> CommandOutcome:
    if not rest or rest[0] in ("show", "list"):
        return CommandOutcome(state, _render_routes(state), READ)
    verb = rest[0]
    if verb not in ("add", "del", "delete", "replace"):
        raise _Reject(f"ip route: unknown verb {verb!r}")
    if len(rest) < 2:
        raise _Reject(f"usage: ip route {verb} <dest>/<mask> ...")

    if verb in ("del", "delete"):
        dest = _need_cidr(rest[1])
        matching = [r for r in state.routes if r.dest == dest]
        # optional selectors narrow the match
        i = 2
        while i < len(rest):
            if rest[i] == "dev" and i + 1 < len(rest):
                dev = _resolve_iface(state, rest[i + 1]) or rest[i + 1]
                matching = [r for r in matching if r.dev == dev]
                i += 2
            elif rest[i] == "via" and i + 1 < len(rest):
                matching = [r for r in matching if r.gateway == rest[i + 1]]
                i += 2
            elif rest[i] == "metric" and i + 1 < len(rest):
                matching = [r for r in matching if str(r.metric) == rest[i + 1]]
                i += 2
            else:
                raise _Reject(f"ip route del: unsupported argument {rest[i]!r}")
        if not matching:
            return CommandOutcome(state, "RTNETLINK answers: No such process", INVALID)
        new = state.copy()
        victim = matching[0].to_json()
        for idx, r in enumerate(new.routes):
            if r.to_json() == victim:
                del new.routes[idx]
                break
        return CommandOutcome(new, "", WRITE)

    route = _parse_route_args(state, rest[1:])
    new = state.copy()
    if verb == "replace":
        new.routes = [r for r in new.routes if r.dest != route.dest]
        new.routes.append(route)
        return CommandOutcome(new, "", WRITE)
    # add
    if any(r.to_json() == route.to_json() for r in new.routes):
        return CommandOutcome(state, "RTNETLINK answers: File exists", INVALID)
    new.routes.append(route)
    return CommandOutcome(new, "", WRITE)


def _ip_rule(state: NetState, rest) -> CommandOutcome:
    if not rest or rest[0] in ("show", "list"):
        return CommandOutcome(state, _render_rules(state), READ)
    verb = rest[0]
    if verb not in ("add", "del"):
        raise _Reject(f"ip rule: unknown verb {verb!r}")
    spec_tokens = [t for t in rest[1:] if t != "prohibit"]
    if "prohibit" not in rest[1:]:
        raise _Reject("ip rule: only prohibit rules are supported")
    spec = " ".join(spec_tokens) if spec_tokens else "from all"
    new = state.copy()
    if verb == "add":
        if spec in new.prohibit_rules:
            return CommandOutcome(state, "RTNETLINK answers: File exists", INVALID)
        new.prohibit_rules.append(spec)
        return CommandOutcome(new, "", WRITE)
    if spec not in new.prohibit_rules:
        return CommandOutcome(state, "RTNETLINK answers: No such file or directory", INVALID)
    new.prohibit_rules.remove(spec)
    return CommandOutcome(new, "", WRITE)


def _iptables(state: NetState, tokens) -> CommandOutcome:
    rest = tokens[1:]
    if not rest:
        raise _Reject("iptables: no action given")

    if rest[0] == "-L":
        chain = rest[1] if len(rest) > 1 else "FORWARD"
        return CommandOutcome(state, _render_filters(state, chain), READ)

    if rest[0] == "-F":
        chain = rest[1] if len(rest) > 1 else None
        new = state.copy()
        new.filter_rules = [r for r in new.filter_rules
                            if chain is not None and r.chain != chain]
        return CommandOutcome(new, "", WRITE)

    if rest[0] in ("-A", "-D"):
        if len(rest) < 2:
            raise _Reject("iptables: missing chain")
        chain = rest[1]
        src = dst = proto = verdict = None
        i = 2
        while i < len(rest):
            flag = rest[i]
            if flag == "-s" and i + 1 < len(rest):
                src = _need_host_or_cidr(rest[i + 1])
                i += 2
            elif flag == "-d" and i + 1 < len(rest):
                dst = _need_host_or_cidr(rest[i + 1])
                i += 2
            elif flag == "-p" and i + 1 < len(rest):
                proto = rest[i + 1]
                i += 2
            elif flag == "-j" and i + 1 < len(rest):
                verdict = rest[i + 1]
                i += 2
            else:
                raise _Reject(f"iptables: unsupported flag {flag!r}")
        if verdict not in ("DROP", "REJECT"):
            raise _Reject("iptables: -j DROP or -j REJECT required")
        rule = FilterRule(chain=chain, verdict=verdict, src=src, dst=dst, proto=proto)
        new = state.copy()
        if rest[0] == "-A":
            new.filter_rules.append(rule)
            return CommandOutcome(new, "", WRITE)
        for idx, r in enumerate(new.filter_rules):
            if r.to_json() == rule.to_json():
                del new.filter_rules[idx]
                return CommandOutcome(new, "", WRITE)
        return CommandOutcome(state, "iptables: Bad rule (does a matching rule exist?)", INVALID)

    raise _Reject(f"iptables: unsupported action {rest[0]!r}")


def _sysctl(state: NetState, tokens) -> CommandOutcome:
    rest = tokens[1:]
    if rest == ["net.ipv4.ip_forward"]:
        return CommandOutcome(state, f"net.ipv4.ip_forward = {int(state.ip_forward)}", READ)
    if len(rest) == 2 and rest[0] == "-w" and rest[1].startswith("net.ipv4.ip_forward="):
        value = rest[1].split("=", 1)[1]
        if value not in ("0", "1"):
            raise _Reject(f"sysctl: invalid value {value!r}")
        new = state.copy()
        new.ip_forward = value == "1"
        return CommandOutcome(new, f"net.ipv4.ip_forward = {value}", WRITE)
    raise _Reject("sysctl: only net.ipv4.ip_forward is supported")


def _tc(state: NetState, tokens) -> CommandOutcome:
    rest = tokens[1:]
    if not rest or rest[0] != "qdisc":
        raise _Reject("tc: only qdisc operations are supported")
    rest = rest[1:]
    if not rest or rest[0] == "show":
        return CommandOutcome(state, _render_qdiscs(state), READ)
    if rest[0] == "add":
        m = rest[1:]
        # tc qdisc add dev <iface> root netem delay <N>ms
        if (len(m) == 6 and m[0] == "dev" and m[2] == "root" and m[3] == "netem"
                and m[4] == "delay" and m[5].endswith("ms")):
            iface = _need_iface(state, m[1])
            try:
                ms = int(m[5][:-2])
            except ValueError:
                raise _Reject(f"invalid delay: {m[5]!r}") from None
            if ms < 0:
                raise _Reject(f"invalid delay: {m[5]!r}")
            new = state.copy()
            new.delays[iface] = ms
            return CommandOutcome(new, "", WRITE)
        raise _Reject("usage: tc qdisc add dev <iface> root netem delay <N>ms")
    if rest[0] == "del":
        m = rest[1:]
        if len(m) == 3 and m[0] == "dev" and m[2] == "root":
            iface = _need_iface(state, m[1])
            if iface not in state.delays:
                return CommandOutcome(state, "Error: Invalid handle.", INVALID)
            new = state.copy()
            del new.delays[iface]
            return CommandOutcome(new, "", WRITE)
        raise _Reject("usage: tc qdisc del dev <iface> root")
    raise _Reject(f"tc qdisc: unsupported verb {rest[0]!r}")
