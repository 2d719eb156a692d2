"""Closed-whitelist command interpreter for the routing environment.

Every agent-visible interaction goes through :func:`exec_command`. The
grammar covers the standard Linux diagnostic and repair commands for
this topology; anything else (notably ``vtysh`` and ``ping``) yields a
diagnostic string, never an exception. States are values: a write
returns a new state, made once the command is known to be valid, by one
named state transform over the parsed operands, which the built-in faults
of ``routing.inject`` call directly.
"""

from __future__ import annotations

import re

from ..core.reactive import INVALID, READ, WRITE, Outcome, Reject
from .state import FilterRule, NetState, Route, changed, ip_to_int, parse_cidr

# re.ASCII: a kernel reads ASCII digits only, and \d would also match "١"
_CIDR_RE = re.compile(r"^(\d{1,3}\.){3}\d{1,3}/\d{1,2}$", re.ASCII)
_IP_RE = re.compile(r"^(\d{1,3}\.){3}\d{1,3}$", re.ASCII)
_U32_RE = re.compile(r"0*(\d{1,10})", re.ASCII)  # leading zeros, then the value's digits
# iptables' built-in protocols by number; 0, "all", matches every protocol
_PROTOCOLS = {0: "all", 1: "icmp", 6: "tcp", 17: "udp", 50: "esp", 51: "ah", 58: "icmpv6",
              132: "sctp", 135: "mh", 136: "udplite"}
_PROTOCOL_NUMBERS = {name: number for number, name in _PROTOCOLS.items()}
_CHAINS = ("INPUT", "FORWARD", "OUTPUT")  # the filter table's built-in chains
# options of iptables -L that change only how rules are listed; short ones may be bundled
_LISTING_OPTION_RE = re.compile(r"-[nvx]+|--(numeric|verbose|exact|line-numbers)")
_LIST_ACTION_RE = re.compile(r"-[nvx]*L")  # -L, with short listing options bundled before it
_REJECT_WITH = "icmp-port-unreachable"  # the reply of a REJECT rule, the only one modelled


def _resolve(state: NetState, names, token: str) -> str | None:
    """``token`` as one of ``names``, given with or without the topology prefix."""
    if token in names:
        return token
    prefixed = state.prefix + token
    return prefixed if prefixed in names else None


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


def _render_ifaces(state: NetState, style: str) -> str:
    return "\n".join(_render_iface(i, style) for _, i in sorted(state.interfaces.items()))


def _connected_words(state: NetState, r: Route) -> dict[str, str]:
    """The words a listing shows for a connected route (its subnet, through the interface
    holding the subnet's gateway address): ``proto kernel scope link src <ip>``; none for
    any other route."""
    iface = state.interfaces.get(r.dev)
    connected = (r.gateway is None and r.metric == 0 and iface is not None
                 and iface.ip is not None and r.dest == state.subnet_cidr(iface.subnet)
                 and iface.ip == state.expected_gateway(iface.subnet))
    return {"proto": "kernel", "scope": "link", "src": iface.ip} if connected else {}


def _render_routes(state: NetState) -> str:
    lines = []
    for r in state.routes:
        words = _connected_words(state, r)
        if words:
            lines.append(f"{r.dest} dev {r.dev} proto kernel scope link src {words['src']}")
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


def _rule_spec(rule: FilterRule) -> str:
    """The ``-A`` line that re-creates ``rule``, as ``iptables -S`` prints it."""
    words = ["-A", rule.chain]
    for flag, value in (("-s", rule.src), ("-d", rule.dst), ("-p", rule.proto)):
        if value is not None:
            words += [flag, value]
    words += ["-j", rule.verdict]
    if rule.verdict == "REJECT":
        words += ["--reject-with", _REJECT_WITH]
    return " ".join(words)


def _render_specs(state: NetState, chains) -> str:
    """``iptables -S``: the chains' policies, then their rules, chain by chain."""
    return "\n".join([*(f"-P {chain} ACCEPT" for chain in chains),
                      *(_rule_spec(r) for chain in chains
                        for r in state.filter_rules if r.chain == chain)])


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


# --- writes -----------------------------------------------------------------
# Each transform takes its operands in the form the parser gives them: interface names
# resolved, prefixes in canonical text, ``Route`` and ``FilterRule`` values. It raises
# ``Reject`` where Linux refuses the write in the state it is given.

def _without(items: tuple, item) -> tuple:
    """``items`` without its first element equal to ``item``, as ``list.remove`` drops it."""
    i = items.index(item)
    return items[:i] + items[i + 1:]


def set_interface(state: NetState, iface: str, **fields) -> Outcome:
    """Set ``fields`` of interface ``iface``."""
    interfaces = {**state.interfaces, iface: changed(state.interfaces[iface], fields)}
    return Outcome(state.copy(interfaces=interfaces), "", WRITE)


def add_address(state: NetState, iface: str, ip: str, mask: int) -> Outcome:
    if state.interfaces[iface].ip is not None:
        raise Reject("RTNETLINK answers: File exists")
    return set_interface(state, iface, ip=ip, mask=mask)


def delete_address(state: NetState, iface: str, ip: str, mask: int) -> Outcome:
    current = state.interfaces[iface]
    if current.ip != ip or current.mask != mask:
        raise Reject("RTNETLINK answers: Cannot assign requested address")
    return set_interface(state, iface, ip=None, mask=None)


def add_route(state: NetState, route: Route) -> Outcome:
    """One route per destination and metric, so no two routes tie in a lookup."""
    if any(r.dest == route.dest and r.metric == route.metric for r in state.routes):
        raise Reject("RTNETLINK answers: File exists")
    return Outcome(state.copy(routes=(*state.routes, route)), "", WRITE)


def replace_route(state: NetState, route: Route) -> Outcome:
    routes = tuple(r for r in state.routes if r.dest != route.dest)
    return Outcome(state.copy(routes=(*routes, route)), "", WRITE)


def delete_route(state: NetState, route: Route) -> Outcome:
    """Remove ``route``, one the table holds."""
    return Outcome(state.copy(routes=_without(state.routes, route)), "", WRITE)


def append_rule(state: NetState, rule: FilterRule) -> Outcome:
    return Outcome(state.copy(filter_rules=(*state.filter_rules, rule)), "", WRITE)


def delete_rule(state: NetState, rule: FilterRule) -> Outcome:
    if rule not in state.filter_rules:
        raise Reject("iptables: Bad rule (does a matching rule exist?)")
    return Outcome(state.copy(filter_rules=_without(state.filter_rules, rule)), "", WRITE)


def flush_rules(state: NetState, chain: str | None) -> Outcome:
    """Remove the rules of ``chain``, or of every chain for None."""
    rules = tuple(r for r in state.filter_rules if chain is not None and r.chain != chain)
    return Outcome(state.copy(filter_rules=rules), "", WRITE)


def add_prohibit(state: NetState, spec: str) -> Outcome:
    if spec in state.prohibit_rules:
        raise Reject("RTNETLINK answers: File exists")
    return Outcome(state.copy(prohibit_rules=(*state.prohibit_rules, spec)), "", WRITE)


def delete_prohibit(state: NetState, spec: str) -> Outcome:
    if spec not in state.prohibit_rules:
        raise Reject("RTNETLINK answers: No such file or directory")
    return Outcome(state.copy(prohibit_rules=_without(state.prohibit_rules, spec)), "", WRITE)


def set_forwarding(state: NetState, on: bool) -> Outcome:
    return Outcome(state.copy(ip_forward=on), f"net.ipv4.ip_forward = {int(on)}", WRITE)


def set_delay(state: NetState, iface: str, ms: int, create: bool = True,
              exclusive: bool = False) -> Outcome:
    """Give ``iface`` a netem delay of ``ms``. ``create`` and ``exclusive`` are the netlink
    flags NLM_F_CREATE and NLM_F_EXCL: ``tc qdisc replace`` sets the first, ``add`` both and
    ``change`` neither."""
    if exclusive and iface in state.delays:
        raise Reject("Error: Exclusivity flag on, cannot modify.")
    if not create and iface not in state.delays:
        raise Reject("Error: Qdisc not found. To create specify NLM_F_CREATE flag.")
    return Outcome(state.copy(delays={**state.delays, iface: ms}), "", WRITE)


def delete_delay(state: NetState, iface: str) -> Outcome:
    if iface not in state.delays:
        raise Reject("Error: Invalid handle.")
    delays = {name: ms for name, ms in state.delays.items() if name != iface}
    return Outcome(state.copy(delays=delays), "", WRITE)


# --- interpreter ------------------------------------------------------------

def exec_command(state: NetState, machine: str, command: str) -> Outcome:
    """Run one command on one machine; never raises on agent input."""
    try:
        node = _resolve(state, {state.router_name, *state.hosts}, machine)
        if node is None:
            raise Reject(f"unknown machine: {machine}")
        tokens = command.split()
        if not tokens:
            raise Reject("empty command")
        if tokens[0] == "vtysh":
            raise Reject("vtysh: command not permitted in this environment")
        if tokens[0].startswith("ping"):
            raise Reject(
                "ping commands are not permitted; connectivity results are provided to you")
        if tokens[0] == "sudo":
            raise Reject("do not include sudo in commands")
        if node != state.router_name:
            return _exec_on_host(state, node, tokens)
        handler = _ROUTER_COMMANDS.get(tokens[0])
        if handler is None:
            raise Reject(f"unsupported command: {tokens[0]}")
        return handler(state, tokens)
    except Reject as exc:
        return Outcome(state, str(exc), INVALID)


def _flag_pairs(args, flags, message: str):
    """Each ``(flag, value)`` of ``args`` in order; rejects, with ``message`` and the
    token, a token that is not one of ``flags`` or has no value after it."""
    for i in range(0, len(args), 2):
        if args[i] not in flags or i + 1 == len(args):
            raise Reject(f"{message} {args[i]!r}")
        yield args[i], args[i + 1]


def _need_iface(state: NetState, token: str) -> str:
    name = _resolve(state, state.interfaces, token)
    if name is None:
        raise Reject(f"Cannot find device \"{token}\"")
    return name


def _u32(token: str) -> int | None:
    """``token`` as a kernel's unsigned integer (ASCII digits, at most 2**32 - 1), or None;
    ``int()`` would also take "١", "1_500" and signs, and refuses over 4,300 digits."""
    m = _U32_RE.fullmatch(token)
    return int(m[1]) if m and int(m[1]) <= 0xFFFFFFFF else None


def _need_int(token: str, what: str) -> int:
    value = _u32(token)
    if value is None:
        raise Reject(f"invalid {what}: {token!r}")
    return value


def _is_ip(token: str) -> bool:
    return bool(_IP_RE.match(token)) and all(int(octet) <= 255 for octet in token.split("."))


def _need_cidr(token: str) -> str:
    if not (_CIDR_RE.match(token) and _is_ip(token.split("/")[0])
            and int(token.split("/")[1]) <= 32):
        raise Reject(f"invalid address/prefix: {token!r}")
    return token


def _network(token: str) -> tuple[str, bool]:
    """The network of prefix ``token`` in canonical text, with host bits cleared
    (``192.168.02.5/24`` is ``192.168.2.0/24``), and whether ``token`` set host bits."""
    ip, plen = _need_cidr(token).split("/")
    net = parse_cidr(token)[0]
    text = ".".join(str(net >> shift & 255) for shift in (24, 16, 8, 0)) + f"/{int(plen)}"
    return text, net != ip_to_int(ip)


def _need_prefix(token: str) -> str:
    """A route destination: a prefix with no host bits set, in canonical text, so
    that equal prefixes compare equal."""
    text, host_bits = _network(token)
    if host_bits:
        raise Reject("Error: Invalid prefix for given prefix length.")
    return text


def _need_host_or_cidr(token: str) -> str | None:
    """An iptables address as Linux stores it: the network of a prefix, in canonical
    text, a single host taken as its /32, or None (no match) for a /0 prefix."""
    if "/" not in token:
        if not _is_ip(token):
            raise Reject(f"invalid address: {token!r}")
        token += "/32"
    text = _network(token)[0]
    return None if text.endswith("/0") else text


def _need_proto(token: str) -> str | None:
    """An iptables protocol as Linux reads it: a name in any case or a number up to 255,
    stored as its name where it has one, or None (no match) for ``all``."""
    number = _u32(token)
    if number is None:
        number = _PROTOCOL_NUMBERS.get(token.lower())
    if number is None or number > 255:
        raise Reject(f"iptables: unknown protocol {token!r} specified")
    return _PROTOCOLS.get(number, str(number)) if number else None


def _exec_on_host(state: NetState, node: str, tokens) -> Outcome:
    if tokens == ["ifconfig"] or tokens[:2] in (["ip", "addr"], ["ip", "route"]):
        return Outcome(state, _render_host(state, state.hosts[node]), READ)
    raise Reject("host configuration is fixed in this benchmark; run commands on the router")


def _ifconfig(state: NetState, tokens) -> Outcome:
    if len(tokens) == 1:
        return Outcome(state, _render_ifaces(state, "ifconfig"), READ)
    iface = _need_iface(state, tokens[1])
    if len(tokens) == 2:
        return Outcome(state, _render_iface(state.interfaces[iface], "ifconfig"), READ)
    if len(tokens) == 3 and tokens[2] in ("up", "down"):
        return set_interface(state, iface, up=tokens[2] == "up")
    raise Reject(f"ifconfig: unsupported arguments: {' '.join(tokens[2:])}")


def _ip(state: NetState, tokens) -> Outcome:
    if len(tokens) < 2:
        raise Reject("ip: missing object (addr|link|route|rule)")
    handler = _IP_OBJECTS.get(tokens[1])
    if handler is None:
        raise Reject(f"ip: unknown object {tokens[1]!r}")
    return handler(state, tokens[2:])


def _ip_addr(state: NetState, rest) -> Outcome:
    if not rest or rest[0] == "show":
        args = rest[1:]
        if args and args[0] == "dev":
            args = args[1:]
        if args:
            iface = _need_iface(state, args[0])
            return Outcome(state, _render_iface(state.interfaces[iface], "addr"), READ)
        return Outcome(state, _render_ifaces(state, "addr"), READ)

    verb = rest[0]
    if verb == "flush":
        if len(rest) != 3 or rest[1] != "dev":
            raise Reject("usage: ip addr flush dev <iface>")
        return set_interface(state, _need_iface(state, rest[2]), ip=None, mask=None)
    if verb not in ("add", "del", "replace"):
        raise Reject(f"ip addr: unknown verb {verb!r}")
    if len(rest) != 4 or rest[2] != "dev":
        raise Reject(f"usage: ip addr {verb} <addr>/<mask> dev <iface>")
    ip, mask = _need_cidr(rest[1]).split("/")
    iface = _need_iface(state, rest[3])
    if verb == "add":
        return add_address(state, iface, ip, int(mask))
    if verb == "del":
        return delete_address(state, iface, ip, int(mask))
    return set_interface(state, iface, ip=ip, mask=int(mask))


def _ip_link(state: NetState, rest) -> Outcome:
    if not rest or rest[0] == "show":
        return Outcome(state, _render_ifaces(state, "link"), READ)
    if rest[0] != "set":
        raise Reject(f"ip link: unknown verb {rest[0]!r}")
    args = rest[1:]
    if args and args[0] == "dev":
        args = args[1:]
    if len(args) < 2:
        raise Reject("usage: ip link set <iface> up|down|mtu <bytes>")
    iface = _need_iface(state, args[0])
    if args[1] in ("up", "down") and len(args) == 2:
        return set_interface(state, iface, up=args[1] == "up")
    if args[1] == "mtu" and len(args) == 3:
        mtu = _need_int(args[2], "mtu")
        if mtu < 68:
            raise Reject("Error: mtu less than device minimum")
        return set_interface(state, iface, mtu=mtu)
    raise Reject(f"ip link set: unsupported arguments: {' '.join(args[1:])}")


def _parse_route_args(state: NetState, rest) -> Route:
    """The route of ``<dest> [via <ip>] [dev <iface>] [metric <n>]``; the last of a
    repeated flag wins. ``proto``, ``scope`` and ``src`` are taken only with the values
    that the route's listed line shows, so each line ``ip route`` lists adds back."""
    dest = _need_prefix(rest[0])
    gateway, dev, metric, shown = None, None, 0, {}
    for flag, value in _flag_pairs(rest[1:], ("via", "dev", "metric", "proto", "scope", "src"),
                                   "ip route: unsupported argument"):
        if flag == "via":
            if not _is_ip(value):
                raise Reject(f"invalid gateway: {value!r}")
            gateway = value
        elif flag == "dev":
            dev = _need_iface(state, value)
        elif flag == "metric":
            metric = _need_int(value, "metric")
        else:
            shown[flag] = value
    if dev is None:
        raise Reject("ip route: a dev is required in this environment")
    route = Route(dest=dest, dev=dev, gateway=gateway, metric=metric)
    words = _connected_words(state, route)
    for flag, value in shown.items():
        if words.get(flag) != value:
            raise Reject(f"ip route: unsupported {flag} {value!r} for this route")
    return route


def _ip_route(state: NetState, rest) -> Outcome:
    if not rest or rest[0] in ("show", "list"):
        return Outcome(state, _render_routes(state), READ)
    verb = rest[0]
    if verb not in ("add", "del", "delete", "replace"):
        raise Reject(f"ip route: unknown verb {verb!r}")
    if len(rest) < 2:
        raise Reject(f"usage: ip route {verb} <dest>/<mask> ...")

    if verb in ("del", "delete"):
        dest = _need_prefix(rest[1])
        matching = [r for r in state.routes if r.dest == dest]
        # every selector narrows the match; an unknown dev just matches nothing
        for flag, value in _flag_pairs(rest[2:], ("dev", "via", "metric", "proto", "scope",
                                                  "src"), "ip route del: unsupported argument"):
            if flag == "dev":
                dev = _resolve(state, state.interfaces, value) or value
                matching = [r for r in matching if r.dev == dev]
            elif flag == "via":
                matching = [r for r in matching if r.gateway == value]
            elif flag == "metric":
                matching = [r for r in matching if str(r.metric) == value]
            else:  # matched against the words that the route's listed line shows
                matching = [r for r in matching if _connected_words(state, r).get(flag) == value]
        if not matching:
            raise Reject("RTNETLINK answers: No such process")
        # as in Linux, whose table keeps a prefix's routes in ascending metric order
        return delete_route(state, min(matching, key=lambda r: r.metric))

    route = _parse_route_args(state, rest[1:])
    return (add_route if verb == "add" else replace_route)(state, route)


def _ip_rule(state: NetState, rest) -> Outcome:
    if not rest or rest[0] in ("show", "list"):
        return Outcome(state, _render_rules(state), READ)
    verb = rest[0]
    if verb not in ("add", "del"):
        raise Reject(f"ip rule: unknown verb {verb!r}")
    if "prohibit" not in rest[1:]:
        raise Reject("ip rule: only prohibit rules are supported")
    spec = " ".join(t for t in rest[1:] if t != "prohibit") or "from all"
    return (add_prohibit if verb == "add" else delete_prohibit)(state, spec)


def _need_chain(token: str) -> str:
    if token not in _CHAINS:
        raise Reject("iptables: No chain/target/match by that name.")
    return token


def _no_second_chain(named) -> None:
    """-L and -F take at most one chain; Linux refuses the first argument after it."""
    if len(named) > 1:
        raise Reject(f"iptables: Bad argument {named[1]!r}")


def _iptables(state: NetState, tokens) -> Outcome:
    rest = tokens[1:]
    # listing options may also come before -L, or be bundled into it (-nvL)
    lead = 0
    while lead < len(rest) - 1 and _LISTING_OPTION_RE.fullmatch(rest[lead]):
        lead += 1
    if rest and _LIST_ACTION_RE.fullmatch(rest[lead]):
        named = [token for token in rest[lead + 1:] if not _LISTING_OPTION_RE.fullmatch(token)]
        _no_second_chain(named)
        chains = (_need_chain(named[0]),) if named else _CHAINS
        return Outcome(state, "\n\n".join(_render_filters(state, c) for c in chains), READ)
    if not rest:
        raise Reject("iptables: no action given")
    action = rest[0]
    if action == "-S":
        if len(rest) > 2:
            raise Reject(f"iptables: unsupported argument {rest[2]!r}")
        chains = (_need_chain(rest[1]),) if len(rest) > 1 else _CHAINS
        return Outcome(state, _render_specs(state, chains), READ)
    if action == "-F":
        _no_second_chain(rest[1:])
        return flush_rules(state, _need_chain(rest[1]) if len(rest) > 1 else None)
    if action not in ("-A", "-D"):
        raise Reject(f"iptables: unsupported action {action!r}")
    if len(rest) < 2:
        raise Reject("iptables: missing chain")
    chain = _need_chain(rest[1])

    src = dst = proto = verdict = None
    for flag, value in _flag_pairs(rest[2:], ("-s", "-d", "-p", "-j", "--reject-with"),
                                   "iptables: unsupported flag"):
        if flag == "-s":
            src = _need_host_or_cidr(value)
        elif flag == "-d":
            dst = _need_host_or_cidr(value)
        elif flag == "-p":
            proto = _need_proto(value)
        elif flag == "-j":
            verdict = value
        elif verdict != "REJECT":  # an option of the REJECT target, so only after it
            raise Reject('iptables: unknown option "--reject-with"')
        elif value != _REJECT_WITH:
            raise Reject(f"iptables: unsupported reject type {value!r}; only {_REJECT_WITH}")
    if verdict not in ("DROP", "REJECT"):
        raise Reject("iptables: -j DROP or -j REJECT required")
    rule = FilterRule(chain=chain, verdict=verdict, src=src, dst=dst, proto=proto)
    return (append_rule if action == "-A" else delete_rule)(state, rule)


def _sysctl(state: NetState, tokens) -> Outcome:
    rest = tokens[1:]
    if rest == ["net.ipv4.ip_forward"]:
        return Outcome(state, f"net.ipv4.ip_forward = {int(state.ip_forward)}", READ)
    if len(rest) == 2 and rest[0] == "-w" and rest[1].startswith("net.ipv4.ip_forward="):
        value = rest[1].split("=", 1)[1]
        if value not in ("0", "1"):
            raise Reject(f"sysctl: invalid value {value!r}")
        return set_forwarding(state, value == "1")
    raise Reject("sysctl: only net.ipv4.ip_forward is supported")


def _tc(state: NetState, tokens) -> Outcome:
    rest = tokens[1:]
    if not rest or rest[0] != "qdisc":
        raise Reject("tc: only qdisc operations are supported")
    rest = rest[1:]
    if not rest or rest[0] == "show":
        return Outcome(state, _render_qdiscs(state), READ)
    verb, m = rest[0], rest[1:]
    if verb in ("add", "change", "replace"):
        # tc qdisc add|change|replace dev <iface> root netem delay <N>ms
        if not (len(m) == 6 and m[0] == "dev" and m[2] == "root" and m[3] == "netem"
                and m[4] == "delay" and m[5].endswith("ms")):
            raise Reject(f"usage: tc qdisc {verb} dev <iface> root netem delay <N>ms")
        iface = _need_iface(state, m[1])
        ms = _u32(m[5][:-2])
        if ms is None:
            raise Reject(f"invalid delay: {m[5]!r}")
        return set_delay(state, iface, ms, create=verb != "change", exclusive=verb == "add")
    if verb == "del":
        if not (len(m) == 3 and m[0] == "dev" and m[2] == "root"):
            raise Reject("usage: tc qdisc del dev <iface> root")
        return delete_delay(state, _need_iface(state, m[1]))
    raise Reject(f"tc qdisc: unsupported verb {verb!r}")


_IP_OBJECTS = {"addr": _ip_addr, "address": _ip_addr, "a": _ip_addr, "link": _ip_link,
               "l": _ip_link, "route": _ip_route, "r": _ip_route, "rule": _ip_rule}
_ROUTER_COMMANDS = {"ifconfig": _ifconfig, "ip": _ip, "iptables": _iptables,
                    "sysctl": _sysctl, "tc": _tc}
