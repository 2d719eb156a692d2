"""Reference verdict kernels: the straightforward per-pair implementations.

These are the original ``pingall`` and ``connectivity_check``, which
re-derive every pair-independent fact for every pair, the original
``cluster_digest``, which serialises the whole store anew, and cp's
original cascading remove and safety check, which scan the edge set once
per node. The differential tests hold the optimized kernels in
``netbench`` to the same answers.
"""

from netbench.cp.graph import CONTAINS, CONTROL, CONTROL_RULES, HIERARCHY_RULES, NODE_TYPES
from netbench.cp.safety import Violation
from netbench.digest import digest
from netbench.k8spolicy.connectivity import MismatchReport
from netbench.k8spolicy.model import expected_flows, flow_universe
from netbench.routing.pingall import DEFAULT_DELAY_CEILING_MS, MAX_ROUTE_HOPS, PingMatrix
from netbench.routing.state import MIN_DATAGRAM_MTU, prefix_len


# --- routing -----------------------------------------------------------------

def _ip_to_int(ip):
    a, b, c, d = (int(p) for p in ip.split("."))
    return (a << 24) | (b << 16) | (c << 8) | d


def cidr_covers(cidr, ip):
    net, plen = cidr.split("/")
    mask = 0xFFFFFFFF ^ ((1 << (32 - int(plen))) - 1)
    return _ip_to_int(ip) & mask == _ip_to_int(net) & mask


def _iface_link_ok(state, subnet):
    iface = state.interfaces.get(state.iface_name(subnet))
    return iface is not None and iface.up and iface.mtu >= MIN_DATAGRAM_MTU


def _iface_addr_ok(state, subnet):
    iface = state.interfaces.get(state.iface_name(subnet))
    return (iface is not None and iface.ip == state.expected_gateway(subnet)
            and iface.mask == 24)


def _iface_healthy(state, subnet):
    return _iface_link_ok(state, subnet) and _iface_addr_ok(state, subnet)


def _best_route(state, dst_ip):
    best = None
    for r in state.routes:
        if not cidr_covers(r.dest, dst_ip):
            continue
        if best is None:
            best = r
            continue
        if (prefix_len(r.dest), -r.metric) > (prefix_len(best.dest), -best.metric):
            best = r
    return best


def _route_delivers(state, dst_ip, dst_subnet):
    own = state.router_own_ips()
    cur = dst_ip
    for _ in range(MAX_ROUTE_HOPS + 1):
        route = _best_route(state, cur)
        if route is None:
            return False
        if route.gateway is None:
            return route.dev == state.iface_name(dst_subnet)
        if route.gateway not in own:
            return False
        cur = route.gateway
    return False


def _rule_matches(rule, src_ip, dst_ip, proto):
    if rule.proto is not None and rule.proto != proto:
        return False
    if rule.src is not None and not cidr_covers(rule.src, src_ip):
        return False
    if rule.dst is not None and not cidr_covers(rule.dst, dst_ip):
        return False
    return True


def _filters_block(state, src_ip, dst_ip):
    for rule in state.filter_rules:
        if rule.chain == "FORWARD" and _rule_matches(rule, src_ip, dst_ip, "icmp"):
            return rule.verdict in ("DROP", "REJECT")
    return False


def _oneway(state, src, dst):
    router = state.router_name
    delayed = False

    if src != router and dst != router:
        a, b = state.hosts[src], state.hosts[dst]
        if a.subnet == b.subnet:
            return True, False
        if not (_iface_healthy(state, a.subnet) and _iface_healthy(state, b.subnet)):
            return False, False
        if not state.ip_forward or state.prohibit_rules:
            return False, False
        if _filters_block(state, a.ip, b.ip):
            return False, False
        if not _route_delivers(state, b.ip, b.subnet):
            return False, False
        for name in (state.iface_name(a.subnet), state.iface_name(b.subnet)):
            if state.delays.get(name, 0) > 0:
                delayed = True
        return True, delayed

    if src != router:
        a = state.hosts[src]
        ok = _iface_healthy(state, a.subnet)
        return ok, ok and state.delays.get(state.iface_name(a.subnet), 0) > 0

    b = state.hosts[dst]
    if not _iface_healthy(state, b.subnet):
        return False, False
    if not _route_delivers(state, b.ip, b.subnet):
        return False, False
    return True, state.delays.get(state.iface_name(b.subnet), 0) > 0


def ref_pair_reachable(state, a, b, delay_ceiling_ms=DEFAULT_DELAY_CEILING_MS):
    fwd, d1 = _oneway(state, a, b)
    if not fwd:
        return False, False
    rev, d2 = _oneway(state, b, a)
    if not rev:
        return False, False
    slow = d1 or d2
    if slow:
        total_delay = sum(state.delays.values())
        if total_delay > delay_ceiling_ms:
            return False, False
    return True, slow


def ref_pingall(state, delay_ceiling_ms=DEFAULT_DELAY_CEILING_MS):
    nodes = state.node_names()
    reachable = {}
    for a in nodes:
        for b in nodes:
            if a == b:
                continue
            ok, _ = ref_pair_reachable(state, a, b, delay_ceiling_ms)
            reachable[(a, b)] = ok
    return PingMatrix(nodes=nodes, reachable=reachable)


# --- k8s ---------------------------------------------------------------------

def _selects(selector, service):
    labels = {"app": service}
    match = selector.get("matchLabels", {}) if selector else {}
    return all(labels.get(k) == v for k, v in match.items())


def _peer_matches(peers, service):
    if not peers:
        return True
    return any(_selects(p.get("podSelector", {}), service) for p in peers)


def _ports_match(ports, port):
    if not ports:
        return True
    return any(p.get("port") == port for p in ports)


def _direction_allows(policies, direction, selected, peer, port):
    peer_key = "from" if direction == "ingress" else "to"
    policy_type = "Ingress" if direction == "ingress" else "Egress"
    selecting = [p for p in policies.values()
                 if policy_type in p["spec"].get("policyTypes", [])
                 and _selects(p["spec"].get("podSelector", {}), selected)]
    if not selecting:
        return True
    for policy in selecting:
        for rule in policy["spec"].get(direction) or []:
            if _peer_matches(rule.get(peer_key), peer) and _ports_match(rule.get("ports"), port):
                return True
    return False


def ref_flow_allowed(policies, src, dst, port):
    return (_direction_allows(policies, "ingress", dst, src, port)
            and _direction_allows(policies, "egress", src, dst, port))


def ref_connectivity_check(policies):
    expected = set(expected_flows())
    mismatches = []
    for src, dst, port in flow_universe():
        exp = (src, dst, port) in expected
        act = ref_flow_allowed(policies, src, dst, port)
        if exp != act:
            mismatches.append((src, dst, port, exp, act))
    return MismatchReport(mismatches=sorted(mismatches))


def ref_cluster_digest(policies):
    return digest(dict(policies))  # canonical JSON sorts the keys at every level


# --- cp ----------------------------------------------------------------------

def ref_remove_cascading(g, name):
    """Delete a node, its incident edges, and any nodes left isolated, by degree."""
    g.edges = {(s, d, t) for s, d, t in g.edges if s != name and d != name}
    del g.nodes[name]
    while True:
        orphans = [n for n in g.nodes if g.degree(n) == 0]
        if not orphans:
            return
        for n in orphans:
            del g.nodes[n]


def ref_check_safety_cp(graph):
    out = []

    for name in sorted(graph.nodes):
        d = graph.nodes[name]
        if d["type"] not in NODE_TYPES:
            out.append(Violation("UnknownNodeType", name, f"type {d['type']!r} is not a known device type"))
        if d["type"] == "EK_PORT":
            cap = d["attrs"].get("physical_capacity_bps")
            if cap is None:
                out.append(Violation("MissingAttribute", name, "port lacks physical_capacity_bps"))
            elif not isinstance(cap, (int, float)) or cap <= 0:
                out.append(Violation("MissingAttribute", name, f"physical_capacity_bps must be > 0, got {cap!r}"))

    for src, dst, etype in sorted(graph.edges):
        if etype not in (CONTAINS, CONTROL):
            out.append(Violation("UnknownEdgeType", f"{src}->{dst}", f"edge type {etype!r} is not allowed"))
            continue
        stype = graph.nodes[src]["type"] if src in graph.nodes else "?"
        dtype = graph.nodes[dst]["type"] if dst in graph.nodes else "?"
        table = HIERARCHY_RULES if etype == CONTAINS else CONTROL_RULES
        if (stype, dtype) not in table:
            out.append(Violation("HierarchyRuleViolation", f"{src}->{dst}",
                                 f"{stype} -> {dtype} is not in the {etype} rule table"))

    for name in sorted(graph.nodes):
        if graph.degree(name) == 0:
            out.append(Violation("IsolatedNode", name, "node has no edges"))

    for name in sorted(graph.nodes):
        if graph.nodes[name]["type"] == "EK_PACKET_SWITCH":
            has_port = any(
                et == CONTAINS and s == name and graph.nodes.get(d, {}).get("type") == "EK_PORT"
                for s, d, et in graph.edges
            )
            if not has_port:
                out.append(Violation("EmptySwitch", name, "packet switch contains no ports"))

    return out
