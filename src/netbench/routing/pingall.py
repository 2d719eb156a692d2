"""All-pairs reachability over the routing model.

A directed pair (a, b) counts as reachable only if both the echo
request a->b and the echo reply b->a would be delivered, matching what
a real ping observes. Intra-subnet traffic is switch-local and never
traverses the router.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

from .state import MIN_DATAGRAM_MTU, NetState, ip_to_int

DEFAULT_DELAY_CEILING_MS = 10_000
MAX_ROUTE_HOPS = 8


@dataclass
class PingMatrix:
    nodes: list[str]
    reachable: dict  # (src, dst) -> bool over ordered pairs, diagonal excluded

    @property
    def total(self) -> int:
        n = len(self.nodes)
        return n * (n - 1)

    @property
    def received(self) -> int:
        return len(self.good)

    @cached_property
    def good(self) -> frozenset:
        """The reachable pairs: the set the step safety judge compares."""
        return frozenset(pair for pair, ok in self.reachable.items() if ok)

    @property
    def summary_line(self) -> str:
        return render_summary(self.received, self.total)

    def render(self) -> str:
        lines = ["*** Fast Ping: testing ping reachability"]
        for a in self.nodes:
            row = [b if self.reachable[(a, b)] else "X" for b in self.nodes if b != a]
            lines.append(f"{a} -> " + " ".join(row))
        lines.append(self.summary_line)
        return "\n".join(lines)


def render_summary(received: int, total: int) -> str:
    dropped_pct = round(100 * (total - received) / total) if total else 0
    return f"*** Results: {dropped_pct}% dropped ({received}/{total} received)"


def _iface_healthy(state: NetState, subnet: int) -> bool:
    """Link up with a datagram-sized MTU, holding exactly the gateway address
    the hosts expect."""
    iface = state.interfaces.get(state.iface_name(subnet))
    return (iface is not None and iface.up and iface.mtu >= MIN_DATAGRAM_MTU
            and iface.ip == state.expected_gateway(subnet) and iface.mask == 24)


def _route_delivers(routes, own: set, addr: int, egress: str) -> bool:
    """Longest-prefix/lowest-metric lookup must reach the correct egress.

    Of the ``routes`` in table order, the first of the highest rank wins.
    Gateway hops are followed up to MAX_ROUTE_HOPS; a next hop that is not
    one of the router's own addresses is a blackhole (there is no second
    router to hand the packet to).
    """
    for _ in range(MAX_ROUTE_HOPS + 1):
        best, best_rank = None, None
        for route in routes:
            net, mask, rank = route.match
            if addr & mask == net and (best is None or rank > best_rank):
                best, best_rank = route, rank
        if best is None:
            return False
        if best.gateway is None:
            return best.dev == egress
        if best.gateway not in own:
            return False
        addr = ip_to_int(best.gateway)
    return False  # loop: hop budget exhausted


class _Facts:
    """The pair-independent facts of one state, computed once per pingall.

    Per subnet: interface health and whether its interface is delayed. Per
    host: whether the routing table delivers to it, and its class key: its
    subnet, its delivery, and per FORWARD filter that can match ICMP whether
    the source and the destination prefix match its address. That is all
    ``oneway`` reads of a host, so hosts of one class are judged alike; the
    router is its own class. Globally: forwarding, and whether the total
    delay is too much.
    """

    def __init__(self, state: NetState, delay_ceiling_ms: int):
        self.router = state.router_name
        self.hosts = state.hosts
        subnets = {h.subnet for h in state.hosts.values()}
        self.healthy = {k: _iface_healthy(state, k) for k in subnets}
        self.delayed = {k: state.delays.get(state.iface_name(k), 0) > 0 for k in subnets}
        self.forwarding = state.ip_forward and not state.prohibit_rules
        self.too_slow = sum(state.delays.values()) > delay_ceiling_ms
        own = state.router_own_ips()
        egress = {k: state.iface_name(k) for k in subnets}
        self.delivers = {name: _route_delivers(state.routes, own, h.addr, egress[h.subnet])
                         for name, h in state.hosts.items()}
        # first match wins; injected sets are non-conflicting so any match blocks
        self.filters = [(*r.match, r.verdict in ("DROP", "REJECT")) for r in state.filter_rules
                        if r.chain == "FORWARD" and r.proto in (None, "icmp")]
        self.key = {name: (h.subnet, self.delivers[name],
                           *[(h.addr & f[1] == f[0], h.addr & f[3] == f[2]) for f in self.filters])
                    for name, h in state.hosts.items()}
        self.key[self.router] = None

    def _blocked(self, src: str, dst: str) -> bool:
        a, b = self.hosts[src].addr, self.hosts[dst].addr
        for src_net, src_mask, dst_net, dst_mask, blocks in self.filters:
            if a & src_mask == src_net and b & dst_mask == dst_net:
                return blocks
        return False

    def oneway(self, src: str, dst: str) -> tuple[bool, bool]:
        """(delivered, crossed_delayed_iface) for a single packet src->dst."""
        if src != self.router and dst != self.router:
            a, b = self.hosts[src].subnet, self.hosts[dst].subnet
            if a == b:
                return True, False  # switch-local
            if not (self.healthy[a] and self.healthy[b] and self.forwarding):
                return False, False
            if self._blocked(src, dst) or not self.delivers[dst]:
                return False, False
            return True, self.delayed[a] or self.delayed[b]

        if src != self.router:  # host -> router: deliver to the subnet gateway address
            a = self.hosts[src].subnet
            return self.healthy[a], self.healthy[a] and self.delayed[a]

        # router -> host: locally originated, uses the routing table
        b = self.hosts[dst].subnet
        if not (self.healthy[b] and self.delivers[dst]):
            return False, False
        return True, self.delayed[b]

    def pair(self, a: str, b: str) -> bool:
        """Ping semantics: request and reply must both be deliverable, and a
        pair crossing a delayed interface fails when the total delay is too much."""
        fwd, d1 = self.oneway(a, b)
        if not fwd:
            return False
        rev, d2 = self.oneway(b, a)
        return rev and not ((d1 or d2) and self.too_slow)


def pingall(state: NetState, delay_ceiling_ms: int = DEFAULT_DELAY_CEILING_MS) -> PingMatrix:
    """Judges one pair per ordered pair of host classes, then expands the verdicts."""
    facts = _Facts(state, delay_ceiling_ms)
    nodes = state.node_names()
    reps = {}  # class key -> the first node of the class
    for node in nodes:
        reps.setdefault(facts.key[node], node)
    number = {key: i for i, key in enumerate(reps)}
    ids = [number[facts.key[node]] for node in nodes]
    # two nodes of one class share a subnet, so they reach each other
    verdict = [[a == b or facts.pair(a, b) for b in reps.values()] for a in reps.values()]
    # permutations yield the ordered pairs of distinct nodes in row order
    values = [verdict[i][j] for i, j in permutations(ids, 2)]
    return PingMatrix(nodes=nodes, reachable=dict(zip(permutations(nodes, 2), values)))
