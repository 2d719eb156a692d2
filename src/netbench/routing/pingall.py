"""All-pairs reachability over the routing model.

A directed pair (a, b) counts as reachable only if both the echo
request a->b and the echo reply b->a would be delivered, matching what
a real ping observes. Intra-subnet traffic is switch-local and never
traverses the router.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress, permutations

from .state import MIN_DATAGRAM_MTU, NetState, ip_to_int

DEFAULT_DELAY_CEILING_MS = 10_000
MAX_ROUTE_HOPS = 8


class PingMatrix:
    """All-pairs reachability, held in class form.

    ``ids[i]`` is the class of ``nodes[i]`` and ``verdict[c][d]`` says whether a
    node of class c reaches a node of class d; ``pairs`` are the ordered pairs of
    distinct nodes in row order. ``PingMatrix(nodes, reachable)`` takes the full
    matrix, (src, dst) -> bool over those pairs, as the form where each node is a
    class of its own. Two matrices are equal when their nodes and their reachable
    pairs are.
    """

    def __init__(self, nodes, reachable=None, *, ids=None, verdict=None, pairs=None):
        if verdict is None:
            ids = range(len(nodes))
            verdict = [[a == b or reachable[(a, b)] for b in nodes] for a in nodes]
            pairs = tuple(permutations(nodes, 2))
        self.nodes, self.ids, self.verdict, self.pairs = nodes, ids, verdict, pairs
        # the reachable pairs: the set the step safety judge compares
        self.good = frozenset(compress(pairs, self._flags()))

    def _to_nodes(self) -> list[list[bool]]:
        """Per class, its verdict toward each node."""
        return [list(map(row.__getitem__, self.ids)) for row in self.verdict]

    def _per_pair(self, rows) -> list:
        """Per pair of ``pairs``, the entry that ``rows`` (a row per class, an entry per
        node) holds for the source's class and the destination."""
        entries = list(chain.from_iterable(map(rows.__getitem__, self.ids)))
        del entries[::len(self.nodes) + 1]  # the diagonal of the node x node matrix
        return entries

    def _flags(self) -> list[bool]:
        """Whether each of ``pairs`` is reachable."""
        return self._per_pair(self._to_nodes())

    @cached_property
    def reachable(self) -> dict:
        """(src, dst) -> bool over the ordered pairs of distinct nodes."""
        return dict(zip(self.pairs, self._flags()))

    def __eq__(self, other):
        if not isinstance(other, PingMatrix):
            return NotImplemented
        # over the same nodes, the reachable pairs decide the whole matrix
        return self.nodes == other.nodes and self.good == other.good

    def __repr__(self) -> str:
        return f"PingMatrix(nodes={self.nodes!r}, reachable={self.reachable!r})"

    @property
    def total(self) -> int:
        n = len(self.nodes)
        return n * (n - 1)

    @property
    def received(self) -> int:
        return len(self.good)

    @property
    def summary_line(self) -> str:
        return render_summary(self.received, self.total)

    def render(self) -> str:
        """A line per node: each other node, or X where it is not reachable."""
        nodes, width = self.nodes, len(self.nodes) - 1
        shown = self._per_pair([[b if ok else "X" for b, ok in zip(nodes, row)]
                                for row in self._to_nodes()])
        lines = ["*** Fast Ping: testing ping reachability"]
        for k, a in enumerate(nodes):
            lines.append(f"{a} -> " + " ".join(shown[k * width:(k + 1) * width]))
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

    def __init__(self, state: NetState):
        self.router = state.router_name
        self.hosts = state.hosts
        subnets = {h.subnet for h in state.hosts.values()}
        self.healthy = {k: _iface_healthy(state, k) for k in subnets}
        self.delayed = {k: state.delays.get(state.iface_name(k), 0) > 0 for k in subnets}
        self.forwarding = state.ip_forward and not state.prohibit_rules
        self.too_slow = sum(state.delays.values()) > DEFAULT_DELAY_CEILING_MS
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


def pingall(state: NetState) -> PingMatrix:
    """Judges one pair per ordered pair of host classes, and keeps the verdict in that form."""
    facts = _Facts(state)
    nodes = state.node_names()
    reps = {}  # class key -> the first node of the class
    for node in nodes:
        reps.setdefault(facts.key[node], node)
    number = {key: i for i, key in enumerate(reps)}
    # two nodes of one class share a subnet, so they reach each other
    verdict = [[a == b or facts.pair(a, b) for b in reps.values()] for a in reps.values()]
    return PingMatrix(nodes, ids=[number[facts.key[node]] for node in nodes], verdict=verdict,
                      pairs=state.topology.pairs)
