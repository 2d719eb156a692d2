"""All-pairs reachability over the routing model.

A directed pair (a, b) counts as reachable only if both the echo
request a->b and the echo reply b->a would be delivered, matching what
a real ping observes. Intra-subnet traffic is switch-local and never
traverses the router.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations, compress, permutations

from .state import MIN_DATAGRAM_MTU, SUBNET_MASK, NetState, ip_to_int

DEFAULT_DELAY_CEILING_MS = 10_000
MAX_ROUTE_HOPS = 8


class PingMatrix:
    """All-pairs reachability, held in class form.

    ``ids[i]`` is the class of ``nodes[i]`` and ``verdict[c][d]`` says whether a
    node of class c reaches a node of class d (a class always reaches itself);
    ``pairs`` are the ordered pairs of distinct nodes in row order.
    ``PingMatrix(nodes, reachable)`` takes the full matrix, (src, dst) -> bool over
    those pairs, as the form where each node is a class of its own. Two matrices are
    equal when their nodes and their reachable pairs are.
    """

    def __init__(self, nodes, reachable=None, *, ids=None, verdict=None, pairs=None):
        if verdict is None:
            ids = range(len(nodes))
            verdict = [[a == b or reachable[(a, b)] for b in nodes] for a in nodes]
            pairs = tuple(permutations(nodes, 2))
        self.nodes, self.ids, self.verdict, self.pairs = nodes, ids, verdict, pairs
        sizes = [0] * len(verdict)
        for c in ids:
            sizes[c] += 1
        # per class pair that reaches, the product of the class sizes; less each node's self
        self.received = sum(size * sum(compress(sizes, row))
                            for size, row in zip(sizes, verdict)) - len(nodes)

    def lost(self, after: PingMatrix) -> bool:
        """Whether a pair reachable here is not reachable in ``after``, a matrix over the
        same nodes: compared per pair of classes of the common refinement."""
        refined = set(zip(self.ids, after.ids))
        mine, theirs = self.verdict, after.verdict
        for c, c2 in refined:
            row, row2 = mine[c], theirs[c2]
            for d, d2 in refined:
                if row[d] and not row2[d2]:
                    return True
        return False

    @cached_property
    def reachable(self) -> dict:
        """(src, dst) -> bool over the ordered pairs of distinct nodes."""
        verdict = self.verdict
        return dict(zip(self.pairs, (verdict[c][d] for c, d in permutations(self.ids, 2))))

    @cached_property
    def good(self) -> frozenset:
        """The reachable pairs."""
        return frozenset(pair for pair, ok in self.reachable.items() if ok)

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
    def summary_line(self) -> str:
        return render_summary(self.received, self.total)

    def render(self) -> str:
        """A line per node: each other node, or X where it is not reachable."""
        nodes, ids = self.nodes, self.ids
        rows = [[b if row[d] else "X" for b, d in zip(nodes, ids)] for row in self.verdict]
        lines = ["*** Fast Ping: testing ping reachability"]
        for k, (a, c) in enumerate(zip(nodes, ids)):
            row = rows[c]
            lines.append(f"{a} -> " + " ".join(row[:k] + row[k + 1:]))
        lines.append(self.summary_line)
        return "\n".join(lines)


def render_summary(received: int, total: int) -> str:
    dropped_pct = round(100 * (total - received) / total) if total else 0
    return f"*** Results: {dropped_pct}% dropped ({received}/{total} received)"


def _iface_healthy(iface, gateway: str) -> bool:
    """Link up with a datagram-sized MTU, holding exactly the gateway address
    the hosts expect."""
    return (iface is not None and iface.up and iface.mtu >= MIN_DATAGRAM_MTU
            and iface.ip == gateway and iface.mask == 24)


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

    A cut is a route destination, or a source or destination prefix of a FORWARD
    filter that can match ICMP, longer than /24: any shorter prefix holds all or none
    of a subnet. A host's class key is its subnet and, per cut, whether its address
    lies in it, so that the routing table and the filters treat hosts of one class
    alike; the router is its own class. Per class, on its first node: its subnet,
    whether the router reaches it (its subnet's interface is healthy and the routing
    table delivers to it), and whether its subnet's interface is delayed. Globally:
    forwarding, and whether the total delay is too much.
    """

    def __init__(self, state: NetState):
        self.router = router = state.router_name
        self.hosts = hosts = state.hosts
        self.forwarding = state.ip_forward and not state.prohibit_rules
        self.too_slow = sum(state.delays.values()) > DEFAULT_DELAY_CEILING_MS
        # first match wins; injected sets are non-conflicting so any match blocks
        self.filters = [(*r.match, r.verdict in ("DROP", "REJECT")) for r in state.filter_rules
                        if r.chain == "FORWARD" and r.proto in (None, "icmp")]
        prefixes = chain((r.match[:2] for r in state.routes),
                         *((f[:2], f[2:4]) for f in self.filters))
        cuts = [(net, mask) for net, mask in prefixes if mask > SUBNET_MASK]
        self.key = {name: (h.subnet, *[h.addr & mask == net for net, mask in cuts])
                    for name, h in hosts.items()}
        self.key[router] = None
        self.reps = {}  # class key -> the first node of the class
        for node in state.topology.nodes:
            self.reps.setdefault(self.key[node], node)
        own, subnets = state.router_own_ips(), {}
        for k in range(1, state.num_switches + 1):
            dev = state.iface_name(k)
            subnets[k] = (dev, _iface_healthy(state.interfaces.get(dev), state.expected_gateway(k)),
                          state.delays.get(dev, 0) > 0)
        self.node = {router: (None, True, False)}
        for key, name in self.reps.items():
            if key is not None:
                dev, healthy, delayed = subnets[key[0]]
                self.node[name] = (key[0], healthy and _route_delivers(
                    state.routes, own, hosts[name].addr, dev), delayed)

    def _blocked(self, src: str, dst: str) -> bool:
        a, b = self.hosts[src].addr, self.hosts[dst].addr
        for src_net, src_mask, dst_net, dst_mask, blocks in self.filters:
            if a & src_mask == src_net and b & dst_mask == dst_net:
                return blocks
        return False

    def pair(self, a: str, b: str) -> bool:
        """Ping semantics: request and reply must both be deliverable, and a pair
        crossing a delayed interface fails when the total delay is too much. Symmetric:
        the request of one direction is the reply of the other.

        Within a subnet, traffic is switch-local. Between a host and the router, the
        host's gateway takes the request and the routing table sends the reply. Between
        subnets, the router also forwards, and its FORWARD filters see both packets.
        """
        (subnet_a, reached_a, delayed_a), (subnet_b, reached_b, delayed_b) = \
            self.node[a], self.node[b]
        if subnet_a == subnet_b:
            return True
        if not (reached_a and reached_b):
            return False
        if a != self.router and b != self.router and not (
                self.forwarding and not self._blocked(a, b) and not self._blocked(b, a)):
            return False
        return not ((delayed_a or delayed_b) and self.too_slow)


def pingall(state: NetState) -> PingMatrix:
    """Judges one pair per unordered pair of host classes, and keeps the verdict in that
    form."""
    facts = _Facts(state)
    nodes = state.node_names()
    reps = list(facts.reps.values())
    number = {key: i for i, key in enumerate(facts.reps)}
    # two nodes of one class share a subnet, so they reach each other
    verdict = [[True] * len(reps) for _ in reps]
    for i, j in combinations(range(len(reps)), 2):
        verdict[i][j] = verdict[j][i] = facts.pair(reps[i], reps[j])
    return PingMatrix(nodes, ids=[number[facts.key[node]] for node in nodes], verdict=verdict,
                      pairs=state.topology.pairs)
