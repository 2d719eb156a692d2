"""Deterministic model of the single-router, multi-subnet topology.

One router ``<prefix>r0`` owns one interface per subnet
(``<prefix>r0-ethK`` at ``192.168.K.1/24``); each subnet K holds a
switch-local segment with hosts numbered consecutively across subnets.
The model tracks exactly the state the fault families mutate:
interfaces, addresses, routes, filter rules, policy prohibitions,
forwarding flag and netem delays.
A state is a value: it and its elements are frozen, a write builds a new
state that shares every element it leaves, and hosts, routes and filter
rules hold their text parsed (``addr``, ``match``): their constructors parse
it, and ``build_topology``, which builds its elements directly, sets it from
the numbers it makes their text of. What no command writes (the prefix, the
sizes and the hosts) is one ``Topology`` value that every state written from
a built one shares, with the views that depend on it alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations

from ..digest import canonical_json
from ..errors import ParameterOutOfRange

DEFAULT_MTU = 1500
MIN_DATAGRAM_MTU = 576  # below this, IPv4 traffic is considered lost
SUBNET_MASK = 0xFFFFFF00  # /24: the netmask of each subnet


def built(cls, fields: dict, **changes):
    """The frozen dataclass ``cls`` with ``fields`` updated by ``changes``, built directly:
    it runs neither the frozen ``__init__``, which sets each field through
    ``object.__setattr__``, nor ``__post_init__``, so the caller gives every field,
    derived ones (``Host.addr``, ``Route.match``) included."""
    new = object.__new__(cls)
    new.__dict__.update(fields, **changes)
    return new


def changed(value, changes: dict):
    """``dataclasses.replace(value, **changes)`` for a frozen dataclass with no
    ``__post_init__`` and no field outside ``__init__`` (``Interface``, ``NetState``), made by
    ``built``: it shares every other field and does not walk the fields."""
    fields = value.__dict__
    unknown = changes.keys() - fields.keys()
    if unknown:
        raise TypeError(f"{type(value).__name__} has no field {sorted(unknown)}")
    return built(type(value), fields, **changes)


@dataclass(frozen=True)
class Interface:
    name: str
    subnet: int
    ip: str | None
    mask: int | None
    up: bool = True
    mtu: int = DEFAULT_MTU

    def to_json(self):
        return {"name": self.name, "subnet": self.subnet, "ip": self.ip,
                "mask": self.mask, "up": self.up, "mtu": self.mtu}


@dataclass(frozen=True)
class Host:
    name: str
    subnet: int
    ip: str
    mask: int
    gateway: str
    addr: int = field(init=False, repr=False, compare=False)  # the ip as an integer

    def __post_init__(self):
        object.__setattr__(self, "addr", ip_to_int(self.ip))

    def to_json(self):
        return {"name": self.name, "subnet": self.subnet, "ip": self.ip,
                "mask": self.mask, "gateway": self.gateway}


@dataclass(frozen=True)
class Route:
    dest: str  # cidr text, e.g. "192.168.2.0/24"
    dev: str
    gateway: str | None = None
    metric: int = 0
    # (network, netmask, (prefix length, -metric)): a lookup takes the highest rank
    match: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "match",
                           (*parse_cidr(self.dest), (prefix_len(self.dest), -self.metric)))

    def to_json(self):
        return {"dest": self.dest, "dev": self.dev, "gateway": self.gateway, "metric": self.metric}


@dataclass(frozen=True)
class FilterRule:
    chain: str
    verdict: str  # DROP | REJECT
    src: str | None = None  # cidr
    dst: str | None = None  # cidr
    proto: str | None = None  # a protocol's name or number; None matches every protocol
    # (source network, netmask, destination network, netmask); no prefix matches all
    match: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "match", (*parse_cidr(self.src or "0.0.0.0/0"),
                                           *parse_cidr(self.dst or "0.0.0.0/0")))

    def to_json(self):
        return {"chain": self.chain, "verdict": self.verdict, "src": self.src,
                "dst": self.dst, "proto": self.proto}


def ip_to_int(ip: str) -> int:
    a, b, c, d = map(int, ip.split("."))
    return (a << 24) | (b << 16) | (c << 8) | d


def parse_cidr(cidr: str) -> tuple[int, int]:
    """(network, netmask) as integers; a /0 covers every address."""
    net, plen = cidr.split("/")
    plen = int(plen)
    if plen == 0:
        return 0, 0
    mask = ((1 << plen) - 1) << (32 - plen)
    return ip_to_int(net) & mask, mask


def prefix_len(cidr: str) -> int:
    return int(cidr.split("/")[1])


@dataclass(frozen=True)
class Topology:
    """What no command writes: the naming prefix, the sizes and the hosts.

    Its views are computed on first use and held by the value, so they live
    as long as the states that share it.
    """

    prefix: str
    num_switches: int
    hosts_per_subnet: int
    hosts: dict[str, Host]  # in numeric order

    @cached_property
    def nodes(self) -> tuple[str, ...]:
        """Ping participants: hosts in numeric order, then the router."""
        return (*self.hosts, f"{self.prefix}r0")

    @cached_property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        """The ordered pairs of distinct nodes, in row order."""
        return tuple(permutations(self.nodes, 2))

    @cached_property
    def hosts_fragment(self) -> str:
        """``"hosts":{...}``, the hosts' member of a state's canonical JSON text."""
        return canonical_json({"hosts": {n: h.to_json() for n, h in self.hosts.items()}})[1:-1]


@dataclass(frozen=True)
class NetState:
    """Its dicts are written by no code after the state is built."""

    topology: Topology
    interfaces: dict[str, Interface] = field(default_factory=dict)
    routes: tuple[Route, ...] = ()
    filter_rules: tuple[FilterRule, ...] = ()
    prohibit_rules: tuple[str, ...] = ()
    delays: dict[str, int] = field(default_factory=dict)  # iface -> netem ms
    ip_forward: bool = True

    # -- the topology --------------------------------------------------------

    @property
    def prefix(self) -> str:
        return self.topology.prefix

    @property
    def num_switches(self) -> int:
        return self.topology.num_switches

    @property
    def hosts_per_subnet(self) -> int:
        return self.topology.hosts_per_subnet

    @property
    def hosts(self) -> dict[str, Host]:
        return self.topology.hosts

    # -- naming --------------------------------------------------------------

    @property
    def router_name(self) -> str:
        return f"{self.prefix}r0"

    def iface_name(self, subnet: int) -> str:
        return f"{self.prefix}r0-eth{subnet}"

    @staticmethod
    def subnet_cidr(subnet: int) -> str:
        return f"192.168.{subnet}.0/24"

    @staticmethod
    def expected_gateway(subnet: int) -> str:
        return f"192.168.{subnet}.1"

    def hosts_in_subnet(self, subnet: int) -> list[Host]:
        return [h for h in self.hosts.values() if h.subnet == subnet]

    def node_names(self) -> list[str]:
        """Ping participants: hosts in numeric order, then the router."""
        return list(self.topology.nodes)

    def router_own_ips(self) -> set[str]:
        return {i.ip for i in self.interfaces.values() if i.ip is not None}

    # -- value semantics -----------------------------------------------------

    def copy(self, **changes) -> "NetState":
        """This state with ``changes`` to its fields; every other field is shared."""
        return changed(self, changes)

    def _members(self) -> tuple[dict, dict]:
        """The members of ``to_json()`` but the hosts: those whose keys sort before
        ``"hosts"`` and those whose keys sort after it."""
        before = {
            "delays": dict(sorted(self.delays.items())),
            "filter_rules": sorted((f.to_json() for f in self.filter_rules),
                                   key=lambda f: (f["chain"], str(f["src"]), str(f["dst"]),
                                                  str(f["proto"]), f["verdict"])),
        }
        after = {
            "hosts_per_subnet": self.hosts_per_subnet,
            "interfaces": {n: i.to_json() for n, i in sorted(self.interfaces.items())},
            "ip_forward": self.ip_forward,
            "num_switches": self.num_switches,
            "prefix": self.prefix,
            "prohibit_rules": sorted(self.prohibit_rules),
            "routes": sorted((r.to_json() for r in self.routes),
                             key=lambda r: (r["dest"], r["dev"], str(r["gateway"]), r["metric"])),
        }
        return before, after

    def to_json(self):
        before, after = self._members()
        return {**before, "hosts": {n: h.to_json() for n, h in sorted(self.hosts.items())},
                **after}

    def state_digest(self) -> str:
        """``digest(self.to_json())``: the canonical text with the topology's hosts
        fragment spliced in where its key sorts."""
        before, after = self._members()
        text = (f"{canonical_json(before)[:-1]},{self.topology.hosts_fragment},"
                f"{canonical_json(after)[1:]}")
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_topology(num_switches: int, hosts_per_subnet: int, prefix: str = "") -> NetState:
    """A healthy state: every subnet wired, forwarding on, no filters."""
    if not 2 <= num_switches <= 4:
        raise ParameterOutOfRange(f"num_switches must be in [2,4], got {num_switches}")
    if not 2 <= hosts_per_subnet <= 4:
        raise ParameterOutOfRange(f"hosts_per_subnet must be in [2,4], got {hosts_per_subnet}")

    interfaces, hosts, routes = {}, {}, []
    for k in range(1, num_switches + 1):
        gateway, dev = NetState.expected_gateway(k), f"{prefix}r0-eth{k}"
        net = ip_to_int(f"192.168.{k}.0")
        interfaces[dev] = built(Interface, {"name": dev, "subnet": k, "ip": gateway, "mask": 24,
                                            "up": True, "mtu": DEFAULT_MTU})
        routes.append(built(Route, {"dest": NetState.subnet_cidr(k), "dev": dev, "gateway": None,
                                    "metric": 0, "match": (net, SUBNET_MASK, (24, 0))}))
        for i in range(2, hosts_per_subnet + 2):
            name = f"{prefix}h{len(hosts) + 1}"
            hosts[name] = built(Host, {"name": name, "subnet": k, "ip": f"192.168.{k}.{i}",
                                       "mask": 24, "gateway": gateway, "addr": net | i})
    return NetState(Topology(prefix, num_switches, hosts_per_subnet, hosts), interfaces,
                    tuple(routes))
