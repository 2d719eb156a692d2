from dataclasses import FrozenInstanceError, replace

import pytest

from netbench.digest import digest
from netbench.errors import ParameterOutOfRange
from netbench.routing.commands import exec_command
from netbench.routing.state import FilterRule, Host, Interface, Route, build_topology, \
    changed, ip_to_int, parse_cidr, prefix_len


def test_parameter_ranges_enforced():
    with pytest.raises(ParameterOutOfRange):
        build_topology(1, 2)
    with pytest.raises(ParameterOutOfRange):
        build_topology(5, 2)
    with pytest.raises(ParameterOutOfRange):
        build_topology(2, 1)
    with pytest.raises(ParameterOutOfRange):
        build_topology(2, 5)


def test_healthy_topology_shape():
    s = build_topology(3, 2, prefix="t_")
    assert s.router_name == "t_r0"
    assert sorted(s.interfaces) == ["t_r0-eth1", "t_r0-eth2", "t_r0-eth3"]
    assert len(s.hosts) == 6
    assert s.hosts["t_h1"].ip == "192.168.1.2"
    assert s.hosts["t_h3"].subnet == 2  # numbering continues across subnets
    assert s.hosts["t_h3"].gateway == "192.168.2.1"
    assert len(s.routes) == 3


def test_node_names_hosts_then_router_numeric_order():
    s = build_topology(2, 4, prefix="p_")
    names = s.node_names()
    assert names[-1] == "p_r0"
    assert names[:-1] == [f"p_h{i}" for i in range(1, 9)]
    assert build_topology(4, 4).node_names() == [*(f"h{i}" for i in range(1, 17)), "r0"]


def test_digest_deterministic_and_copy_independent():
    a = build_topology(2, 2)
    b = build_topology(2, 2)
    assert a.state_digest() == b.state_digest()
    c = a.copy(interfaces={**a.interfaces,
                           "r0-eth1": replace(a.interfaces["r0-eth1"], up=False)})
    assert a.copy() == a and a.copy().routes is a.routes
    assert a.state_digest() == b.state_digest() and a.interfaces["r0-eth1"].up
    assert c.state_digest() != a.state_digest()


@pytest.mark.parametrize("changes", [
    {}, {"ip_forward": False}, {"routes": ()}, {"delays": {"r0-eth1": 5}, "prohibit_rules": ("x",)},
])
def test_a_copy_is_what_replace_gives_and_shares_each_unchanged_field(changes):
    state = build_topology(3, 2)
    copied = state.copy(**changes)
    assert copied == replace(state, **changes) and type(copied) is type(state)
    assert copied is not state and vars(copied).keys() == vars(state).keys()
    for name, value in vars(copied).items():
        assert value is (changes[name] if name in changes else getattr(state, name))
    iface = state.interfaces["r0-eth2"]
    assert changed(iface, {"up": False}) == replace(iface, up=False)
    with pytest.raises(TypeError, match="no field"):
        state.copy(nosuch=1)


def test_an_interface_write_shares_every_other_interface_and_field():
    state = build_topology(3, 2)
    written = exec_command(state, "r0", "ip link set r0-eth2 mtu 1400").state
    iface = state.interfaces["r0-eth2"]
    assert written.interfaces["r0-eth2"] == replace(iface, mtu=1400)
    assert all(written.interfaces[n] is i for n, i in state.interfaces.items() if n != "r0-eth2")
    assert all(vars(written.interfaces["r0-eth2"])[f] is v
               for f, v in vars(iface).items() if f != "mtu")
    assert all(getattr(written, f) is v for f, v in vars(state).items() if f != "interfaces")


def test_elements_parse_their_text_when_built():
    assert vars(Host("h1", 1, "192.168.1.2", 24, "192.168.1.1"))["addr"] == \
        ip_to_int("192.168.1.2")
    assert vars(Route("192.168.1.0/24", "r0-eth1", metric=5))["match"] == \
        (*parse_cidr("192.168.1.0/24"), (24, -5))
    assert vars(FilterRule("FORWARD", "DROP", dst="192.168.1.0/24"))["match"] == \
        (0, 0, *parse_cidr("192.168.1.0/24"))


@pytest.mark.parametrize("prefix", ["", "n7_"])
@pytest.mark.parametrize("num_switches,hosts", [(n, h) for n in (2, 3, 4) for h in (2, 3, 4)])
def test_built_elements_are_what_their_constructors_make(num_switches, hosts, prefix):
    """``build_topology`` builds its elements directly; each must equal, field by field
    (the derived ``addr`` and ``match`` too), what its dataclass constructor makes from
    the same text, and stay frozen."""
    state = build_topology(num_switches, hosts, prefix)
    elements = [*state.hosts.values(), *state.interfaces.values(), *state.routes]
    assert len(elements) == num_switches * (hosts + 2)
    for element in elements:
        given = {name: value for name, value in vars(element).items()
                 if name not in ("addr", "match")}
        assert vars(type(element)(**given)) == vars(element), element
        for name in vars(element):
            with pytest.raises(FrozenInstanceError):
                setattr(element, name, None)
    assert {type(e) for e in elements} == {Host, Interface, Route}
    assert state.state_digest() == digest(state.to_json())


def test_a_topology_holds_its_own_views():
    a, b = build_topology(2, 2), build_topology(2, 2)
    assert a.topology.pairs == b.topology.pairs and a.topology.pairs is not b.topology.pairs
    assert a.topology.hosts_fragment == b.topology.hosts_fragment
    assert a.copy(ip_forward=False).topology.pairs is a.topology.pairs


def test_digest_ignores_route_order():
    a = build_topology(3, 2)
    b = build_topology(3, 2)
    b = b.copy(routes=b.routes[::-1])
    assert b.routes != a.routes
    assert a.state_digest() == b.state_digest()


def test_ip_helpers():
    assert ip_to_int("0.0.0.1") == 1
    assert ip_to_int("192.168.1.1") == (192 << 24) + (168 << 16) + (1 << 8) + 1
    net, mask = parse_cidr("192.168.1.0/24")
    assert (net, mask) == (ip_to_int("192.168.1.0"), 0xFFFFFF00)
    assert ip_to_int("192.168.1.77") & mask == net
    assert ip_to_int("192.168.2.1") & mask != net
    assert parse_cidr("192.168.1.77/24") == (net, mask)  # host bits are dropped
    net, mask = parse_cidr("0.0.0.0/0")
    assert ip_to_int("8.8.8.8") & mask == net
    assert prefix_len("10.0.0.0/8") == 8
