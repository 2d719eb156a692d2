import pytest
from hypothesis import given, settings, strategies as st

from netbench.routing import pingall as routing_pingall
from netbench.routing.commands import exec_command
from netbench.core.reactive import solved
from netbench.routing.generate import generate_routing_query, rebuild_states
from netbench.routing.pingall import DEFAULT_DELAY_CEILING_MS, pingall, render_summary
from netbench.routing.state import build_topology, prefix_len
from reference_kernels import ref_pingall


def run(state, *cmds):
    for cmd in cmds:
        out = exec_command(state, state.router_name, cmd)
        assert out.kind == "write", (cmd, out.output)
        state = out.state
    return state


def test_healthy_network_fully_reachable():
    m = pingall(build_topology(3, 3))
    assert solved(m)
    assert m.total == 10 * 9
    assert m.summary_line == "*** Results: 0% dropped (90/90 received)"


def test_summary_percent_rounds():
    assert render_summary(10, 42) == "*** Results: 76% dropped (10/42 received)"
    assert render_summary(8, 20) == "*** Results: 60% dropped (8/20 received)"


def test_interface_down_isolates_subnet_but_not_switch():
    s = run(build_topology(2, 2), "ifconfig r0-eth1 down")
    m = pingall(s)
    # intra-subnet pairs stay switch-local; the healthy subnet keeps its router
    assert m.reachable[("h1", "h2")] and m.reachable[("h3", "h4")]
    assert m.reachable[("h3", "r0")] and m.reachable[("r0", "h4")]
    assert not m.reachable[("h1", "r0")]
    assert not m.reachable[("h1", "h3")]
    assert m.summary_line == "*** Results: 60% dropped (8/20 received)"


def test_forwarding_off_blocks_only_cross_subnet():
    s = run(build_topology(2, 2), "sysctl -w net.ipv4.ip_forward=0")
    m = pingall(s)
    assert m.reachable[("h1", "r0")]  # local delivery needs no forwarding
    assert not m.reachable[("h1", "h3")]


def test_icmp_filter_blocks_pings():
    s = run(build_topology(2, 2), "iptables -A FORWARD -p icmp -d 192.168.2.0/24 -j DROP")
    m = pingall(s)
    assert not m.reachable[("h1", "h3")]
    assert not m.reachable[("h3", "h1")]  # the reply direction is filtered too


def test_small_mtu_counts_as_link_failure():
    s = run(build_topology(2, 2), "ip link set r0-eth1 mtu 100")
    assert pingall(s).summary_line == "*** Results: 60% dropped (8/20 received)"


def test_wrong_mask_invalidates_interface():
    s = run(build_topology(2, 2), "ip addr replace 192.168.1.1/16 dev r0-eth1")
    m = pingall(s)
    assert not m.reachable[("h1", "r0")]


def test_blackhole_gateway_breaks_routing():
    s = run(build_topology(2, 2), "ip route replace 192.168.2.0/24 via 192.168.1.250 dev r0-eth2")
    m = pingall(s)
    assert not m.reachable[("h1", "h3")]
    assert not m.reachable[("r0", "h3")]
    # h3 -> r0 delivers, but the echo reply follows the blackholed route
    assert not m.reachable[("h3", "r0")]
    assert m.reachable[("h1", "r0")]  # the other subnet is untouched


def test_metric_competition_prefers_lower_metric():
    s = run(build_topology(2, 2),
            "ip route replace 192.168.2.0/24 dev r0-eth1 metric 50",
            "ip route add 192.168.2.0/24 dev r0-eth2 metric 9999")
    assert not pingall(s).reachable[("h1", "h3")]


def test_excessive_delay_fails_pairs():
    s = run(build_topology(2, 2), "tc qdisc add dev r0-eth1 root netem delay 20000ms")
    m = pingall(s)
    assert not m.reachable[("h1", "h3")]
    assert not m.reachable[("h1", "r0")]
    assert m.reachable[("h3", "r0")]


def test_moderate_delay_is_slow_but_reachable():
    half = DEFAULT_DELAY_CEILING_MS // 2
    s = run(build_topology(3, 2), f"tc qdisc add dev r0-eth1 root netem delay {half}ms",
            f"tc qdisc add dev r0-eth2 root netem delay {DEFAULT_DELAY_CEILING_MS - half}ms")
    assert solved(pingall(s))  # the delays sum to the ceiling
    # one millisecond more fails every pair that crosses a delayed interface, and no other
    m = pingall(run(s, "tc qdisc del dev r0-eth2 root",
                    f"tc qdisc add dev r0-eth2 root netem delay "
                    f"{DEFAULT_DELAY_CEILING_MS - half + 1}ms"))
    subnet = {host.name: host.subnet for host in s.hosts.values()}  # the router has none
    for (a, b), ok in m.reachable.items():
        crosses = subnet.get(a) != subnet.get(b) and {subnet.get(a), subnet.get(b)} & {1, 2}
        assert ok == (not crosses), (a, b)
    assert not m.reachable[("h1", "r0")] and m.reachable[("h5", "r0")]


def test_render_grid_shape():
    m = pingall(run(build_topology(2, 2), "ifconfig r0-eth1 down"))
    lines = m.render().splitlines()
    assert lines[0].startswith("*** ")
    assert lines[1].startswith("h1 -> ")
    assert lines[-1] == m.summary_line
    assert "X" in lines[1]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=4))
def test_pingall_symmetry_and_bounds(num_switches, hosts):
    m = pingall(build_topology(num_switches, hosts))
    assert m.received == m.total
    # ping reachability is symmetric by construction (request+reply)
    for (a, b), ok in m.reachable.items():
        assert m.reachable[(b, a)] == ok


@pytest.mark.parametrize("level,seed", [(1, 0), (2, 1), (3, 5), (2, 10)])
def test_delivery_is_computed_per_class_not_per_host(monkeypatch, level, seed):
    """With no prefix longer than /24, a subnet's hosts form one class, and the routing
    table is consulted once per class; a host route splits its host from the class."""
    state = rebuild_states(generate_routing_query(level, seed)[1])[1]
    prefixes = [r.dest for r in state.routes] + [p for f in state.filter_rules
                                                 for p in (f.src, f.dst) if p]
    assert all(prefix_len(p) <= 24 for p in prefixes)  # no cut
    lookups = []
    route_delivers = routing_pingall._route_delivers
    monkeypatch.setattr(routing_pingall, "_route_delivers",
                        lambda *args: lookups.append(args) or route_delivers(*args))
    before = pingall(state)
    assert len(lookups) <= state.num_switches < len(state.hosts)

    router = state.router_name
    host = next(h for h in state.hosts.values() if before.reachable[(router, h.name)])
    dev = state.iface_name(host.subnet)
    split = exec_command(state, router,
                         f"ip route replace {host.ip}/32 via 192.168.{host.subnet}.250 dev {dev}")
    assert split.kind == "write", split.output
    after = pingall(split.state)
    assert after == ref_pingall(split.state)
    assert not after.reachable[(router, host.name)]  # the host route is a blackhole
