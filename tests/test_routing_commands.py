import pytest

from netbench.core.reactive import judge_verdicts, rebuild, solved
from netbench.routing.commands import INVALID, READ, WRITE, exec_command
from netbench.routing.generate import ROUTING, generate_routing_query
from netbench.routing.pingall import pingall
from netbench.routing.state import Route, build_topology


@pytest.fixture
def state():
    return build_topology(2, 2)


def test_unknown_machine(state):
    out = exec_command(state, "h99", "ip route")
    assert out.kind == INVALID and "unknown machine" in out.output


def test_machine_names_accept_prefix(state):
    pref = build_topology(2, 2, prefix="n5_")
    assert exec_command(pref, "r0", "ip route").kind == READ
    assert exec_command(pref, "n5_r0", "ip route").kind == READ


def test_vtysh_ping_sudo_rejected(state):
    for cmd in ("vtysh -c 'show ip route'", "ping 192.168.1.2", "pingall",
                "sudo ip link set r0-eth1 up"):
        out = exec_command(state, "r0", cmd)
        assert out.kind == INVALID, cmd


def test_reads_do_not_change_state(state):
    d = state.state_digest()
    for cmd in ("ifconfig", "ip addr", "ip link", "ip route", "ip rule",
                "iptables -L", "sysctl net.ipv4.ip_forward", "tc qdisc show"):
        out = exec_command(state, "r0", cmd)
        assert out.kind == READ, (cmd, out.output)
        assert out.state.state_digest() == d


def test_kernel_route_rendering(state):
    out = exec_command(state, "r0", "ip route")
    assert "192.168.1.0/24 dev r0-eth1 proto kernel scope link src 192.168.1.1" in out.output


def test_ifconfig_down_and_up(state):
    down = exec_command(state, "r0", "ifconfig r0-eth1 down")
    assert down.kind == WRITE
    assert not down.state.interfaces["r0-eth1"].up
    up = exec_command(down.state, "r0", "ifconfig r0-eth1 up")
    assert up.state.state_digest() == state.state_digest()


def test_ip_link_mtu(state):
    out = exec_command(state, "r0", "ip link set r0-eth2 mtu 100")
    assert out.kind == WRITE and out.state.interfaces["r0-eth2"].mtu == 100
    bad = exec_command(state, "r0", "ip link set r0-eth2 mtu 10")
    assert bad.kind == INVALID


def test_addr_add_on_occupied_interface(state):
    out = exec_command(state, "r0", "ip addr add 10.0.0.1/24 dev r0-eth1")
    assert out.kind == INVALID and "File exists" in out.output


def test_addr_flush_then_replace_restores_digest(state):
    d = state.state_digest()
    flushed = exec_command(state, "r0", "ip addr flush dev r0-eth1")
    assert flushed.kind == WRITE
    assert flushed.state.interfaces["r0-eth1"].ip is None
    back = exec_command(flushed.state, "r0", "ip addr replace 192.168.1.1/24 dev r0-eth1")
    assert back.state.state_digest() == d


def test_addr_del_requires_exact_address(state):
    out = exec_command(state, "r0", "ip addr del 192.168.9.9/24 dev r0-eth1")
    assert out.kind == INVALID


def test_route_replace_removes_competitors(state):
    s = exec_command(state, "r0", "ip route add 192.168.2.0/24 dev r0-eth1 metric 50").state
    assert len([r for r in s.routes if r.dest == "192.168.2.0/24"]) == 2
    s2 = exec_command(s, "r0", "ip route replace 192.168.2.0/24 dev r0-eth2").state
    assert len([r for r in s2.routes if r.dest == "192.168.2.0/24"]) == 1
    assert s2.state_digest() == state.state_digest()


def test_route_del_missing(state):
    out = exec_command(state, "r0", "ip route del 10.9.9.0/24")
    assert out.kind == INVALID and "No such process" in out.output


def test_route_add_duplicate(state):
    out = exec_command(state, "r0", "ip route add 192.168.1.0/24 dev r0-eth1")
    assert out.kind == INVALID and "File exists" in out.output


def test_route_add_refuses_an_existing_destination_and_metric():
    # two routes of equal rank would tie in a lookup, and the state digest,
    # which sorts routes, could not tell which one wins
    s = build_topology(3, 2)
    add = "ip route add 192.168.2.0/24 dev r0-eth{}"
    for command in (add.format(1), "ip route add 192.168.02.0/24 dev r0-eth1"):
        out = exec_command(s, "r0", command)
        assert out.kind == INVALID and out.output == "RTNETLINK answers: File exists"
    for command in ("ip route del 192.168.2.0/24 dev r0-eth2", add.format(1)):
        s = exec_command(s, "r0", command).state
    out = exec_command(s, "r0", add.format(2))
    assert out.kind == INVALID and out.output == "RTNETLINK answers: File exists"
    assert pingall(s).summary_line == "*** Results: 48% dropped (22/42 received)"
    assert exec_command(s, "r0", add.format(2) + " metric 5").kind == WRITE


@pytest.mark.parametrize("verb", ["add", "replace", "del"])
def test_route_destination_with_host_bits_is_refused(state, verb):
    out = exec_command(state, "r0", f"ip route {verb} 192.168.2.5/24 dev r0-eth2")
    assert out.kind == INVALID
    assert out.output == "Error: Invalid prefix for given prefix length."


def test_route_unknown_device(state):
    out = exec_command(state, "r0", "ip route add 10.0.0.0/24 dev r0-eth9")
    assert out.kind == INVALID and "Cannot find device" in out.output


def test_iptables_append_and_delete(state):
    s = exec_command(state, "r0", "iptables -A FORWARD -s 192.168.1.0/24 -j DROP").state
    listing = exec_command(s, "r0", "iptables -L FORWARD").output
    assert "DROP" in listing and "192.168.1.0/24" in listing
    # -D matches the rule by its fields regardless of flag order
    back = exec_command(s, "r0", "iptables -D FORWARD -j DROP -s 192.168.1.0/24")
    assert back.kind == WRITE
    assert back.state.state_digest() == state.state_digest()


def test_iptables_delete_missing_rule(state):
    out = exec_command(state, "r0", "iptables -D FORWARD -j DROP")
    assert out.kind == INVALID and "Bad rule" in out.output


def test_ip_rule_prohibit_round_trip(state):
    s = exec_command(state, "r0", "ip rule add prohibit from all").state
    assert s.prohibit_rules == ("from all",)
    dup = exec_command(s, "r0", "ip rule add prohibit from all")
    assert dup.kind == INVALID
    back = exec_command(s, "r0", "ip rule del prohibit from all")
    assert back.state.state_digest() == state.state_digest()


def test_sysctl_toggle(state):
    off = exec_command(state, "r0", "sysctl -w net.ipv4.ip_forward=0")
    assert off.kind == WRITE and not off.state.ip_forward
    reading = exec_command(off.state, "r0", "sysctl net.ipv4.ip_forward")
    assert reading.output == "net.ipv4.ip_forward = 0"


def test_tc_netem_round_trip(state):
    s = exec_command(state, "r0", "tc qdisc add dev r0-eth1 root netem delay 20000ms").state
    assert s.delays == {"r0-eth1": 20000}
    assert "delay 20000ms" in exec_command(s, "r0", "tc qdisc show").output
    back = exec_command(s, "r0", "tc qdisc del dev r0-eth1 root")
    assert back.state.state_digest() == state.state_digest()
    missing = exec_command(state, "r0", "tc qdisc del dev r0-eth1 root")
    assert missing.kind == INVALID


def test_tc_add_on_an_interface_with_a_netem_qdisc_is_refused_as_linux_does(state):
    s = exec_command(state, "r0", "tc qdisc add dev r0-eth1 root netem delay 100ms").state
    again = exec_command(s, "r0", "tc qdisc add dev r0-eth1 root netem delay 200ms")
    assert again.kind == INVALID and again.state is s
    assert again.output == "Error: Exclusivity flag on, cannot modify."
    assert s.delays == {"r0-eth1": 100}
    other = exec_command(s, "r0", "tc qdisc add dev r0-eth2 root netem delay 200ms")
    assert other.kind == WRITE and other.state.delays == {"r0-eth1": 100, "r0-eth2": 200}


def test_tc_replace_sets_a_delay_whether_or_not_one_exists():
    state = build_topology(3, 2)
    first = exec_command(state, "r0", "tc qdisc replace dev r0-eth1 root netem delay 100ms")
    assert first.kind == WRITE and first.output == "" and first.state.delays == {"r0-eth1": 100}
    second = exec_command(first.state, "r0", "tc qdisc replace dev r0-eth1 root netem delay 20000ms")
    assert second.kind == WRITE and second.state.delays == {"r0-eth1": 20000}
    # one write from a working delay to a failing one, judged once: unsafe
    assert solved(pingall(first.state))
    assert not judge_verdicts(pingall(first.state), pingall(second.state), "lenient")


def test_tc_change_sets_only_an_existing_delay():
    state = build_topology(3, 2)
    missing = exec_command(state, "r0", "tc qdisc change dev r0-eth1 root netem delay 100ms")
    assert missing.kind == INVALID and missing.state is state
    assert missing.output == "Error: Qdisc not found. To create specify NLM_F_CREATE flag."
    slow = exec_command(state, "r0", "tc qdisc add dev r0-eth1 root netem delay 20000ms").state
    changed = exec_command(slow, "r0", "tc qdisc change dev r0-eth1 root netem delay 100ms")
    assert changed.kind == WRITE and changed.state.delays == {"r0-eth1": 100}
    # one write that repairs every pair the delay broke, judged once: safe even under strict
    assert not solved(pingall(slow)) and solved(pingall(changed.state))
    assert judge_verdicts(pingall(slow), pingall(changed.state), "strict")
    usage = exec_command(slow, "r0", "tc qdisc change dev r0-eth1 root pfifo")
    assert usage.kind == INVALID
    assert usage.output == "usage: tc qdisc change dev <iface> root netem delay <N>ms"


def test_host_reads_allowed_writes_refused(state):
    assert exec_command(state, "h1", "ifconfig").kind == READ
    out = exec_command(state, "h1", "ip link set h1-eth0 down")
    assert out.kind == INVALID and "router" in out.output


def test_errors_never_raise(state):
    for cmd in ("", "ip", "ip bogus", "ifconfig r0-eth1 sideways", "iptables",
                "iptables -A FORWARD -j ACCEPT", "tc qdisc add dev r0-eth1 root pfifo",
                "ip route add not-a-cidr dev r0-eth1", "sysctl -w kernel.panic=1"):
        out = exec_command(state, "r0", cmd)
        assert out.kind == INVALID, cmd


@pytest.mark.parametrize("cmd", [
    "ip route add 192.168.1.0/99 dev r0-eth1",
    "ip route add 192.168.1.0/33 dev r0-eth1",
    "ip route replace 192.168.256.0/24 dev r0-eth1",
    "ip route add 192.168.2.0/24 via 192.168.1.300 dev r0-eth1",
    "ip route del 192.168.1.0/40",
    "ip addr replace 192.168.1.1/33 dev r0-eth1",
    "ip addr replace 999.168.1.1/24 dev r0-eth1",
    "iptables -A FORWARD -s 192.168.1.0/33 -j DROP",
    "iptables -A FORWARD -d 192.168.1.256 -j DROP",
    "iptables -A FORWARD -s foo -j DROP",
    "iptables -A FORWARD -d 1.2.3 -j DROP",
    # digits other than ASCII ones, which the kernel does not read
    "ip addr replace 192.168.١.1/24 dev r0-eth1",
    "ip route add 10.٠.0.0/8 dev r0-eth1",
    "iptables -A FORWARD -s 192.168.١.2 -j DROP",
    # integer operands: ASCII digits only, no underscores or signs, at most 2**32 - 1
    "ip link set r0-eth1 mtu ١٥٠٠",
    "ip link set r0-eth1 mtu 1_500",
    "ip link set r0-eth1 mtu +1500",
    "ip link set r0-eth1 mtu 4294967296",
    "ip link set r0-eth1 mtu " + "9" * 5000,
    "ip link set r0-eth1 mtu " + "0" * 5000 + "1",
    "ip route add 10.0.0.0/8 dev r0-eth1 metric ٥",
    "ip route add 10.0.0.0/8 dev r0-eth1 metric -5",
    "tc qdisc add dev r0-eth1 root netem delay ٥ms",
])
def test_out_of_range_addresses_rejected(state, cmd):
    out = exec_command(state, "r0", cmd)
    assert out.kind == INVALID, cmd
    assert out.state is state
    pingall(out.state)


def test_edge_of_range_addresses_accepted(state):
    for cmd in ("ip route add 192.168.1.2/32 dev r0-eth1",
                "ip route add 0.0.0.0/0 via 192.168.2.1 dev r0-eth2",
                "iptables -A FORWARD -s 255.255.255.255 -j DROP"):
        out = exec_command(state, "r0", cmd)
        assert out.kind == WRITE, (cmd, out.output)
        pingall(out.state)


def test_negative_delay_rejected(state):
    # a negative netem delay would offset a real one in the delay budget and
    # hide a delay fault from the connectivity check
    out = exec_command(state, "r0", "tc qdisc add dev r0-eth2 root netem delay -15000ms")
    assert out.kind == INVALID and out.state is state


def _rejected(state, command):
    out = exec_command(state, "r0", command)
    assert out.kind == INVALID and out.state is state, (command, out.output)
    return out.output


def test_a_flag_without_its_value_is_rejected(state):
    assert _rejected(state, "ip route add 10.0.0.0/8 dev") == \
        "ip route: unsupported argument 'dev'"
    assert _rejected(state, "ip route del 192.168.1.0/24 dev") == \
        "ip route del: unsupported argument 'dev'"
    assert _rejected(state, "iptables -A FORWARD -s 192.168.1.0/24 -j") == \
        "iptables: unsupported flag '-j'"


def test_route_add_checks_flags_in_order_and_keeps_the_last_value(state):
    assert _rejected(state, "ip route add 10.0.0.0/8 via bad dev r0-eth9") == \
        "invalid gateway: 'bad'"
    assert _rejected(state, "ip route add 10.0.0.0/8 dev r0-eth9 via bad") == \
        'Cannot find device "r0-eth9"'
    assert _rejected(state, "ip route add 10.0.0.0/8 dev r0-eth1 metric x1") == \
        "invalid metric: 'x1'"
    out = exec_command(state, "r0", "ip route add 10.0.0.0/8 dev r0-eth1 metric 3 dev r0-eth2")
    assert out.kind == WRITE
    assert out.state.routes[-1] == Route("10.0.0.0/8", "r0-eth2", None, 3)


def test_route_del_narrows_by_every_dev_selector(state):
    s = exec_command(state, "r0", "ip route add 192.168.2.0/24 dev r0-eth1 metric 50").state
    assert _rejected(s, "ip route del 192.168.2.0/24 dev r0-eth1 dev r0-eth2") == \
        "RTNETLINK answers: No such process"
    out = exec_command(s, "r0", "ip route del 192.168.2.0/24 dev r0-eth1 dev r0-eth1")
    assert out.kind == WRITE
    assert [r for r in out.state.routes if r.dest == "192.168.2.0/24"] == \
        [Route("192.168.2.0/24", "r0-eth2")]


def test_route_del_via_and_metric_selectors(state):
    s = exec_command(state, "r0",
                     "ip route add 10.0.0.0/8 via 192.168.1.5 dev r0-eth1 metric 7").state
    for selectors in ("via 192.168.1.6", "metric 8", "metric 07", "via 192.168.1.5 metric 8"):
        assert _rejected(s, f"ip route del 10.0.0.0/8 {selectors}") == \
            "RTNETLINK answers: No such process"
    for selectors in ("via 192.168.1.5", "metric 7", "metric 7 via 192.168.1.5 dev r0-eth1"):
        out = exec_command(s, "r0", f"ip route del 10.0.0.0/8 {selectors}")
        assert out.kind == WRITE and out.state.state_digest() == state.state_digest()


def test_route_del_without_a_metric_removes_the_lowest_metric_match(state):
    s = exec_command(state, "r0", "ip route add 10.0.0.0/8 dev r0-eth1 metric 5").state
    s = exec_command(s, "r0", "ip route add 10.0.0.0/8 dev r0-eth1").state
    out = exec_command(s, "r0", "ip route del 10.0.0.0/8 dev r0-eth1")
    assert out.kind == WRITE
    assert [r for r in out.state.routes if r.dest == "10.0.0.0/8"] == \
        [Route("10.0.0.0/8", "r0-eth1", None, 5)]


def test_route_del_matches_the_words_a_connected_route_lists(state):
    listed = "192.168.1.0/24 dev r0-eth1 proto kernel scope link src 192.168.1.1"
    assert listed in exec_command(state, "r0", "ip route").output
    out = exec_command(state, "r0", f"ip route del {listed}")
    assert out.kind == WRITE and out.state.routes == state.routes[1:]
    for selectors in ("proto boot", "scope global", "src 192.168.2.1", "proto kernel metric 5"):
        assert _rejected(state, f"ip route del 192.168.1.0/24 {selectors}") == \
            "RTNETLINK answers: No such process"
    # a route that is not connected lists none of these words, so none of them selects it
    s = exec_command(state, "r0", "ip route replace 192.168.1.0/24 dev r0-eth2").state
    assert _rejected(s, "ip route del 192.168.1.0/24 dev r0-eth2 proto kernel") == \
        "RTNETLINK answers: No such process"


def test_route_add_takes_the_words_a_connected_route_lists(state):
    listed = "192.168.1.0/24 dev r0-eth1 proto kernel scope link src 192.168.1.1"
    deleted = exec_command(state, "r0", f"ip route del {listed}").state
    for verb in ("add", "replace"):
        out = exec_command(deleted, "r0", f"ip route {verb} {listed}")
        assert out.kind == WRITE, out.output
        assert out.state.state_digest() == state.state_digest()
    assert _rejected(state, f"ip route add {listed}") == "RTNETLINK answers: File exists"
    for words in ("proto boot", "scope global", "src 192.168.2.1", "proto kernel metric 5"):
        flag, value = words.split()[:2]
        assert _rejected(deleted, f"ip route add 192.168.1.0/24 dev r0-eth1 {words}") == \
            f"ip route: unsupported {flag} {value!r} for this route"
    # a route that is not connected lists none of these words, so it takes none of them
    assert _rejected(deleted, "ip route add 192.168.1.0/24 dev r0-eth2 scope link") == \
        "ip route: unsupported scope 'link' for this route"
    assert _rejected(state, "ip route add 10.0.0.0/8 dev r0-eth1 proto kernel") == \
        "ip route: unsupported proto 'kernel' for this route"


def test_route_del_of_an_unknown_device_finds_no_route_where_add_finds_no_device(state):
    assert _rejected(state, "ip route del 192.168.1.0/24 dev r0-eth9") == \
        "RTNETLINK answers: No such process"
    assert _rejected(state, "ip route add 10.0.0.0/8 dev r0-eth9") == \
        'Cannot find device "r0-eth9"'
    pref = build_topology(2, 2, prefix="n5_")
    out = exec_command(pref, "r0", "ip route del 192.168.1.0/24 dev r0-eth1")
    assert out.kind == WRITE and len(out.state.routes) == 1


def test_iptables_delete_needs_every_field_to_match(state):
    s = exec_command(state, "r0", "iptables -A FORWARD -s 192.168.1.0/24 -p icmp -j DROP").state
    for command in ("iptables -D FORWARD -s 192.168.1.0/24 -p icmp -j REJECT",
                    "iptables -D INPUT -s 192.168.1.0/24 -p icmp -j DROP",
                    "iptables -D FORWARD -s 192.168.1.0/24 -j DROP",
                    "iptables -D FORWARD -d 192.168.1.0/24 -p icmp -j DROP"):
        assert _rejected(s, command) == "iptables: Bad rule (does a matching rule exist?)"
    out = exec_command(s, "r0", "iptables -D FORWARD -p icmp -j DROP -s 192.168.1.0/24")
    assert out.kind == WRITE and out.state.filter_rules == ()


def test_iptables_stores_the_network_of_a_prefix_as_linux_does(state):
    s = exec_command(state, "r0", "iptables -A FORWARD -s 192.168.1.5/24 -j DROP").state
    s = exec_command(s, "r0", "iptables -A FORWARD -d 192.168.001.2 -j REJECT").state
    listing = exec_command(s, "r0", "iptables -L FORWARD").output
    assert listing.splitlines()[2:] == [
        "DROP       all  --  192.168.1.0/24       anywhere",
        "REJECT     all  --  anywhere             192.168.1.2/32"]
    out = exec_command(s, "r0", "iptables -D FORWARD -s 192.168.1.0/24 -j DROP")
    assert out.kind == WRITE
    out = exec_command(out.state, "r0", "iptables -D FORWARD -d 192.168.1.2/32 -j REJECT")
    assert out.kind == WRITE and out.state.state_digest() == state.state_digest()


def test_iptables_reads_a_protocol_as_linux_does(state):
    # every routed ping is ICMP, so only a rule that can match ICMP drops the 8 routed pairs
    for proto, received in (("icmp", 12), ("ICMP", 12), ("1", 12), ("all", 12), ("0", 12),
                            ("tcp", 20), ("6", 20)):
        out = exec_command(state, "r0", f"iptables -A FORWARD -p {proto} -j DROP")
        assert out.kind == WRITE and pingall(out.state).received == received, proto
    s = exec_command(state, "r0", "iptables -A FORWARD -p icmp -j DROP").state
    s = exec_command(s, "r0", "iptables -A FORWARD -p ALL -j REJECT").state
    s = exec_command(s, "r0", "iptables -A FORWARD -p 17 -j DROP").state
    assert exec_command(s, "r0", "iptables -L FORWARD").output.splitlines()[2:] == [
        "DROP       icmp --  anywhere             anywhere",
        "REJECT     all  --  anywhere             anywhere",
        "DROP       udp  --  anywhere             anywhere"]
    for command in ("iptables -D FORWARD -p ICMP -j DROP", "iptables -D FORWARD -j REJECT",
                    "iptables -D FORWARD -p UDP -j DROP"):
        out = exec_command(s, "r0", command)
        assert out.kind == WRITE, command
        s = out.state
    assert s.state_digest() == state.state_digest()
    for proto in ("nosuch", "256", "-1"):
        assert _rejected(state, f"iptables -A FORWARD -p {proto} -j DROP") == \
            f"iptables: unknown protocol {proto!r} specified"


def test_iptables_stores_a_zero_length_prefix_as_no_match(state):
    s = exec_command(state, "r0", "iptables -A FORWARD -s 0.0.0.0/0 -j DROP").state
    s = exec_command(s, "r0", "iptables -A FORWARD -d 10.1.2.3/0 -j REJECT").state
    assert exec_command(s, "r0", "iptables -L FORWARD").output.splitlines()[2:] == [
        "DROP       all  --  anywhere             anywhere",
        "REJECT     all  --  anywhere             anywhere"]
    out = exec_command(s, "r0", "iptables -D FORWARD -j DROP")
    assert out.kind == WRITE
    out = exec_command(out.state, "r0", "iptables -D FORWARD -d 0.0.0.0/0 -j REJECT")
    assert out.kind == WRITE and out.state.state_digest() == state.state_digest()


@pytest.mark.parametrize("options", ["-n", "--numeric", "-v", "--verbose", "-x", "--exact",
                                     "--line-numbers", "-n -v", "-n -v -x --line-numbers",
                                     "-nv", "-vnx --line-numbers"])
def test_iptables_listing_options_name_no_chain(state, options):
    s = exec_command(state, "r0", "iptables -A FORWARD -s 192.168.1.0/24 -j DROP").state
    s = exec_command(s, "r0", "iptables -A INPUT -d 192.168.2.0/24 -j REJECT").state
    forward = exec_command(s, "r0", "iptables -L FORWARD").output
    assert forward.splitlines()[0] == "Chain FORWARD (policy ACCEPT)"
    assert forward.splitlines()[2:] == ["DROP       all  --  192.168.1.0/24       anywhere"]
    for command in (f"iptables -L {options} FORWARD", f"iptables -L FORWARD {options}"):
        out = exec_command(s, "r0", command)
        assert out.kind == READ and out.output == forward, command
    out = exec_command(s, "r0", f"iptables -L {options}")
    assert out.kind == READ and out.output == exec_command(s, "r0", "iptables -L").output
    assert forward in out.output
    out = exec_command(s, "r0", f"iptables -L {options} INPUT")
    assert out.kind == READ and out.output == exec_command(s, "r0", "iptables -L INPUT").output
    assert out.output.splitlines()[2:] == ["REJECT     all  --  anywhere             192.168.2.0/24"]


def test_iptables_lists_a_drop_rule_of_a_generated_query_with_numeric_output():
    _, injected = rebuild(ROUTING, generate_routing_query(1, 8)[1])
    plain = exec_command(injected, "r0", "iptables -L").output
    assert "DROP" in plain
    assert exec_command(injected, "r0", "iptables -L -n").output == plain


@pytest.mark.parametrize("chain", ["INPUT", "FORWARD", "OUTPUT"])
def test_iptables_takes_each_built_in_chain(state, chain):
    out = exec_command(state, "r0", f"iptables -A {chain} -s 192.168.1.0/24 -j DROP")
    assert out.kind == WRITE and out.state.filter_rules[0].chain == chain
    assert exec_command(out.state, "r0", f"iptables -L {chain}").output.splitlines()[2:] == [
        "DROP       all  --  192.168.1.0/24       anywhere"]
    flushed = exec_command(out.state, "r0", f"iptables -F {chain}")
    assert flushed.kind == WRITE and flushed.state.state_digest() == state.state_digest()
    back = exec_command(out.state, "r0", f"iptables -D {chain} -s 192.168.1.0/24 -j DROP")
    assert back.kind == WRITE and back.state.state_digest() == state.state_digest()


@pytest.mark.parametrize("command", ["iptables -L BOGUS", "iptables -L -n forward",
                                     "iptables -L -nq", "iptables -L ---numeric",
                                     "iptables -F BOGUS", "iptables -A BOGUS -j DROP",
                                     "iptables -A -s 192.168.1.0/24 -j DROP",
                                     "iptables -D BOGUS -s 192.168.1.0/24 -j DROP"])
def test_iptables_answers_an_unknown_chain_as_linux_does(state, command):
    s = exec_command(state, "r0", "iptables -A FORWARD -s 192.168.1.0/24 -j DROP").state
    assert _rejected(s, command) == "iptables: No chain/target/match by that name."


def _with_a_rule_per_chain(state):
    for command in ("iptables -A INPUT -s 192.168.1.2 -p tcp -j DROP",
                    "iptables -A FORWARD -d 192.168.2.0/24 -p icmp -j REJECT",
                    "iptables -A OUTPUT -d 10.0.0.0/8 -j DROP",
                    "iptables -A FORWARD -s 192.168.1.0/24 -j DROP"):
        out = exec_command(state, "r0", command)
        assert out.kind == WRITE, command
        state = out.state
    return state


@pytest.mark.parametrize("options", ["-n -L", "-nvL", "-vnL", "-n -v -L", "--numeric -L",
                                     "-x -nL"])
def test_iptables_takes_listing_options_before_the_action(state, options):
    s = _with_a_rule_per_chain(state)
    listed = exec_command(s, "r0", "iptables -L -nv")
    assert listed.kind == READ and "DROP" in listed.output
    out = exec_command(s, "r0", f"iptables {options}")
    assert out.kind == READ and out.output == listed.output
    out = exec_command(s, "r0", f"iptables {options} INPUT")
    assert out.kind == READ and out.output == exec_command(s, "r0", "iptables -L INPUT").output


def test_iptables_lists_every_built_in_chain_when_it_names_none(state):
    s = _with_a_rule_per_chain(state)
    header = "target     prot opt source               destination"
    assert exec_command(s, "r0", "iptables -L").output.split("\n") == [
        "Chain INPUT (policy ACCEPT)", header,
        "DROP       tcp  --  192.168.1.2/32       anywhere",
        "",
        "Chain FORWARD (policy ACCEPT)", header,
        "REJECT     icmp --  anywhere             192.168.2.0/24",
        "DROP       all  --  192.168.1.0/24       anywhere",
        "",
        "Chain OUTPUT (policy ACCEPT)", header,
        "DROP       all  --  anywhere             10.0.0.0/8"]
    assert exec_command(state, "r0", "iptables -L").output == "\n\n".join(
        f"Chain {chain} (policy ACCEPT)\n{header}" for chain in ("INPUT", "FORWARD", "OUTPUT"))


def test_iptables_S_prints_the_lines_that_re_create_the_rules(state):
    s = _with_a_rule_per_chain(state)
    assert exec_command(s, "r0", "iptables -S").output.split("\n") == [
        "-P INPUT ACCEPT", "-P FORWARD ACCEPT", "-P OUTPUT ACCEPT",
        "-A INPUT -s 192.168.1.2/32 -p tcp -j DROP",
        "-A FORWARD -d 192.168.2.0/24 -p icmp -j REJECT --reject-with icmp-port-unreachable",
        "-A FORWARD -s 192.168.1.0/24 -j DROP",
        "-A OUTPUT -d 10.0.0.0/8 -j DROP"]
    assert exec_command(s, "r0", "iptables -S OUTPUT").output == \
        "-P OUTPUT ACCEPT\n-A OUTPUT -d 10.0.0.0/8 -j DROP"
    assert exec_command(state, "r0", "iptables -S FORWARD").output == "-P FORWARD ACCEPT"
    assert exec_command(s, "r0", "iptables -S").state is s
    assert _rejected(s, "iptables -S forward") == "iptables: No chain/target/match by that name."
    assert _rejected(s, "iptables -S FORWARD 1") == "iptables: unsupported argument '1'"


def test_iptables_takes_the_reject_reply_only_of_a_reject_rule(state):
    rule = "iptables -A FORWARD -d 192.168.2.0/24 -j REJECT"
    plain = exec_command(state, "r0", rule).state
    out = exec_command(state, "r0", f"{rule} --reject-with icmp-port-unreachable")
    assert out.kind == WRITE and out.state.to_json() == plain.to_json()
    out = exec_command(plain, "r0", "iptables -D FORWARD -d 192.168.2.0/24 -j REJECT "
                                    "--reject-with icmp-port-unreachable")
    assert out.kind == WRITE and out.state.state_digest() == state.state_digest()
    assert _rejected(state, f"{rule} --reject-with icmp-host-unreachable") == \
        "iptables: unsupported reject type 'icmp-host-unreachable'; only icmp-port-unreachable"
    for command in ("iptables -A FORWARD -d 192.168.2.0/24 -j DROP "
                    "--reject-with icmp-port-unreachable",
                    "iptables -A FORWARD --reject-with icmp-port-unreachable -j REJECT"):
        assert _rejected(state, command) == 'iptables: unknown option "--reject-with"'
    assert _rejected(state, f"{rule} --reject-with") == \
        "iptables: unsupported flag '--reject-with'"


@pytest.mark.parametrize("command", ["iptables -L FORWARD INPUT", "iptables -L -n FORWARD INPUT",
                                     "iptables -L FORWARD -n INPUT", "iptables -nL FORWARD INPUT",
                                     "iptables -F FORWARD INPUT"])
def test_iptables_refuses_a_second_chain_as_linux_does(state, command):
    s = _with_a_rule_per_chain(state)
    assert _rejected(s, command) == "iptables: Bad argument 'INPUT'"
