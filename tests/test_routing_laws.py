"""Laws the routing interpreter obeys, as a Linux router does, on the broken states of
generated queries."""

from hypothesis import HealthCheck, given, settings, strategies as st

from netbench.core.reactive import WRITE
from netbench.routing.commands import exec_command
from netbench.routing.generate import generate_routing_query, rebuild_states


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 3), st.integers(0, 2**32))
def test_each_listed_route_given_to_ip_route_del_removes_that_route(level, seed):
    """Re-entry: each line that ``ip route`` lists, given back to ``ip route del``, is a
    write that removes exactly the route the line lists, connected routes
    (``... proto kernel scope link src <ip>``) included."""
    _, truth = generate_routing_query(level, seed)
    state = rebuild_states(truth)[1]
    router = state.router_name
    lines = exec_command(state, router, "ip route").output.splitlines()
    assert len(lines) == len(state.routes)  # one line per route, in table order
    for i, line in enumerate(lines):
        deleted = exec_command(state, router, f"ip route del {line}")
        assert deleted.kind == WRITE, (line, deleted.output)
        assert deleted.state.routes == state.routes[:i] + state.routes[i + 1:], line


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 3), st.integers(0, 2**32))
def test_each_listed_route_deleted_then_added_back_restores_the_state(level, seed):
    """Re-entry: each line that ``ip route`` lists, on the healthy and on the broken state,
    given to ``ip route del`` and then to ``ip route add``, is a write each time, and the
    two leave the state with the digest it had, connected routes included."""
    _, truth = generate_routing_query(level, seed)
    for state in rebuild_states(truth):
        router, digest = state.router_name, state.state_digest()
        for line in exec_command(state, router, "ip route").output.splitlines():
            deleted = exec_command(state, router, f"ip route del {line}")
            added = exec_command(deleted.state, router, f"ip route add {line}")
            assert (deleted.kind, added.kind) == (WRITE, WRITE), (line, added.output)
            assert added.state.state_digest() == digest, line


def _states(truth):
    """The healthy and the injected state of ``truth``, and each state its stored repair
    passes through."""
    healthy, state = rebuild_states(truth)
    states = [healthy, state]
    for machine, command in truth.recovery:
        state = exec_command(state, machine, command).state
        states.append(state)
    return states


@st.composite
def inverse_pair(draw, state):
    """Two router commands, each a write, the second undoing the first on ``state``."""
    iface = draw(st.sampled_from(sorted(state.interfaces)))
    current = state.interfaces[iface]
    name = draw(st.sampled_from([iface, iface[len(state.prefix):]]))  # the prefix is optional
    kind = draw(st.sampled_from(["ifconfig", "link", "mtu", "netem", "iptables", "rule",
                                 "sysctl"]))
    flip = ("down", "up") if current.up else ("up", "down")
    if kind == "ifconfig":
        return f"ifconfig {name} {flip[0]}", f"ifconfig {name} {flip[1]}"
    if kind == "link":
        dev = draw(st.sampled_from(["", "dev "]))
        return f"ip link set {dev}{name} {flip[0]}", f"ip link set {dev}{name} {flip[1]}"
    if kind == "mtu":
        mtu = draw(st.integers(68, 9000))
        return f"ip link set {name} mtu {mtu}", f"ip link set {name} mtu {current.mtu}"
    if kind == "netem":
        add = f"tc qdisc add dev {name} root netem delay {{}}ms"
        if iface in state.delays:
            return f"tc qdisc del dev {name} root", add.format(state.delays[iface])
        return add.format(draw(st.integers(1, 20_000))), f"tc qdisc del dev {name} root"
    if kind == "iptables":
        k = draw(st.integers(1, state.num_switches))
        flags = " ".join(draw(st.lists(st.sampled_from([
            f"-s 192.168.{k}.0/24", f"-d 192.168.{k}.0/24", f"-d 192.168.{k}.2",
            "-p icmp", "-p tcp"]), max_size=2, unique=True)))
        rule = f"FORWARD {flags} -j {draw(st.sampled_from(['DROP', 'REJECT']))}"
        return f"iptables -A {rule}", f"iptables -D {rule}"
    if kind == "rule":
        verbs = ("del", "add") if "from all" in state.prohibit_rules else ("add", "del")
        return tuple(f"ip rule {verb} prohibit from all" for verb in verbs)
    values = (0, 1) if state.ip_forward else (1, 0)
    return tuple(f"sysctl -w net.ipv4.ip_forward={value}" for value in values)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), st.integers(1, 3), st.integers(0, 2**32))
def test_each_write_and_its_inverse_restore_the_state(data, level, seed):
    """Inverses: on the states a generated query passes through, an interface taken down
    and up (or up and down) by ``ifconfig`` or ``ip link``, an MTU set and set back, a
    netem delay added and deleted (or deleted and added back), an ``iptables`` rule
    appended and deleted, a prohibit rule added and deleted and forwarding flipped and
    flipped back are two writes that leave the state with the digest it had."""
    _, truth = generate_routing_query(level, seed)
    for state in _states(truth):
        router, digest = state.router_name, state.state_digest()
        first, second = data.draw(inverse_pair(state))
        written = exec_command(state, router, first)
        undone = exec_command(written.state, router, second)
        assert (written.kind, undone.kind) == (WRITE, WRITE), (first, second, undone.output)
        assert undone.state.state_digest() == digest, (first, second)


@st.composite
def rule_command(draw, state):
    """An ``iptables -A`` of a drawn rule in any built-in chain."""
    k = draw(st.integers(1, state.num_switches))
    chain = draw(st.sampled_from(["INPUT", "FORWARD", "OUTPUT"]))
    flags = draw(st.lists(st.sampled_from([f"-s 192.168.{k}.0/24", f"-d 192.168.{k}.2",
                                           "-d 10.0.0.0/8", "-p icmp", "-p 47"]), max_size=3))
    verdict = draw(st.sampled_from(["DROP", "REJECT"]))
    return " ".join(["iptables -A", chain, *flags, "-j", verdict])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), st.integers(1, 3), st.integers(0, 2**32))
def test_each_rule_iptables_S_prints_re_enters_through_D_and_A(data, level, seed):
    """Re-entry: on a state a generated query passes through, with rules of any chain
    appended, ``iptables -S`` prints each chain's policy and then each rule, chain by
    chain, as the ``-A`` line that re-creates it; each such line given to ``-D`` removes
    exactly that rule, and given to ``-A`` afterwards restores the digest."""
    _, truth = generate_routing_query(level, seed)
    state = data.draw(st.sampled_from(_states(truth)))
    router = state.router_name
    for command in data.draw(st.lists(rule_command(state), max_size=3)):
        written = exec_command(state, router, command)
        assert written.kind == WRITE, (command, written.output)
        state = written.state
    lines = exec_command(state, router, "iptables -S").output.splitlines()
    assert lines[:3] == ["-P INPUT ACCEPT", "-P FORWARD ACCEPT", "-P OUTPUT ACCEPT"]
    rules = [r for chain in ("INPUT", "FORWARD", "OUTPUT")
             for r in state.filter_rules if r.chain == chain]
    assert len(lines) == 3 + len(rules)
    digest = state.state_digest()
    for line, rule in zip(lines[3:], rules):
        assert line.startswith(f"-A {rule.chain} "), line
        deleted = exec_command(state, router, f"iptables -D {line[3:]}")
        assert deleted.kind == WRITE, (line, deleted.output)
        i = state.filter_rules.index(rule)
        assert deleted.state.filter_rules == state.filter_rules[:i] + state.filter_rules[i + 1:]
        added = exec_command(deleted.state, router, f"iptables {line}")
        assert added.kind == WRITE, (line, added.output)
        assert vars(added.state.filter_rules[-1]) == vars(rule), line
        assert added.state.state_digest() == digest, line
