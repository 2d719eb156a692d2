"""Differential tests of the verdict kernels, and how often episodes compute verdicts.

States are reached the way agents reach them: from a generated query's
healthy or injected state, through random commands of the app's own grammar (fault
injections and their inverses, delays, filters, gateway routes, policy
patches, applies and deletes). At every state the optimized kernels must
agree with the per-pair references in ``reference_kernels``.
"""

import dataclasses
import json
from collections.abc import Mapping

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from netbench.agents import make_agent
from netbench.agents.base import MSG_COMMAND, MSG_FINAL, AgentMessage
from netbench.core.episode import run_episode
from netbench.core.generate import generate_batch, make_environment
from netbench.core.reactive import WRITE, rebuild
from netbench.core.types import ActionSpec, BenchmarkConfig
from netbench.errors import MethodOutOfRange
from netbench.digest import digest
from netbench.k8spolicy import generate as k8s_generate
from netbench.evaluation.metrics import score_episode
from netbench.k8spolicy.connectivity import MismatchReport, _compiled, connectivity_check
from netbench.k8spolicy.env import K8sEnvironment
from netbench.k8spolicy.generate import K8S, generate_k8s_query
from netbench.k8spolicy.inject import TARGETS, build_mutation
from netbench.k8spolicy.kubectl import exec_kubectl
from netbench.k8spolicy.model import DEFAULT_DENY, SERVICE_PORTS, SERVICES, PolicyStore, \
    _fragment, cluster_digest, default_policies, flow_universe, policy_yaml
from netbench.k8spolicy.safety import judge_step_safety as k8s_judge
from netbench.routing import generate as routing_generate, pingall as routing_pingall
from netbench.routing.commands import exec_command
from netbench.routing.env import RoutingEnvironment
from netbench.routing.generate import ROUTING, generate_routing_query
from netbench.routing.inject import FAMILY_METHODS, build_fault, fault_action
from netbench.routing.pingall import PingMatrix, pingall
from netbench.routing.safety import judge_step_safety as routing_judge
from netbench.routing.state import build_topology
from reference_kernels import ref_cluster_digest, ref_connectivity_check, ref_pair_reachable, \
    ref_pingall

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def ref_judge(pre, post, total, rule):
    """The step judge as originally written, over good sets."""
    if pre - post:
        return False
    if rule == "strict" and len(pre) < total and len(post) <= len(pre):
        return False
    return True


# --- routing -----------------------------------------------------------------

@st.composite
def routing_command(draw, state, recovery):
    """One command of the routing grammar, aimed at one host and its subnet."""
    r = state.router_name
    subnets = st.integers(1, state.num_switches)
    host = draw(st.sampled_from(sorted(state.hosts.values(), key=lambda h: h.name)))
    k = host.subnet
    iface = state.iface_name(k)
    dev = draw(st.sampled_from([iface, state.iface_name(draw(subnets))]))
    cidr = draw(st.sampled_from([f"192.168.{k}.0/24", f"192.168.{k}.0/25",
                                 f"192.168.{k}.128/25", f"{host.ip}/32", f"{host.ip}/31",
                                 "192.168.0.0/16", "0.0.0.0/0", "10.0.0.0/8"]))
    kind = draw(st.sampled_from(["fault", "recovery", "link", "addr", "route", "route",
                                 "filter", "filter", "delay", "global", "global"]))
    if kind == "fault":
        family = draw(st.sampled_from(sorted(FAMILY_METHODS)))
        fault = build_fault(state, fault_action(
            family, draw(st.integers(1, FAMILY_METHODS[family])), k,
            draw(st.sampled_from([s for s in range(1, state.num_switches + 1) if s != k]))))
        return draw(st.sampled_from([*fault.forward, fault.inverse])).render()
    if kind == "recovery":
        return draw(st.sampled_from(recovery))
    if kind == "link":
        return r, draw(st.sampled_from([f"ifconfig {iface} down", f"ifconfig {iface} up",
                                        f"ip link set {iface} mtu 575",
                                        f"ip link set {iface} mtu 576"]))
    if kind == "addr":
        return r, (f"ip addr replace 192.168.{draw(subnets)}.{draw(st.sampled_from([1, 2]))}/"
                   f"{draw(st.sampled_from([24, 16]))} dev {iface}")
    if kind == "route":
        # own addresses chain gateway hops; .250 and host addresses blackhole
        gateway = draw(st.sampled_from([f"192.168.{k}.1", f"192.168.{draw(subnets)}.1",
                                        f"192.168.{k}.250", host.ip, None]))
        via = f" via {gateway}" if gateway else ""
        metric = draw(st.sampled_from(["", " metric 5", " metric 9999"]))
        verb = draw(st.sampled_from(["add", "replace", "del"]))
        return r, f"ip route {verb} {cidr}{via} dev {dev}{metric}"
    if kind == "filter":
        other = draw(st.sampled_from(sorted(h.ip for h in state.hosts.values())))
        match = "".join(f"-{flag} {draw(st.sampled_from([host.ip, cidr, other]))} "
                        for flag in draw(st.sampled_from(["s", "d", "sd", ""])))
        proto = draw(st.sampled_from(["", "-p icmp ", "-p tcp "]))
        chain = draw(st.sampled_from(["FORWARD", "FORWARD", "INPUT"]))
        verdict = draw(st.sampled_from(["DROP", "REJECT"]))
        return r, f"iptables -A {chain} {proto}{match}-j {verdict}"
    if kind == "delay":
        # delays of 6000 and 4000 ms sum to the ceiling and pass; 6000 + 6000 or 20000 exceed it
        ms = draw(st.sampled_from([1, 500, 4000, 6000, 20000]))
        return r, draw(st.sampled_from([f"tc qdisc add dev {iface} root netem delay {ms}ms",
                                        f"tc qdisc del dev {iface} root"]))
    return r, draw(st.sampled_from(["iptables -F", "ip rule add prohibit from all",
                                    "ip rule del prohibit from all",
                                    "sysctl -w net.ipv4.ip_forward=0",
                                    "sysctl -w net.ipv4.ip_forward=1"]))


@SETTINGS
@given(st.data(), st.integers(1, 3), st.integers(0, 2**32))
def test_pingall_matches_reference_on_reachable_states(data, level, seed):
    _, truth = generate_routing_query(level, seed)
    state = data.draw(st.sampled_from(rebuild(ROUTING, truth)))  # healthy or injected
    for _ in range(data.draw(st.integers(1, 8))):
        machine, command = data.draw(routing_command(state, truth.recovery))
        outcome = exec_command(state, machine, command)
        if outcome.kind == "write":
            before = pingall(state)
            after = pingall(outcome.state)
            for rule in ("strict", "lenient"):
                assert routing_judge(state, outcome.state, rule) == ref_judge(
                    before.good, after.good, before.total, rule)
            state = outcome.state
        assert pingall(state) == ref_pingall(state)


def per_pair_render(state) -> str:
    """The ping matrix as rendered pair by pair, from the reference's per-pair verdicts."""
    nodes = state.node_names()
    lines, received = ["*** Fast Ping: testing ping reachability"], 0
    for a in nodes:
        row = [b if ref_pair_reachable(state, a, b)[0] else "X" for b in nodes if b != a]
        received += sum(entry != "X" for entry in row)
        lines.append(f"{a} -> " + " ".join(row))
    total = len(nodes) * (len(nodes) - 1)
    lines.append(f"*** Results: {round(100 * (total - received) / total)}% dropped "
                 f"({received}/{total} received)")
    return "\n".join(lines)


@SETTINGS
@given(st.data(), st.integers(1, 3), st.integers(0, 2**32))
def test_spliced_digest_and_class_form_render_match_their_references(data, level, seed):
    _, truth = generate_routing_query(level, seed)
    states = [data.draw(st.sampled_from(rebuild(ROUTING, truth)))]
    for _ in range(data.draw(st.integers(1, 8))):
        state = states[-1]
        states.append(exec_command(state, *data.draw(routing_command(state, truth.recovery))).state)
    for state in states:
        assert state.state_digest() == digest(state.to_json())
        assert pingall(state).render() == per_pair_render(state)


@st.composite
def class_split_command(draw, state):
    """A write that splits hosts into classes: a per-host /32 filter on either side,
    overlapping prefixes, an ICMP rule, a /32 host route, a gateway chain or a delay."""
    r = state.router_name
    subnets = st.integers(1, state.num_switches)
    host = draw(st.sampled_from(sorted(state.hosts.values(), key=lambda h: h.name)))
    k = host.subnet
    prefix = draw(st.sampled_from([f"{host.ip}/32", f"{host.ip}", f"192.168.{k}.0/25",
                                   f"192.168.{k}.128/25", f"192.168.{k}.0/30", "192.168.0.0/16",
                                   f"192.168.{draw(subnets)}.0/24"]))
    kind = draw(st.sampled_from(["filter", "filter", "filter", "host route", "chain", "delay"]))
    if kind == "filter":
        other = draw(st.sampled_from([f"192.168.{draw(subnets)}.0/24", f"{host.ip}/31",
                                      "192.168.0.0/16"]))
        sides = draw(st.sampled_from([f"-s {prefix}", f"-d {prefix}",
                                      f"-s {prefix} -d {other}", f"-s {other} -d {prefix}"]))
        proto = draw(st.sampled_from(["", "-p icmp ", "-p tcp "]))
        verdict = draw(st.sampled_from(["DROP", "REJECT"]))
        return r, f"iptables -A FORWARD {proto}{sides} -j {verdict}"
    dev = state.iface_name(draw(st.sampled_from([k, draw(subnets)])))
    if kind == "host route":
        via = draw(st.sampled_from(["", f" via 192.168.{k}.250",
                                    f" via 192.168.{draw(subnets)}.1"]))
        return r, f"ip route replace {host.ip}/32{via} dev {dev}"
    if kind == "chain":
        # a hop to one of the router's own addresses is looked up again
        return r, f"ip route replace 192.168.{k}.0/24 via 192.168.{draw(subnets)}.1 dev {dev}"
    ms = draw(st.sampled_from([1, 400, 700, 4000, 6000, 20000]))
    return r, f"tc qdisc add dev {state.iface_name(k)} root netem delay {ms}ms"


@SETTINGS
@given(st.data(), st.integers(2, 4), st.integers(2, 4))
def test_pingall_matches_reference_when_hosts_split_into_classes(data, num_switches, hosts):
    state = build_topology(num_switches, hosts, prefix=data.draw(st.sampled_from(["", "n7_"])))
    for _ in range(data.draw(st.integers(1, 10))):
        outcome = exec_command(state, *data.draw(class_split_command(state)))
        if outcome.kind == "write":
            state = outcome.state
    assert pingall(state) == ref_pingall(state)


def test_pingall_judges_one_pair_per_pair_of_classes(monkeypatch):
    judged = []
    pair = routing_pingall._Facts.pair
    monkeypatch.setattr(routing_pingall._Facts, "pair",
                        lambda self, a, b: judged.append((a, b)) or pair(self, a, b))
    matrix = pingall(build_topology(4, 4))
    assert matrix.total == 272 and matrix.received == 272
    assert len(judged) <= (4 + 1) ** 2  # the four subnets and the router


@SETTINGS
@given(st.data(), st.integers(1, 3), st.integers(0, 2**32))
def test_a_write_shares_the_elements_it_leaves_and_keeps_its_parent(data, level, seed):
    _, truth = generate_routing_query(level, seed)
    state = data.draw(st.sampled_from(rebuild(ROUTING, truth)))
    for _ in range(data.draw(st.integers(1, 8))):
        parent = state.state_digest()
        outcome = exec_command(state, *data.draw(routing_command(state, truth.recovery)))
        if outcome.kind != "write":
            continue
        new = outcome.state
        assert new.topology is state.topology
        assert all(new.hosts[name] is host for name, host in state.hosts.items())
        for old, written in ((state.routes, new.routes), (state.filter_rules, new.filter_rules)):
            # a write adds at most one element; every other one is its parent's own object
            assert len([e for e in written if not any(e is o for o in old)]) <= 1
        assert state.state_digest() == parent
        state = new


def test_routing_state_elements_are_frozen():
    state = exec_command(build_topology(2, 2), "r0",
                         "iptables -A FORWARD -d 192.168.1.2 -j DROP").state
    for element, field in ((state.hosts["h1"], "ip"), (state.routes[0], "dest"),
                           (state.filter_rules[0], "dst"), (state.interfaces["r0-eth1"], "ip"),
                           (state, "routes"), (state, "ip_forward")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(element, field, "10.0.0.0/8")


# --- k8s ---------------------------------------------------------------------

_SELECTOR = st.one_of(st.just({}),
                      st.sampled_from([*SERVICES, "nosuch"]).map(
                          lambda s: {"matchLabels": {"app": s}}))
_PORT = st.sampled_from(sorted(set(SERVICE_PORTS.values())) + [1])


def _rules(peer_key):
    rule = st.fixed_dictionaries({}, optional={
        peer_key: st.lists(_SELECTOR.map(lambda sel: {"podSelector": sel}), max_size=3),
        "ports": st.lists(_PORT.map(lambda p: {"port": p, "protocol": "TCP"}), max_size=2),
    })
    return st.one_of(st.none(), st.lists(rule, max_size=2))


_SPEC = st.fixed_dictionaries({
    "podSelector": _SELECTOR,
    "policyTypes": st.sampled_from([["Ingress"], ["Egress"], ["Ingress", "Egress"], []]),
}, optional={"ingress": _rules("from"), "egress": _rules("to")})


@st.composite
def kubectl_command(draw, policies, recovery):
    """One kubectl command: a mutation or its inverse, or a random patch/apply/delete."""
    name = draw(st.sampled_from(sorted(policies) or ["extra"]))
    kind = draw(st.sampled_from(["mutation", "recovery", "patch", "patch", "apply", "delete"]))
    if kind == "mutation":
        family = draw(st.sampled_from(tuple(TARGETS)))
        try:
            mutation = build_mutation(ActionSpec(family, (
                draw(st.sampled_from(sorted(SERVICE_PORTS))),
                draw(st.sampled_from([*SERVICES, ""])))))
        except MethodOutOfRange:  # not a valid combination for this family
            return "kubectl get networkpolicies"
        return draw(st.sampled_from([*mutation.forward, mutation.inverse])).render()[1]
    if kind == "recovery":
        return draw(st.sampled_from([command for _, command in recovery]))
    if kind == "delete":
        return f"kubectl delete networkpolicy {name}"
    spec = draw(_SPEC)
    if kind == "patch":
        return f"kubectl patch networkpolicy {name} --type merge -p '{json.dumps({'spec': spec})}'"
    return "kubectl apply -f -\n" + yaml.safe_dump({
        "apiVersion": "networking.k8s.io/v1", "kind": "NetworkPolicy",
        "metadata": {"name": draw(st.sampled_from([name, "extra"]))}, "spec": spec})


@SETTINGS
@given(st.data(), st.integers(1, 3), st.integers(0, 2**32))
def test_connectivity_check_matches_reference_on_reachable_states(data, level, seed):
    _, truth = generate_k8s_query(level, seed)
    policies = data.draw(st.sampled_from(rebuild(K8S, truth)))  # baseline or broken
    for _ in range(data.draw(st.integers(1, 8))):
        outcome = exec_kubectl(policies, data.draw(kubectl_command(policies, truth.recovery)))
        if outcome.kind == "write":
            before = connectivity_check(policies)
            after = connectivity_check(outcome.state)
            for rule in ("strict", "lenient"):
                assert k8s_judge(policies, outcome.state, rule) == ref_judge(
                    before.good, after.good, len(flow_universe()), rule)
            policies = outcome.state
        assert connectivity_check(policies) == ref_connectivity_check(policies)


# a few services, so that drawn selectors, peers and ports meet on the same flows
_FEW = ("cartservice", "frontend", "loadgenerator", "redis-cart")
_FEW_PORTS = sorted({SERVICE_PORTS[s] for s in _FEW if s in SERVICE_PORTS})
# label values a pod's ``app: <service>`` label can and cannot equal
_LABEL_VALUE = st.one_of(st.sampled_from([*_FEW, "nosuch"]),
                         st.sampled_from([None, 1, 2.5, True, ["frontend"], {"app": "frontend"}]))
_OTHER_LABEL = st.sampled_from([None, "web", 0])
_WIDE_SELECTOR = st.one_of(st.just({}), st.one_of(
    st.just({}),
    st.fixed_dictionaries({"app": _LABEL_VALUE}, optional={"tier": _OTHER_LABEL}),
    st.fixed_dictionaries({"tier": _OTHER_LABEL}),
).map(lambda labels: {"matchLabels": labels}))
_WIDE_PEERS = st.one_of(st.sampled_from([[], [{}]]),
                        st.lists(_WIDE_SELECTOR.map(lambda sel: {"podSelector": sel}),
                                 min_size=1, max_size=3))
# a server port given as int, str or float, or a value no port equals
_PORT_VALUE = st.one_of(*(st.sampled_from(_FEW_PORTS).map(kind) for kind in (int, str, float)),
                        st.sampled_from([True, None, 1, [8080], "http"]))
_WIDE_PORTS = st.lists(st.one_of(st.just({"protocol": "TCP"}),
                                 _PORT_VALUE.map(lambda v: {"port": v})), max_size=2)


def _wide_rules(peer_key):
    rule = st.fixed_dictionaries({}, optional={peer_key: _WIDE_PEERS, "ports": _WIDE_PORTS})
    return st.one_of(st.lists(rule, min_size=1, max_size=3), st.sampled_from([None, []]))


_WIDE_SPEC = st.fixed_dictionaries({
    "policyTypes": st.sampled_from([["Ingress"], ["Egress"], ["Ingress", "Egress"], []]),
    "ingress": _wide_rules("from"),
    "egress": _wide_rules("to"),
}, optional={"podSelector": _WIDE_SELECTOR})


def _wide_writes(data, level, seed):
    """Yields (name, store) after each of a few writes through kubectl, each an apply or a
    merge patch with every selector, peer and port shape the interpreter accepts."""
    _, truth = generate_k8s_query(level, seed)
    policies = data.draw(st.sampled_from([*rebuild(K8S, truth), PolicyStore({})]))
    for _ in range(data.draw(st.integers(1, 6))):
        name = data.draw(st.sampled_from([*sorted(policies), "extra"]))
        spec = data.draw(_WIDE_SPEC)
        if name in policies and data.draw(st.booleans()):
            command = (f"kubectl patch networkpolicy {name} --type merge "
                       f"-p '{json.dumps({'spec': spec})}'")
        else:
            command = "kubectl apply -f -\n" + yaml.safe_dump({
                "apiVersion": "networking.k8s.io/v1", "kind": "NetworkPolicy",
                "metadata": {"name": name}, "spec": spec})
        outcome = exec_kubectl(policies, command)
        assert outcome.kind == "write", outcome.output
        policies = outcome.state
        yield name, policies


@settings(SETTINGS, max_examples=200)
@given(st.data(), st.integers(1, 3), st.integers(0, 2**32))
def test_connectivity_check_matches_reference_on_any_selector_peer_and_port_value(data, level,
                                                                                  seed):
    """Stores applied or patched through kubectl with every selector, peer and port shape
    the interpreter accepts: other label keys, non-string ``app`` values, empty
    ``matchLabels``, missing, empty and catch-all peers, and ports of any JSON type."""
    for name, policies in _wide_writes(data, level, seed):
        alone = PolicyStore({name: policies[name]})  # where no other policy hides what it allows
        assert connectivity_check(alone) == ref_connectivity_check(alone)
    assert connectivity_check(policies) == ref_connectivity_check(policies)


def _app(service):
    return {"matchLabels": {"app": service}}


# specs at the edges of the selector, peer and port shapes; each is stored alone on the baseline
_EDGE_SPECS = [
    # a non-server, which has no port, selected on each side
    {"podSelector": _app("loadgenerator"), "policyTypes": ["Ingress"],
     "ingress": [{"from": [{"podSelector": _app("frontend")}]}]},
    {"podSelector": _app("loadgenerator"), "policyTypes": ["Egress"],
     "egress": [{"to": [{"podSelector": _app("frontend")}], "ports": [{"port": 8080}]}]},
    # egress toward a non-server, an unknown service and a non-string app
    *({"podSelector": _app("frontend"), "policyTypes": ["Egress"],
       "egress": [{"to": [{"podSelector": _app(app)}]}]} for app in ("loadgenerator", "nosuch", 7)),
    # a selector with an extra label, which only None matches on these pods
    *({"podSelector": {"matchLabels": {"app": "cartservice", "tier": tier}},
       "policyTypes": ["Ingress", "Egress"], "ingress": [{}], "egress": [{}]}
      for tier in (None, "web")),
    # a rule without peers, on the port of another service
    {"podSelector": _app("frontend"), "policyTypes": ["Ingress", "Egress"],
     "ingress": [{"ports": [{"port": 7070}]}], "egress": [{"ports": [{"port": 7070}]}]},
    # both directions and no rules
    {"podSelector": _app("frontend"), "policyTypes": ["Ingress", "Egress"]},
]


def test_connectivity_check_matches_reference_on_edge_stores():
    """The empty store, the baseline less default-deny, and the baseline plus each edge
    policy alone: unselected servers, egress keyed by destination, peers and selectors that
    match no server, and policies that admit nothing."""
    baseline = default_policies()
    stores = [PolicyStore({}), baseline.without(DEFAULT_DENY)]
    stores += [baseline.written("edge", {"apiVersion": "networking.k8s.io/v1",
                                         "kind": "NetworkPolicy",
                                         "metadata": {"name": "edge"}, "spec": spec})
               for spec in _EDGE_SPECS]
    for store in stores:
        assert connectivity_check(store) == ref_connectivity_check(store)


@SETTINGS
@given(st.data(), st.integers(1, 3), st.integers(0, 2**32))
def test_policy_yaml_is_the_direct_dump_of_any_written_policy(data, level, seed):
    """``policy_yaml`` dumps each distinct policy once per process, from its JSON text; the
    YAML must be what dumping the stored policy itself gives, with no node shared: a policy is
    stored as written, so it holds the nodes an applied manifest aliased as shared nodes, and
    the program's YAML has no anchors."""
    for name, policies in _wide_writes(data, level, seed):
        assert policy_yaml(policies[name]) == yaml.safe_dump(_unshared(policies[name]),
                                                             sort_keys=True,
                                                             default_flow_style=False)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12)


def _unshared(value):
    """``value`` rebuilt node by node, so that no two of its places hold one dict or list."""
    if isinstance(value, dict):
        return {k: _unshared(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_unshared(v) for v in value]
    return value


def _shuffled(data, value):
    """``value`` rebuilt with the keys of every dict (a policy store's too) in a drawn order."""
    if isinstance(value, Mapping):
        return {k: _shuffled(data, value[k]) for k in data.draw(st.permutations(list(value)))}
    if isinstance(value, list):
        return [_shuffled(data, v) for v in value]
    return value


@settings(SETTINGS, max_examples=60)
@given(st.data(), st.integers(1, 3), st.integers(0, 2**32))
def test_reads_audits_and_digests_ignore_the_key_order_of_a_stored_policy(data, level, seed):
    """A policy is stored as written, so two stores that differ only in the order of their keys
    must read alike: the table, each policy as YAML, the store as a YAML List and each
    description are byte-identical, and the audits and digests are equal."""
    _, truth = generate_k8s_query(level, seed)
    policies = data.draw(st.sampled_from(rebuild(K8S, truth)))
    for _ in range(data.draw(st.integers(0, 6))):
        policies = exec_kubectl(policies, data.draw(kubectl_command(policies, truth.recovery))).state
    shuffled = PolicyStore(_shuffled(data, policies))
    reads = ["kubectl get networkpolicies", "kubectl get networkpolicies -o yaml",
             *(f"kubectl get networkpolicy {name} -o yaml" for name in policies),
             *(f"kubectl describe networkpolicy {name}" for name in policies)]
    for command in reads:
        assert exec_kubectl(shuffled, command).output == exec_kubectl(policies, command).output
    assert connectivity_check(shuffled) == connectivity_check(policies)
    assert cluster_digest(shuffled) == cluster_digest(policies)


@SETTINGS
@given(st.data(), st.integers(1, 3), st.integers(0, 2**32))
def test_cluster_digest_matches_reference_under_shuffled_keys(data, level, seed):
    _, truth = generate_k8s_query(level, seed)
    policies = data.draw(st.sampled_from(rebuild(K8S, truth)))
    for _ in range(data.draw(st.integers(0, 4))):
        policies = exec_kubectl(policies, data.draw(kubectl_command(policies, truth.recovery))).state
    # a store built through kubectl, and one that was not
    for store in (policies, data.draw(st.dictionaries(st.text(max_size=6), _JSON, max_size=4))):
        shuffled = PolicyStore(_shuffled(data, store))
        assert cluster_digest(shuffled) == ref_cluster_digest(shuffled) == ref_cluster_digest(store)


@SETTINGS
@given(st.data(), st.integers(1, 3), st.integers(0, 2**32))
def test_a_written_store_derives_the_views_of_a_store_built_fresh(data, level, seed):
    """Along random kubectl sequences, and the query's built-in writes replayed as generation
    replays them, each policy's compiled contribution and digest fragment, carried from the
    parent store or from the baseline, equal those of a store built anew, and the spliced
    digest is the digest of the canonical JSON."""
    _, truth = generate_k8s_query(level, seed)
    policies = data.draw(st.sampled_from(rebuild(K8S, truth)))
    mutations = [build_mutation(action) for action in truth.hidden_injection]
    writes = [write for m in mutations for write in (*m.forward, m.inverse)]
    for _ in range(data.draw(st.integers(1, 8))):
        connectivity_check(policies), cluster_digest(policies)  # views a write can carry
        write = data.draw(st.sampled_from(writes))
        if data.draw(st.booleans()) and write.policy in policies:
            outcome = write.apply(policies)
        else:
            outcome = exec_kubectl(policies, data.draw(kubectl_command(policies, truth.recovery)))
        policies = outcome.state
        fresh = PolicyStore(dict(policies))
        for name in policies:
            for view in (_compiled, _fragment):
                assert policies.view(name, view) == fresh.view(name, view)
        assert cluster_digest(policies) == cluster_digest(fresh) == digest(dict(policies))
        assert connectivity_check(policies) == ref_connectivity_check(policies)


# --- verdicts per turn ---------------------------------------------------------

def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _play(env, messages, calls):
    """Per turn: (is_write, verdicts computed by the turn and its goal check)."""
    counts = []
    for message in messages:
        seen = len(calls)
        _, _, is_write, _ = env.execute_message(message)
        env.goal_reached()
        counts.append((is_write, len(calls) - seen))
    return counts


def test_routing_oracle_computes_one_verdict_per_write_and_none_per_read(monkeypatch):
    query, truth = generate_routing_query(3, 1234)
    calls = _count_calls(monkeypatch, routing_generate, "pingall")
    env = RoutingEnvironment(truth)
    assert len(calls) == 1  # the initial state's, once per environment
    messages = [AgentMessage(MSG_COMMAND, "ip route"),
                AgentMessage(MSG_COMMAND, "vtysh"),
                *(AgentMessage(MSG_COMMAND, c, m) for m, c in truth.recovery),
                AgentMessage(MSG_FINAL, "done")]
    counts = _play(env, messages, calls)
    assert counts == [(False, 0), (False, 0), *[(True, 1)] * len(truth.recovery), (False, 0)]
    seen = len(calls)
    assert env.is_correct() and env.goal_reached()
    assert len(calls) == seen == 1 + len(truth.recovery)


def test_k8s_oracle_computes_one_verdict_per_write_and_none_per_read(monkeypatch):
    query, truth = generate_k8s_query(3, 1234)
    calls = _count_calls(monkeypatch, k8s_generate, "connectivity_check")
    env = K8sEnvironment(truth)
    assert len(calls) == 1
    messages = [AgentMessage(MSG_COMMAND, "kubectl get networkpolicies", "master"),
                *(AgentMessage(MSG_COMMAND, c, m) for m, c in truth.recovery),
                AgentMessage(MSG_FINAL, "done")]
    counts = _play(env, messages, calls)
    assert counts == [(False, 0), *[(True, 1)] * len(truth.recovery), (False, 0)]
    assert env.is_correct() and len(calls) == 1 + len(truth.recovery)


# --- the class form of the verdicts --------------------------------------------

@SETTINGS
@given(st.data(), st.integers(1, 3), st.integers(0, 2**32))
def test_class_form_counts_losses_and_renders_as_the_pair_sets_do(data, level, seed):
    """``received``, ``lost`` and ``render`` of the class form agree with the good sets,
    also between matrices whose classes differ, and with the full per-pair form."""
    _, truth = generate_routing_query(level, seed)
    states = [data.draw(st.sampled_from(rebuild(ROUTING, truth)))]
    for _ in range(data.draw(st.integers(1, 8))):
        state = states[-1]
        outcome = exec_command(state, *data.draw(st.one_of(
            routing_command(state, truth.recovery), class_split_command(state))))
        if outcome.kind == WRITE:
            states.append(outcome.state)
    matrices = [pingall(state) for state in states]
    full = [ref_pingall(state) for state in states]
    for state, matrix in zip(states, matrices):
        assert matrix.received == len(matrix.good)
        assert matrix.render() == per_pair_render(state)
    for before, full_before in zip(matrices, full):
        for after, full_after in zip(matrices, full):
            lost = bool(before.good - after.good)
            assert before.lost(after) == lost
            assert before.lost(full_after) == full_before.lost(after) == lost


@SETTINGS
@given(st.data(), st.integers(1, 3), st.integers(0, 2**32))
def test_audit_counts_and_losses_match_the_conforming_sets(data, level, seed):
    _, truth = generate_k8s_query(level, seed)
    stores = [data.draw(st.sampled_from(rebuild(K8S, truth)))]
    for _ in range(data.draw(st.integers(1, 8))):
        outcome = exec_kubectl(stores[-1], data.draw(kubectl_command(stores[-1], truth.recovery)))
        if outcome.kind == WRITE:
            stores.append(outcome.state)
    reports = [connectivity_check(policies) for policies in stores]
    for report in reports:
        assert report.received == len(report.good)
    for before in reports:
        for after in reports:
            assert before.lost(after) == bool(before.good - after.good)


def test_no_good_set_is_built_on_a_write_turn_a_generation_step_or_an_episode_start(
        monkeypatch):
    def refuse(self):
        raise AssertionError("a good set was built")

    for cls, name in ((PingMatrix, "good"), (PingMatrix, "reachable"),
                      (MismatchReport, "good")):
        monkeypatch.setattr(cls, name, property(refuse))
    for app, agents in (("routing", ("oracle", "random", "adversarial")),
                        ("k8s", ("oracle", "random"))):
        batch = generate_batch(BenchmarkConfig(app=app, num_queries=60, seed=11))
        for rule in ("strict", "lenient"):
            config = BenchmarkConfig(app=app, num_queries=60, seed=11, safety_rule=rule)
            for query, truth in batch:
                for agent in agents:
                    record = score_episode(query, run_episode(
                        make_environment(config, truth), make_agent(agent, query, truth), query))
                    if agent == "oracle":
                        assert record.correct and record.safe, (query.id, rule)
                    if agent == "adversarial" and rule == "strict":
                        assert record.correct and not record.safe, query.id
