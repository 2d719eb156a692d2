"""Differential tests of the verdict kernels, and how often episodes compute verdicts.

States are reached the way agents reach them: from a generated query's
healthy or injected state, through random commands of the app's own grammar (fault
injections and their inverses, delays, filters, gateway routes, policy
patches, applies and deletes). At every state the optimized kernels must
agree with the per-pair references in ``reference_kernels``.
"""

import json

import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from netbench.agents.base import MSG_COMMAND, MSG_FINAL, AgentMessage
from netbench.errors import MethodOutOfRange
from netbench.k8spolicy import env as k8s_env
from netbench.k8spolicy.connectivity import connectivity_check
from netbench.k8spolicy.env import K8sEnvironment
from netbench.k8spolicy.generate import generate_k8s_query, rebuild_cluster
from netbench.k8spolicy.inject import MUTATIONS, build_mutation
from netbench.k8spolicy.kubectl import exec_kubectl
from netbench.k8spolicy.model import SERVICE_PORTS, SERVICES, cluster_digest, flow_universe
from netbench.k8spolicy.safety import judge_step_safety as k8s_judge
from netbench.routing import env as routing_env
from netbench.routing.commands import exec_command
from netbench.routing.env import RoutingEnvironment
from netbench.routing.generate import generate_routing_query, rebuild_states
from netbench.routing.inject import FAMILY_METHODS, build_fault
from netbench.routing.pingall import pingall
from netbench.routing.safety import judge_step_safety as routing_judge
from reference_kernels import ref_cluster_digest, ref_connectivity_check, ref_pingall

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
        fault = build_fault(state, family, draw(st.integers(1, FAMILY_METHODS[family])), k,
                            draw(st.sampled_from([s for s in range(1, state.num_switches + 1)
                                                  if s != k])))
        return draw(st.sampled_from([*fault.forward, fault.inverse]))
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
        ms = draw(st.sampled_from([1, 500, 6000, 20000]))
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
    state = data.draw(st.sampled_from(rebuild_states(truth)))  # healthy or injected
    ceiling = data.draw(st.sampled_from([10_000, 600, 0]))
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
        assert pingall(state, ceiling) == ref_pingall(state, ceiling)


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
        family = draw(st.sampled_from(MUTATIONS))
        try:
            mutation = build_mutation(family, draw(st.sampled_from(sorted(SERVICE_PORTS))),
                                      draw(st.sampled_from([*SERVICES, ""])))
        except MethodOutOfRange:  # not a valid combination for this family
            return "kubectl get networkpolicies"
        return draw(st.sampled_from([mutation.forward[1], mutation.inverse[1]]))
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
    policies = data.draw(st.sampled_from(rebuild_cluster(truth)))  # baseline or broken
    for _ in range(data.draw(st.integers(1, 8))):
        outcome = exec_kubectl(policies, data.draw(kubectl_command(policies, truth.recovery)))
        if outcome.kind == "write":
            before = connectivity_check(policies)
            after = connectivity_check(outcome.policies)
            for rule in ("strict", "lenient"):
                assert k8s_judge(policies, outcome.policies, rule) == ref_judge(
                    before.good, after.good, len(flow_universe()), rule)
            policies = outcome.policies
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


@settings(SETTINGS, max_examples=200)
@given(st.data(), st.integers(1, 3), st.integers(0, 2**32))
def test_connectivity_check_matches_reference_on_any_selector_peer_and_port_value(data, level,
                                                                                  seed):
    """Stores applied or patched through kubectl with every selector, peer and port shape
    the interpreter accepts: other label keys, non-string ``app`` values, empty
    ``matchLabels``, missing, empty and catch-all peers, and ports of any JSON type."""
    _, truth = generate_k8s_query(level, seed)
    policies = data.draw(st.sampled_from([*rebuild_cluster(truth), {}]))
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
        policies = outcome.policies
        alone = {name: policies[name]}  # where no other policy hides what it allows
        assert connectivity_check(alone) == ref_connectivity_check(alone)
    assert connectivity_check(policies) == ref_connectivity_check(policies)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12)


def _shuffled(data, value):
    """``value`` rebuilt with the keys of every dict in a drawn order."""
    if isinstance(value, dict):
        return {k: _shuffled(data, value[k]) for k in data.draw(st.permutations(list(value)))}
    if isinstance(value, list):
        return [_shuffled(data, v) for v in value]
    return value


@SETTINGS
@given(st.data(), st.integers(1, 3), st.integers(0, 2**32))
def test_cluster_digest_matches_reference_under_shuffled_keys(data, level, seed):
    _, truth = generate_k8s_query(level, seed)
    policies = data.draw(st.sampled_from(rebuild_cluster(truth)))
    for _ in range(data.draw(st.integers(0, 4))):
        policies = exec_kubectl(policies, data.draw(kubectl_command(policies, truth.recovery))).policies
    # a store built through kubectl, and one that was not
    for store in (policies, data.draw(st.dictionaries(st.text(max_size=6), _JSON, max_size=4))):
        shuffled = _shuffled(data, store)
        assert cluster_digest(shuffled) == ref_cluster_digest(shuffled) == ref_cluster_digest(store)


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
    calls = _count_calls(monkeypatch, routing_env, "pingall")
    query, truth = generate_routing_query(3, 1234)
    env = RoutingEnvironment(query, truth)
    assert len(calls) == 1  # the initial state's, once per environment
    for _ in range(2):
        env.reset()
        messages = [AgentMessage(MSG_COMMAND, "ip route"),
                    AgentMessage(MSG_COMMAND, "vtysh"),
                    *(AgentMessage(MSG_COMMAND, c, m) for m, c in truth.recovery),
                    AgentMessage(MSG_FINAL, "done")]
        counts = _play(env, messages, calls)
        assert counts == [(False, 0), (False, 0), *[(True, 1)] * len(truth.recovery),
                          (False, 0)]
        seen = len(calls)
        assert env.is_correct() and env.goal_reached()
        assert len(calls) == seen
    assert len(calls) == 1 + 2 * len(truth.recovery)


def test_k8s_oracle_computes_one_verdict_per_write_and_none_per_read(monkeypatch):
    calls = _count_calls(monkeypatch, k8s_env, "connectivity_check")
    query, truth = generate_k8s_query(3, 1234)
    env = K8sEnvironment(query, truth)
    assert len(calls) == 1
    messages = [AgentMessage(MSG_COMMAND, "kubectl get networkpolicies", "master"),
                *(AgentMessage(MSG_COMMAND, c, m) for m, c in truth.recovery),
                AgentMessage(MSG_FINAL, "done")]
    counts = _play(env, messages, calls)
    assert counts == [(False, 0), *[(True, 1)] * len(truth.recovery), (False, 0)]
    assert env.is_correct() and len(calls) == 1 + len(truth.recovery)
