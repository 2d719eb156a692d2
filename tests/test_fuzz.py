"""Fuzzing of everything that reads agent input.

The routing and kubectl interpreters, the cp environment's answer handling
and the reply extractor get token strings drawn from their grammars, free
text and arbitrary JSON values. None of them may raise, change its input
state or answer the same input in two ways, and every invalid turn is safe.
"""

import json
from functools import lru_cache

from hypothesis import HealthCheck, example, given, settings, strategies as st

from netbench.agents.base import MSG_COMMAND, MSG_FINAL, AgentMessage
from netbench.agents.extract import extract_message
from netbench.core.generate import cp_base_graph, generate_batch
from netbench.core.reactive import INVALID, READ, WRITE, Outcome
from netbench.core.types import BenchmarkConfig
from netbench.cp.env import CpEnvironment
from netbench.cp.graph import BASIC_OPS, NODE_TYPES
from netbench.k8spolicy.env import K8sEnvironment
from netbench.k8spolicy.kubectl import exec_kubectl
from netbench.k8spolicy.model import SERVICES, cluster_digest
from netbench.routing.commands import exec_command
from netbench.routing.env import RoutingEnvironment

SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=16)


def _command(vocabulary):
    """Free text, or a few grammar tokens, possibly with JSON text among them."""
    token = st.sampled_from(vocabulary) | st.text(max_size=8) | JSON.map(json.dumps)
    return st.text() | st.lists(token, min_size=1, max_size=9).map(" ".join)


@lru_cache(maxsize=None)
def _batch(app):
    return tuple(generate_batch(BenchmarkConfig(app=app, num_queries=6, seed=11)))


def _env(app, index):
    _, truth = _batch(app)[index % len(_batch(app))]
    if app == "cp":
        return CpEnvironment(_base(), truth)
    return {"routing": RoutingEnvironment, "k8s": K8sEnvironment}[app](truth)


@lru_cache(maxsize=None)
def _base():
    return cp_base_graph(BenchmarkConfig(app="cp", seed=11))


# --- routing -----------------------------------------------------------------

ROUTING_TOKENS = [
    "ip", "addr", "address", "a", "link", "l", "route", "r", "rule", "show", "list", "add",
    "del", "delete", "replace", "flush", "set", "dev", "via", "metric", "up", "down", "mtu",
    "prohibit", "from", "all", "ifconfig", "iptables", "-A", "-D", "-L", "-F", "-s", "-d",
    "-p", "-j", "FORWARD", "INPUT", "DROP", "REJECT", "ACCEPT", "icmp", "sysctl", "-w",
    "net.ipv4.ip_forward", "net.ipv4.ip_forward=0", "net.ipv4.ip_forward=1",
    "net.ipv4.ip_forward=2", "tc", "qdisc", "root", "netem", "delay", "500ms", "-5ms", "xms",
    "r0-eth1", "r0-eth2", "r0-eth9", "eth1", "192.168.1.0/24", "192.168.2.0/24",
    "192.168.2.5/24", "192.168.1.1", "10.0.0.1", "0.0.0.0/0", "300.1.1.1/24", "1.2.3.4/40",
    "1500", "100", "67", "50", "9999", "vtysh", "ping", "sudo", "h1", "r0",
]


@SETTINGS
@given(st.integers(0, 5), st.sampled_from(["r0", "h1", "h3", "nosuch"]),
       _command(ROUTING_TOKENS))
def test_routing_interpreter_and_environment(index, machine, command):
    env = _env("routing", index)
    state = env.state
    before = state.state_digest()
    if machine != "nosuch":
        machine = state.prefix + machine  # the router or a host of this topology
    first = exec_command(state, machine, command)
    again = exec_command(state, machine, command)
    assert isinstance(first, Outcome) and first.kind in (READ, WRITE, INVALID)
    assert first.kind == WRITE or first.state is state  # a non-write returns its input
    assert (first.output, first.kind, first.state.state_digest()) == \
        (again.output, again.kind, again.state.state_digest())
    assert state.state_digest() == before
    if command.strip():
        output, safe, is_write, valid = env.execute_message(
            AgentMessage(MSG_COMMAND, command, machine))
        assert valid == (first.kind != INVALID) and is_write == (first.kind == WRITE)
        if not valid:
            assert safe and env.state is state


# --- k8s ---------------------------------------------------------------------

KUBECTL_TOKENS = [
    "kubectl", "get", "describe", "patch", "apply", "delete", "networkpolicy",
    "networkpolicies", "netpol", "pods", "-o", "yaml", "-oyaml", "--type", "merge",
    "--type=merge", "-p", "-f", "-", "sudo", *SERVICES, "default-deny", "nosuch",
]


@st.composite
def kubectl_input(draw):
    """A token string, or a merge patch or manifest carrying an arbitrary JSON value."""
    name = draw(st.sampled_from([*SERVICES, "default-deny", "nosuch"]))
    value = draw(JSON)
    return draw(st.sampled_from([
        draw(_command(KUBECTL_TOKENS)),
        f"kubectl patch networkpolicy {name} --type merge -p '{json.dumps(value)}'",
        f"kubectl patch networkpolicy {name} --type merge -p '{json.dumps({'spec': value})}'",
        "kubectl apply -f -\n" + json.dumps(value),
        "kubectl apply -f -\n" + json.dumps({"kind": "NetworkPolicy",
                                             "metadata": {"name": name}, "spec": value}),
    ]))


@SETTINGS
@given(st.integers(0, 5), kubectl_input())
def test_kubectl_interpreter_and_environment(index, command):
    env = _env("k8s", index)
    policies = env.state
    before = cluster_digest(policies)
    first = exec_kubectl(policies, command)
    again = exec_kubectl(policies, command)
    assert isinstance(first, Outcome) and first.kind in (READ, WRITE, INVALID)
    assert first.kind == WRITE or first.state is policies  # a non-write returns its input
    assert (first.output, first.kind, cluster_digest(first.state)) == \
        (again.output, again.kind, cluster_digest(again.state))
    assert cluster_digest(policies) == before
    if command.strip():
        output, safe, is_write, valid = env.execute_message(AgentMessage(MSG_COMMAND, command))
        assert valid == (first.kind != INVALID) and is_write == (first.kind == WRITE)
        if not valid:
            assert safe and env.state is policies


# --- cp ----------------------------------------------------------------------

NAMES = st.sampled_from([*sorted(_base().nodes), "nosuch", *NODE_TYPES]) | JSON


def cp_payload(golden_kind):
    """A final answer: an answer, mostly of the golden answer's kind, a program, or any JSON."""
    op = st.fixed_dictionaries({"name": st.sampled_from(BASIC_OPS) | JSON},
                               optional={"operands": st.lists(NAMES, max_size=4) | JSON})
    kind = st.sampled_from([golden_kind] * 4 + ["scalar", "name-list", "ranked-list", "graph"])
    answer = st.fixed_dictionaries({"kind": kind | JSON, "value": JSON})
    return st.one_of(
        st.fixed_dictionaries({"answer": answer}),
        st.fixed_dictionaries({"answer": JSON}),
        st.fixed_dictionaries({"program": st.lists(op, max_size=3) | JSON}),
        JSON)


@SETTINGS
@given(st.data(), st.integers(0, 5))
def test_cp_environment_answers(data, index):
    # the batch's six goldens cover all four answer kinds
    payload = data.draw(cp_payload(_env("cp", index).golden.kind))
    base = _base()
    before = base.state_digest()
    outcomes = []
    for _ in range(2):
        env = _env("cp", index)
        outcomes.append((env.execute_message(AgentMessage(MSG_FINAL, payload)),
                         env.is_correct()))
    assert outcomes[0] == outcomes[1]
    (output, safe, is_write, valid), _ = outcomes[0]
    assert valid or safe
    assert base.state_digest() == before


# --- agent replies -----------------------------------------------------------

@SETTINGS
@given(st.text() | st.tuples(st.text(max_size=8), JSON, st.text(max_size=8)).map(
    lambda t: t[0] + json.dumps(t[1]) + t[2]))
@example('{"final_answer": ' + "9" * 5000 + "}")  # past int()'s 4,300-digit limit
@example('{"final_answer":' + "[" * 100_000 + "]" * 100_000 + "}")  # past the recursion limit
def test_extract_message(text):
    first = extract_message(text)
    assert first is None or first.kind in (MSG_COMMAND, MSG_FINAL)
    assert first == extract_message(text)
