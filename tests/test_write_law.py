"""The law of built-in writes, for every reactive app: the app's interpreter, given the command
that a write's ``render()`` gives, makes what its ``apply`` makes, with the same kind, output,
state and digest.

Generation, rebuild and the recovery-order search make a built-in write by ``apply``, which
parses no text. An agent makes it by its command, as the oracle does with a batch's stored
repairs. Each write of every built-in injection is made on start states (healthy ones, and the
broken states of generated queries, where other injections are present): its forward writes in
order, each of its writes alone on the start state and on the broken one, and its inverse a
second time. Rejections are made alike too. Each app also compares what its state's equality
leaves out: a routing state's parsed values, and the key order of a stored policy.
"""

import json

import pytest

from netbench.agents.base import MSG_COMMAND, AgentMessage
from netbench.core.reactive import INVALID, WRITE, rebuild, replay
from netbench.core.types import GT_RECOVERY_PREDICATE, GroundTruth
from netbench.k8spolicy.connectivity import connectivity_check
from netbench.k8spolicy.generate import K8S, generate_k8s_query
from netbench.k8spolicy.model import cluster_digest, default_policies
from netbench.routing.generate import ROUTING, generate_routing_query
from netbench.routing.inject import FAMILY_METHODS
from netbench.routing.state import build_topology
from builtin_writes import k8s_mutations, routing_faults


def _generated_truths(generate, seeds: int):
    """The ground truths of generated level 2 and 3 queries, where other injections are present."""
    for level in (2, 3):
        for seed in range(seeds):
            yield generate(level, seed)[1]


def routing_cases():
    """(start, fault): each topology size and prefix healthy, and the healthy and broken states
    of generated queries, with every fault generation can sample on the healthy one."""
    starts = []
    for num_switches in (2, 3, 4):
        for hosts_per_subnet in (2, 3, 4):
            for prefix in ("", "n7_"):
                healthy = build_topology(num_switches, hosts_per_subnet, prefix)
                starts.append((healthy, healthy))
    starts += [rebuild(ROUTING, truth) for truth in _generated_truths(generate_routing_query, 8)]
    for healthy, start in starts:
        for fault in routing_faults(healthy):
            yield start, fault


def k8s_cases():
    """(start, mutation): every mutation on the baseline and on generated broken stores."""
    starts = [default_policies()]
    starts += [rebuild(K8S, truth)[1] for truth in _generated_truths(generate_k8s_query, 2)]
    for start in starts:
        for mutation in k8s_mutations():
            yield start, mutation


def same_routing_state(a, b):
    """The same text and the same parsed values (``addr``, ``match``), in the same order."""
    assert a.to_json() == b.to_json()
    assert {n: vars(i) for n, i in a.interfaces.items()} == \
        {n: vars(i) for n, i in b.interfaces.items()}
    assert {n: vars(h) for n, h in a.hosts.items()} == {n: vars(h) for n, h in b.hosts.items()}
    assert [vars(r) for r in a.routes] == [vars(r) for r in b.routes]
    assert [vars(f) for f in a.filter_rules] == [vars(f) for f in b.filter_rules]


def same_store(a, b):
    """Every policy's keys in the same order, which the walk of a later patch follows, and the
    same audit."""
    assert json.dumps(dict(a)) == json.dumps(dict(b))
    assert connectivity_check(a) == connectivity_check(b)


APPS = {"routing": (ROUTING, routing_cases, same_routing_state),
        "k8s": (K8S, k8s_cases, same_store)}


def made_alike(app, same, state, write):
    """``write`` made by ``apply`` and by the interpreter from ``render()``: alike. Returns the
    interpreter's outcome."""
    machine, command = write.render()
    typed = replay(state, write)
    text = app.execute(state, AgentMessage(MSG_COMMAND, command, machine))
    assert (typed.kind, typed.output) == (text.kind, text.output), command
    assert typed.state == text.state, command
    assert app.digest(typed.state) == app.digest(text.state), command
    same(typed.state, text.state)
    return text


@pytest.mark.parametrize("name", sorted(APPS))
def test_each_builtin_write_makes_what_the_interpreter_makes_of_its_command(name):
    app, cases, same = APPS[name]
    kinds, families = set(), set()
    for start, injection in cases():
        families.add(injection.action.name)
        broken = start
        for write in injection.forward:
            broken = made_alike(app, same, broken, write).state
        for write in (*injection.forward, injection.inverse):
            for state in (start, broken):
                kinds.add(made_alike(app, same, state, write).kind)
        repaired = made_alike(app, same, broken, injection.inverse).state
        made_alike(app, same, repaired, injection.inverse)
    assert len(families) == {"routing": sum(FAMILY_METHODS.values()), "k8s": 5}[name]
    assert kinds == {"routing": {WRITE, INVALID}, "k8s": {WRITE}}[name]


def test_each_k8s_inverse_stores_the_baseline_object_and_rebuild_makes_the_forward_store():
    """An inverse gives back the very baseline policy, whose views the baseline store holds, and
    rebuilding the stored action makes the store of its forward write."""
    baseline = default_policies()
    mutations = k8s_mutations()
    for mutation in mutations:
        (forward,) = mutation.forward
        broken = replay(baseline, forward).state
        repaired = replay(broken, mutation.inverse).state
        assert repaired[forward.policy] is baseline[forward.policy]
        _, rebuilt = rebuild(K8S, GroundTruth(GT_RECOVERY_PREDICATE, cluster_digest(baseline),
                                              hidden_injection=(mutation.action,)))
        assert rebuilt == broken and cluster_digest(rebuilt) == cluster_digest(broken)
        same_store(rebuilt, broken)
    # distinct forward patches; AI takes no "" caller
    assert len({m.forward[0].render() for m in mutations}) == len(mutations) == 149
