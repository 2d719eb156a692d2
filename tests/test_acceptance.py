"""Acceptance gate: the framework-level guarantees, one printed line each.

Each test prints a single ``[acceptance] ... PASS|FAIL`` line outside
pytest's capture (via ``capsys.disabled()``), then asserts.
"""

import math
import time

from netbench.core.episode import run_episode
from netbench.core.generate import generate_batch, make_environment, write_batch_jsonl
from netbench.core.types import BenchmarkConfig
from netbench.evaluation.metrics import score_episode


def report(capsys, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[acceptance] {name}: {verdict}{suffix}", flush=True)
    assert ok, f"{name}{suffix}"


def config(app, num_queries, seed=0, levels=(1, 2, 3)):
    return BenchmarkConfig(app=app, num_queries=num_queries, levels=levels, seed=seed)


def run_batch(cfg, agent_spec):
    from netbench.agents import make_agent
    from netbench.core.generate import cp_base_graph
    base = cp_base_graph(cfg) if cfg.app == "cp" else None
    records = []
    for query, truth in generate_batch(cfg):
        env = make_environment(cfg, truth, context=base)
        agent = make_agent(agent_spec, query, truth)
        records.append(score_episode(query, run_episode(env, agent, query)))
    return records


def test_oracle_closure_all_apps(capsys):
    started = time.perf_counter()
    ok = True
    details = []
    for app in ("cp", "routing", "k8s"):
        records = run_batch(config(app, 300), "oracle")
        levels = [r.level for r in records]
        correct = sum(r.correct for r in records)
        safe = sum(r.safe for r in records)
        ok &= correct == 300 and safe == 300
        ok &= all(levels.count(l) == 100 for l in (1, 2, 3))
        details.append(f"{app}: {correct}/300 correct, {safe}/300 safe")
    elapsed = time.perf_counter() - started
    ok &= elapsed < 120
    report(capsys, "oracle closure, 300 queries per app at seed 0",
           ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_deterministic_regeneration_large_batches(capsys, tmp_path):
    ok = True
    details = []
    for app, n in (("cp", 5000), ("routing", 2250), ("k8s", 2000)):
        cfg = config(app, n)
        started = time.perf_counter()
        first = tmp_path / f"{app}-a.jsonl"
        write_batch_jsonl(generate_batch(cfg), first)
        elapsed = time.perf_counter() - started
        second = tmp_path / f"{app}-b.jsonl"
        write_batch_jsonl(generate_batch(cfg), second)
        identical = first.read_bytes() == second.read_bytes()
        ok &= identical
        if app == "cp":
            ok &= elapsed < 60
        details.append(f"{app}:{n} {'identical' if identical else 'DIFFER'} {elapsed:.1f}s")
    report(capsys, "byte-identical regeneration (cp:5000, routing:2250, k8s:2000)",
           ok, "; ".join(details))


def test_confidence_interval_math(capsys):
    from netbench.evaluation.stats import ci95
    wide, narrow = ci95(75, 150), ci95(2500, 5000)
    half = narrow.hi - narrow.rate
    shrink = (wide.hi - wide.rate) / half
    ok = abs(half - 0.013859) < 1e-6
    ok &= abs(shrink - math.sqrt(5000 / 150)) < 1e-9
    report(capsys, "confidence-interval half-width and root-n shrink",
           ok, f"half_width={half:.8f}, shrink={shrink:.9f}")


def test_every_reactive_query_starts_broken(capsys):
    from netbench.core.reactive import rebuild, solved
    from netbench.k8spolicy.connectivity import connectivity_check
    from netbench.k8spolicy.generate import K8S
    from netbench.routing.generate import ROUTING
    from netbench.routing.pingall import pingall

    broken_routing = sum(
        not solved(pingall(rebuild(ROUTING, truth)[1]))
        for _, truth in generate_batch(config("routing", 1000)))
    broken_k8s = sum(
        not connectivity_check(rebuild(K8S, truth)[1]).clean
        for _, truth in generate_batch(config("k8s", 1000)))
    ok = broken_routing == 1000 and broken_k8s == 1000
    report(capsys, "1000/1000 reactive queries per app start with a failure",
           ok, f"routing {broken_routing}/1000, k8s {broken_k8s}/1000")


def test_pinned_reachability_summaries(capsys):
    from netbench.routing.commands import exec_command
    from netbench.routing.inject import build_fault, fault_action
    from netbench.routing.pingall import pingall, render_summary
    from netbench.routing.state import build_topology

    healthy = build_topology(2, 2)
    (write,) = build_fault(healthy, fault_action("DI", 1, 1, 0)).forward
    injected = exec_command(healthy, *write.render()).state
    derived = pingall(injected).summary_line
    ok = derived == "*** Results: 60% dropped (8/20 received)"

    # 7 nodes, 42 ordered pairs, 10 of them reachable
    rendered = render_summary(10, 42)
    ok &= rendered == "*** Results: 76% dropped (10/42 received)"
    report(capsys, "pinned reachability summary strings", ok,
           f"{derived!r}; {rendered!r}")


def test_safety_judge_separates_adversarial_from_noop(capsys):
    cfg = config("routing", 100)
    adversarial = run_batch(cfg, "adversarial")
    noop = run_batch(cfg, "noop")
    flagged = sum(not r.safe for r in adversarial)
    clean = sum(r.safe for r in noop)
    ok = flagged == 100 and clean == 100
    report(capsys, "adversarial flagged unsafe 100/100; noop safe 100/100",
           ok, f"adversarial {flagged}/100 unsafe, noop {clean}/100 safe")


def test_capacity_oracle_and_violation_detection(capsys):
    from netbench.cp.graph import CONTAINS, CpGraph
    from netbench.cp.safety import check_safety_cp
    from netbench.cp.topology import TopoSpec, generate_synthetic_topology

    def exhaustive_capacity(graph, root):
        # independent traversal: no reliance on CpGraph helpers
        seen, stack, total = set(), [root], 0
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            data = graph.nodes[node]
            if data["type"] == "EK_PORT":
                total += int(data["attrs"].get("physical_capacity_bps", 0))
            stack.extend(dst for src, dst, et in graph.edges
                         if src == node and et == CONTAINS)
        return total

    spec = TopoSpec(agg_blocks=2, chassis_per_agg=2, switches_per_chassis=3,
                    ports_per_switch=4)
    mismatches = 0
    for seed in range(100):
        graph = generate_synthetic_topology(spec, seed=seed)
        assert len(graph.nodes) <= 200
        for node in sorted(graph.nodes):
            if graph.capacity(node) != exhaustive_capacity(graph, node):
                mismatches += 1

    flagged = 0
    for case in range(50):
        graph = generate_synthetic_topology(spec, seed=1000 + case)
        assert not check_safety_cp(graph)
        kind = ("HierarchyRuleViolation", "MissingAttribute", "IsolatedNode")[case % 3]
        bad = f"bad{case}"
        if kind == "HierarchyRuleViolation":
            graph = CpGraph({**graph.nodes, bad: {"type": "EK_PORT",
                                                  "attrs": {"physical_capacity_bps": 1}}},
                            graph.edges | {("ju1", bad, CONTAINS)})  # jupiter cannot hold a port
        elif kind == "MissingAttribute":
            switch = next(n for n in sorted(graph.nodes)
                          if graph.nodes[n]["type"] == "EK_PACKET_SWITCH")
            graph = CpGraph({**graph.nodes, bad: {"type": "EK_PORT", "attrs": {}}},  # no capacity
                            graph.edges | {(switch, bad, CONTAINS)})
        else:
            graph = CpGraph({**graph.nodes, bad: {"type": "EK_CHASSIS", "attrs": {}}},
                            graph.edges)  # no edges at all
        if any(v.kind == kind for v in check_safety_cp(graph)):
            flagged += 1

    ok = mismatches == 0 and flagged == 50
    report(capsys, "capacity matches exhaustive oracle; checker flags 50/50 violations",
           ok, f"{mismatches} capacity mismatches, {flagged}/50 flagged")


def test_k8s_round_trip_and_inverse_closure(capsys):
    from netbench.core.reactive import rebuild
    from netbench.k8spolicy.connectivity import connectivity_check
    from netbench.k8spolicy.generate import K8S
    from netbench.k8spolicy.kubectl import exec_kubectl
    from netbench.k8spolicy.model import cluster_digest, default_policies

    policies = default_policies()
    target = cluster_digest(policies)
    for name in list(policies):
        shown = exec_kubectl(policies, f"kubectl get networkpolicy {name} -o yaml")
        policies = exec_kubectl(policies, "kubectl apply -f -\n" + shown.output).state
    round_trip = cluster_digest(policies) == target

    healed = 0
    for _, truth in generate_batch(config("k8s", 500)):
        _, broken = rebuild(K8S, truth)
        for machine, command in truth.recovery:
            broken = exec_kubectl(broken, command).state
        if connectivity_check(broken).clean and cluster_digest(broken) == truth.target_digest:
            healed += 1
    ok = round_trip and healed == 500
    report(capsys, "policy get/apply round-trip; inverses heal 500/500 queries",
           ok, f"round_trip={round_trip}, healed {healed}/500")
