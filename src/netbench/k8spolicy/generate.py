"""Query generation for the network-policy application.

A query hides one or two policy mutations in the thirteen-policy
baseline. The ground truth stores the mutations (so the cluster can be
rebuilt from the query alone) plus the inverse patches in an order
where every patch strictly grows the set of conforming flows.
"""

from __future__ import annotations

from ..core.reactive import Reactive, generate_reactive_query
from ..core.types import ActionSpec
from .connectivity import MismatchReport, connectivity_check
from .inject import AE_EGRESS_GRAPH, TARGETS, build_mutation
from .kubectl import exec_kubectl
from .model import EXPECTED_CALLERS, SERVICE_PORTS, SERVICES, cluster_digest, default_policies

LEVEL_LABELS = {
    1: ("RI", "AI", "CP", "CPR", "AE"),
    2: ("RI+AI", "RI+CP", "RI+CPR", "AI+CP", "AI+CPR", "CP+CPR"),
    3: ("CP+AE", "CPR+AE", "RI+AE", "AI+AE"),
}

def _sample_mutations(rng, families) -> list:
    ae_target = None
    taken = set()
    mutations = []
    # pick AE first so its target can constrain the other family
    for family in sorted(families, key=lambda f: f != "AE"):
        pool = [t for t in TARGETS[family] if t not in taken]
        target = rng.choice(pool)
        taken.add(target)
        if family == "AE":
            ae_target = target
            param = rng.choice(AE_EGRESS_GRAPH[target])
        elif family == "RI":
            param = rng.choice(EXPECTED_CALLERS[target])
        elif family == "AI":
            # an added caller whose egress is restricted elsewhere would be
            # unobservable, breaking recovery monotonicity; exclude it
            pool = [s for s in SERVICES
                    if s not in EXPECTED_CALLERS[target] and s != target and s != ae_target]
            param = rng.choice(pool)
        else:
            param = ""
        mutations.append(build_mutation(ActionSpec(family, (target, param))))
    order = {f: i for i, f in enumerate(families)}
    mutations.sort(key=lambda m: order[m.action.name])
    return mutations


def _attempts(rng, families):
    """Candidates: the baseline with mutations of ``families`` sampled into it."""
    baseline = default_policies()
    while True:
        yield baseline, (), _sample_mutations(rng, families)


def generate_k8s_query(level: int, seed: int) -> tuple:
    """Build one reactive policy query; returns (QuerySpec, GroundTruth)."""
    return generate_reactive_query(K8S, level, seed)


def render_k8s_prompt(report: MismatchReport) -> str:
    services = ", ".join(f"{name}:{port}" for name, port in sorted(SERVICE_PORTS.items()))
    return "\n".join([
        "You are operating a Kubernetes cluster running a twelve-service",
        "online shop in the 'default' namespace, one pod per service labeled",
        "app=<service>. Serving ports: " + services + ";",
        "loadgenerator is a pure client.",
        "",
        "Connectivity is controlled by NetworkPolicy objects. One or more",
        "policies were misconfigured. Current connectivity audit against the",
        "expected service graph:",
        report.render(),
        "",
        "Diagnose and repair the policies. Respond with exactly one JSON object",
        'per turn: {"machine": "master", "command": "<kubectl command>"}.',
        "Supported: kubectl get networkpolicy [<name> -o yaml], kubectl describe",
        "networkpolicy <name>, kubectl patch networkpolicy <name> --type merge",
        "-p '<json>', kubectl apply -f - (manifest on the following lines),",
        "kubectl delete networkpolicy <name>. Do not include sudo.",
        "An updated audit is shown after every change.",
        'When every flow matches the expected graph, respond {"final_answer": "done"}.',
    ])


# the interpreter, the verdict and the digest are called by name, through the lambdas
K8S = Reactive(
    name="k8s", labels=LEVEL_LABELS, attempts=_attempts,
    start=lambda truth: (default_policies(), truth.hidden_injection),
    build=lambda _, action: build_mutation(action),
    execute=lambda policies, message: exec_kubectl(policies, str(message.payload)),
    verdict=lambda policies: connectivity_check(policies),
    digest=lambda policies: cluster_digest(policies),
    report=lambda output, audit: output + "\nConnectivity audit:\n" + audit.render(),
    prompt=lambda _, report: render_k8s_prompt(report))
