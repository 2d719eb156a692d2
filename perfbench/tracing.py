"""In-memory span tracing of netbench's layers, installed from outside the program.

The traced run wraps each target in ``WRAPS`` by patching its name at every
call site: for a function, every loaded ``netbench`` module whose globals
bind the original object; for a method, the class attribute. Spans stay in
memory as lists and carry their parent's index, so self time is computed
afterwards. A target that does not resolve (a later refactor moved or
renamed it) is reported as absent and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

# Span roles: a "unit" is one generated query or one episode; a "turn" span
# opens a new turn (its tag says read or write); a "finish" span closes the
# current turn so end-of-episode scoring is not charged to the last turn.
UNIT, TURN, FINISH = "unit", "turn", "finish"

# (layer name, targets "module:qualname", options). Options:
#   role  - UNIT / TURN / FINISH, as above
#   tag   - how to label a span from its result: "is_write" (3rd item of an
#           execute_message tuple), "kind" (an outcome's .kind), "bytes"
#           (UTF-8 length of a returned string)
#   key   - a digest function applied to the first argument; distinct keys
#           per unit over calls give distinct_state_ratio
WRAPS = (
    ("core.generate.generate_query", ("netbench.routing.generate:generate_routing_query",
                                      "netbench.k8spolicy.generate:generate_k8s_query",
                                      "netbench.cp.generate:generate_cp_query"),
     {"role": UNIT}),
    ("core.generate.write_batch_jsonl", ("netbench.core.generate:write_batch_jsonl",), {}),
    ("core.generate.read_batch_jsonl", ("netbench.core.generate:read_batch_jsonl",), {}),
    ("core.generate.make_environment", ("netbench.core.generate:make_environment",), {}),
    ("core.episode.run_episode", ("netbench.core.episode:run_episode",), {"role": UNIT}),
    ("core.episode.execute_message", ("netbench.routing.env:RoutingEnvironment.execute_message",
                                      "netbench.k8spolicy.env:K8sEnvironment.execute_message",
                                      "netbench.cp.env:CpEnvironment.execute_message"),
     {"role": TURN, "tag": "is_write"}),
    ("core.episode.goal_reached", ("netbench.routing.env:RoutingEnvironment.goal_reached",
                                   "netbench.k8spolicy.env:K8sEnvironment.goal_reached",
                                   "netbench.cp.env:CpEnvironment.goal_reached"), {}),
    ("core.episode.finish", ("netbench.routing.env:RoutingEnvironment.final_digest",
                             "netbench.routing.env:RoutingEnvironment.is_correct",
                             "netbench.k8spolicy.env:K8sEnvironment.final_digest",
                             "netbench.k8spolicy.env:K8sEnvironment.is_correct",
                             "netbench.cp.env:CpEnvironment.final_digest",
                             "netbench.cp.env:CpEnvironment.is_correct"), {"role": FINISH}),
    ("agents.builtin.step", ("netbench.agents.builtin:OracleAgent.step",
                             "netbench.agents.builtin:RandomAgent.step"), {}),
    ("agents.external.ExecAgent.step", ("netbench.agents.external:ExecAgent.step",), {}),
    ("agents.base.Observation.render", ("netbench.agents.base:Observation.render",),
     {"tag": "bytes"}),
    ("agents.extract.extract_message", ("netbench.agents.extract:extract_message",), {}),
    ("evaluation.metrics.score_episode", ("netbench.evaluation.metrics:score_episode",), {}),
    ("routing.state.build_topology", ("netbench.routing.state:build_topology",), {}),
    ("routing.pingall", ("netbench.routing.pingall:pingall",),
     {"key": "netbench.routing.state:NetState.state_digest"}),
    ("routing.commands.exec_command", ("netbench.routing.commands:exec_command",), {"tag": "kind"}),
    ("routing.safety.judge_step_safety", ("netbench.routing.safety:judge_step_safety",), {}),
    ("routing.state.NetState.copy", ("netbench.routing.state:NetState.copy",), {}),
    ("routing.state.NetState.state_digest", ("netbench.routing.state:NetState.state_digest",), {}),
    ("k8spolicy.connectivity.connectivity_check",
     ("netbench.k8spolicy.connectivity:connectivity_check",),
     {"key": "netbench.k8spolicy.model:cluster_digest"}),
    ("k8spolicy.kubectl.exec_kubectl", ("netbench.k8spolicy.kubectl:exec_kubectl",), {"tag": "kind"}),
    ("k8spolicy.safety.judge_step_safety", ("netbench.k8spolicy.safety:judge_step_safety",), {}),
    ("k8spolicy.model.cluster_digest", ("netbench.k8spolicy.model:cluster_digest",), {}),
    ("cp.graph.apply_basic_op", ("netbench.cp.graph:apply_basic_op",), {}),
    ("cp.graph.CpGraph.degree", ("netbench.cp.graph:CpGraph.degree",), {}),
    ("cp.graph.CpGraph.copy", ("netbench.cp.graph:CpGraph.copy",), {}),
    ("cp.graph.CpGraph.state_digest", ("netbench.cp.graph:CpGraph.state_digest",), {}),
    ("cp.safety.check_safety_cp", ("netbench.cp.safety:check_safety_cp",), {}),
)

# Phases the benchmark sets around each CLI call.
GENERATE, PROBE, REPAIR, BRIDGE = "generate", "probe", "repair", "bridge"
RUN_PHASES = (PROBE, REPAIR, BRIDGE)
REPAIRING = (REPAIR, BRIDGE)

# Span fields, kept as list slots for low tracing cost.
NAME, PARENT, START, END, PHASE, UNIT_OF, TURN_OF, TAG, KEY, EXTRA = range(10)

_TAGGERS = {
    "is_write": lambda result: "write" if result[2] else "read",
    "kind": lambda result: result.kind,
    "bytes": lambda result: len(result.encode("utf-8")),
}


def resolve(target):
    """Return (owner, attribute, original) for "module:qualname", or None if absent."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Collects spans for the layers in ``WRAPS`` while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.phase = None
        self._unit = None
        self._turn = None
        self.absent = []

    @contextlib.contextmanager
    def installed(self):
        """Patch every resolvable target for the duration of the block."""
        undo = []
        self.absent = []
        # resolve key functions before anything is patched, so keys are
        # computed by the originals and leave no spans
        keys = {}
        for name, _, options in WRAPS:
            found = resolve(options["key"]) if "key" in options else None
            keys[name] = found[2] if found else None
        try:
            for name, targets, options in WRAPS:
                key_fn = keys[name]
                for target in targets:
                    found = resolve(target)
                    if found is None:
                        self.absent.append(target)
                        continue
                    owner, attr, original = found
                    wrapper = self._wrap(name, original, options.get("role"),
                                         _TAGGERS.get(options.get("tag")), key_fn)
                    undo.extend(patch_call_sites(owner, attr, original, wrapper))
            yield self
        finally:
            restore(undo)

    def _wrap(self, name, fn, role, tagger, key_fn):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            began = clock()
            key = None
            if key_fn is not None and args:
                try:
                    key = key_fn(args[0])
                except (AttributeError, TypeError):  # the target's signature changed
                    pass
            index = len(spans)
            span = [name, stack[-1] if stack else None, 0.0, 0.0, tracer.phase,
                    tracer._unit, tracer._turn, None, key, 0.0]
            spans.append(span)
            outer_unit = tracer._unit
            if role == UNIT:
                tracer._unit, tracer._turn = index, None
            elif role == TURN:
                tracer._turn = span[TURN_OF] = index
            elif role == FINISH:
                tracer._turn = span[TURN_OF] = None
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if role == UNIT:
                    tracer._unit, tracer._turn = outer_unit, None
            if tagger is not None:
                try:
                    span[TAG] = tagger(result)
                except (AttributeError, IndexError, TypeError):  # the result's shape changed
                    pass
            # time spent computing the key and the tag belongs to the tracer,
            # not to the caller's span
            span[EXTRA] = (span[START] - began) + (clock() - span[END])
            return result

        traced.__wrapped__ = fn
        return traced


_MISSING = object()


def patch_call_sites(owner, attr, original, wrapper):
    """Patch ``attr`` on its owner and, for functions, at every netbench call site.

    Returns the undo list that ``restore`` takes.
    """
    undo = []
    if isinstance(owner, type):
        undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, wrapper)
        return undo
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("netbench"):
            continue
        namespace = vars(module)
        for bound_name, value in list(namespace.items()):
            if value is original:
                undo.append((module, bound_name, value))
                setattr(module, bound_name, wrapper)
    return undo


def restore(undo):
    """Undo ``patch_call_sites``, newest patch first."""
    for owner, attr, previous in reversed(undo):
        if previous is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, previous)


# --- analysis ----------------------------------------------------------------

def quantile(values, q):
    """Quantile ``q`` in (0, 1) of ``values``, 0.0 when there are none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def analyse(spans, queries, episodes, spawns_per_episode):
    """Per-layer metrics from one traced pass, and the bases of its ratios.

    ``queries`` is the number generated, ``episodes`` the number run over
    all run phases; ``spawns_per_episode`` comes from the replay agent's
    log (0 when no external agent ran).
    """
    count = len(spans)
    duration = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[EXTRA]:
            parent = s[PARENT]
            while parent is not None:
                duration[parent] -= s[EXTRA]
                parent = spans[parent][PARENT]
    child_time = [0.0] * count
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            child_time[s[PARENT]] += duration[i]

    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def idx(name, phases=None, tag=None):
        return [i for i in by_name.get(name, ())
                if (phases is None or spans[i][PHASE] in phases)
                and (tag is None or spans[i][TAG] == tag)]

    def us(name, q=0.5, **kw):
        return quantile([duration[i] * 1e6 for i in idx(name, **kw)], q)

    def total_ms(name):
        return sum(duration[i] for i in idx(name)) * 1e3

    def self_ms(name):
        return sum(duration[i] - child_time[i] for i in idx(name)) * 1e3

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def turn_kind(i):
        turn = spans[i][TURN_OF]
        return spans[turn][TAG] if turn is not None else None

    run_turns = Counter(spans[i][TAG] for i in idx("core.episode.execute_message", RUN_PHASES))
    turns = sum(run_turns.values())

    def per_turn_kind(name, kind):
        calls = sum(1 for i in idx(name, RUN_PHASES) if turn_kind(i) == kind)
        return ratio(calls, run_turns[kind])

    def distinct_state_ratio(name):
        keys = defaultdict(set)
        for i in idx(name):
            keys[spans[i][UNIT_OF]].add(spans[i][KEY])
        return ratio(sum(len(k) for k in keys.values()), len(idx(name)))

    finish_by_episode = defaultdict(float)
    for i in idx("core.episode.finish"):
        finish_by_episode[spans[i][UNIT_OF]] += duration[i]

    repair_episode_s = sum(duration[i] for i in idx("core.episode.run_episode", REPAIRING))
    repair_agent_s = sum(duration[i] for name in ("agents.builtin.step",
                                                  "agents.external.ExecAgent.step")
                         for i in idx(name, REPAIRING))
    render_bytes = [spans[i][TAG] for i in idx("agents.base.Observation.render")]
    commands = idx("routing.commands.exec_command")

    m = {
        "core.generate.generate_query.p50_ms": us("core.generate.generate_query") / 1e3,
        "core.generate.write_batch_jsonl.ms": total_ms("core.generate.write_batch_jsonl"),
        "core.generate.read_batch_jsonl.ms": total_ms("core.generate.read_batch_jsonl"),
        "core.generate.make_environment.p50_us": us("core.generate.make_environment"),
        "routing.generate.topologies_per_query":
            ratio(len(idx("routing.state.build_topology", (GENERATE,))), queries),
        "routing.generate.pingall_per_query":
            ratio(len(idx("routing.pingall", (GENERATE,))), queries),
        "k8spolicy.generate.audits_per_query":
            ratio(len(idx("k8spolicy.connectivity.connectivity_check", (GENERATE,))), queries),
        "core.episode.execute_message.read_p50_us":
            us("core.episode.execute_message", tag="read"),
        "core.episode.execute_message.read_p99_us":
            us("core.episode.execute_message", 0.99, tag="read"),
        "core.episode.execute_message.write_p50_us":
            us("core.episode.execute_message", tag="write"),
        "core.episode.execute_message.write_p99_us":
            us("core.episode.execute_message", 0.99, tag="write"),
        "core.episode.goal_reached.p50_us": us("core.episode.goal_reached"),
        "core.episode.finish.p50_us": quantile([v * 1e6 for v in finish_by_episode.values()], 0.5),
        "core.episode.agent_share": ratio(repair_agent_s, repair_episode_s),
        "routing.pingall.calls_per_write_turn": per_turn_kind("routing.pingall", "write"),
        "routing.pingall.calls_per_read_turn": per_turn_kind("routing.pingall", "read"),
        "routing.pingall.p50_us": us("routing.pingall"),
        "routing.pingall.self_ms": self_ms("routing.pingall"),
        "routing.pingall.distinct_state_ratio": distinct_state_ratio("routing.pingall"),
        "routing.commands.exec_command.read_p50_us":
            us("routing.commands.exec_command", tag="read"),
        "routing.commands.exec_command.write_p50_us":
            us("routing.commands.exec_command", tag="write"),
        "routing.commands.exec_command.rejected_frac":
            ratio(sum(1 for i in commands if spans[i][TAG] == "invalid"), len(commands)),
        "routing.safety.judge_step_safety.p50_us": us("routing.safety.judge_step_safety"),
        "routing.state.NetState.copy.calls_per_turn":
            ratio(len(idx("routing.state.NetState.copy", RUN_PHASES)), turns),
        "routing.state.NetState.copy.p50_us": us("routing.state.NetState.copy"),
        "routing.state.NetState.state_digest.calls_per_turn":
            ratio(len(idx("routing.state.NetState.state_digest", RUN_PHASES)), turns),
        "routing.state.NetState.state_digest.p50_us": us("routing.state.NetState.state_digest"),
        "k8spolicy.connectivity.connectivity_check.calls_per_write_turn":
            per_turn_kind("k8spolicy.connectivity.connectivity_check", "write"),
        "k8spolicy.connectivity.connectivity_check.calls_per_read_turn":
            per_turn_kind("k8spolicy.connectivity.connectivity_check", "read"),
        "k8spolicy.connectivity.connectivity_check.p50_us":
            us("k8spolicy.connectivity.connectivity_check"),
        "k8spolicy.connectivity.connectivity_check.self_ms":
            self_ms("k8spolicy.connectivity.connectivity_check"),
        "k8spolicy.connectivity.connectivity_check.distinct_state_ratio":
            distinct_state_ratio("k8spolicy.connectivity.connectivity_check"),
        "k8spolicy.kubectl.exec_kubectl.read_p50_us": us("k8spolicy.kubectl.exec_kubectl", tag="read"),
        "k8spolicy.kubectl.exec_kubectl.write_p50_us":
            us("k8spolicy.kubectl.exec_kubectl", tag="write"),
        "k8spolicy.safety.judge_step_safety.p50_us": us("k8spolicy.safety.judge_step_safety"),
        "k8spolicy.model.cluster_digest.p50_us": us("k8spolicy.model.cluster_digest"),
        "cp.graph.apply_basic_op.calls_per_episode":
            ratio(len(idx("cp.graph.apply_basic_op", RUN_PHASES)), episodes),
        "cp.graph.apply_basic_op.p50_us": us("cp.graph.apply_basic_op"),
        "cp.graph.CpGraph.degree.calls_per_episode":
            ratio(len(idx("cp.graph.CpGraph.degree", RUN_PHASES)), episodes),
        "cp.graph.CpGraph.degree.self_ms": self_ms("cp.graph.CpGraph.degree"),
        "cp.graph.CpGraph.copy.p50_us": us("cp.graph.CpGraph.copy"),
        "cp.graph.CpGraph.state_digest.p50_us": us("cp.graph.CpGraph.state_digest"),
        "cp.safety.check_safety_cp.p50_us": us("cp.safety.check_safety_cp"),
        "agents.base.Observation.render.p50_us": us("agents.base.Observation.render"),
        "agents.base.Observation.render.prompt_bytes_p50": quantile(render_bytes, 0.5),
        "agents.external.ExecAgent.step.p50_ms": us("agents.external.ExecAgent.step") / 1e3,
        "agents.external.spawns_per_episode": spawns_per_episode,
        "agents.extract.extract_message.p50_us": us("agents.extract.extract_message"),
        "evaluation.metrics.score_episode.p50_us": us("evaluation.metrics.score_episode"),
    }
    for name, _, _ in WRAPS:
        m[name + ".calls"] = len(by_name.get(name, ()))
    bases = {"queries": queries, "episodes": episodes, "run_turns": turns,
             "run_write_turns": run_turns["write"]}
    return m, bases


def count_metrics(metrics):
    """The metrics of ``analyse`` that are counts or ratios of counts, not times."""
    timed = ("_us", "_ms", ".ms", "agent_share")
    return {k: v for k, v in metrics.items() if not k.endswith(timed)}
