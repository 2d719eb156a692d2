"""No code changes a cp ``CpGraph``, a routing ``NetState`` or a k8s ``PolicyStore`` after it
is built.

For each package, the test parses it with ``ast`` and fails on any
assignment to or deletion of an attribute named after one of its state's
fields (``.nodes`` and ``.edges`` in ``cp``; ``.topology`` and the topology's own
fields, ``.interfaces``, ``.routes``, ``.ip_forward``, ... in ``routing``;
``.policies`` in ``k8spolicy``), or of a subscript or attribute reached through one,
and on any call of a mutating method (``add``, ``pop``, ``update``, ...) or of
``setattr`` on such a target. k8s code holds a store and a stored policy in names, so there a
subscript or attribute reached through a name ``policies`` or ``policy`` is
checked too; rebinding the name is not a write. A constructor may bind such
an attribute of the object it builds (``self.nodes = nodes`` in an
``__init__``); it may not write through one. Local dicts, lists and sets that
a constructor is later given are plain names and are not checked. A store's
per-policy views are caches filled on first use, as a graph's cached views
and a routing topology's views are, and are not a field.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "netbench"
GRAPH_FIELDS = {"nodes", "edges"}
NETSTATE_FIELDS = {"topology", "prefix", "num_switches", "hosts_per_subnet", "interfaces", "hosts",
                   "routes", "filter_rules", "prohibit_rules", "delays", "ip_forward"}
STORE_FIELDS, STORE_NAMES = {"policies"}, {"policies", "policy"}
MUTATORS = {"add", "append", "clear", "difference_update", "discard", "extend", "insert",
            "intersection_update", "pop", "popitem", "remove", "reverse", "setdefault", "sort",
            "symmetric_difference_update", "update"}


def _through_state(target, fields, names=()) -> bool:
    """Whether ``target`` is one of ``fields`` or is reached through one, or through a name
    in ``names``."""
    reached = False
    while isinstance(target, (ast.Attribute, ast.Subscript)):
        if isinstance(target, ast.Attribute) and target.attr in fields:
            return True
        target, reached = target.value, True
    return reached and isinstance(target, ast.Name) and target.id in names


def _targets(node):
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr in MUTATORS):
        targets = [node.func.value]
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id in ("setattr", "delattr") and node.args):
        targets = [node.args[0]]
    else:
        targets = []
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
        else:
            yield target


def _constructor_bindings(tree) -> set[int]:
    """The ids of the ``self.<name>`` targets that a constructor assigns."""
    return {id(target) for init in ast.walk(tree)
            if isinstance(init, ast.FunctionDef) and init.name == "__init__"
            for node in ast.walk(init) if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in _targets(node)
            if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
            and target.value.id == "self"}


def state_writes(source: str, module: str, fields, names=()) -> list[str]:
    """``module:line`` of each statement in ``source`` that changes a state."""
    tree = ast.parse(source)
    bound = _constructor_bindings(tree)
    lines = {node.lineno for node in ast.walk(tree)
             if any(id(target) not in bound and _through_state(target, fields, names)
                    for target in _targets(node))}
    return [f"{module}:{line}" for line in sorted(lines)]


def _package_writes(package: str, fields, names=()) -> list[str]:
    return [write for path in sorted((SRC / package).rglob("*.py"))
            for write in state_writes(path.read_text(encoding="utf-8"), path.name, fields, names)]


def test_no_code_changes_a_graph_after_it_is_built():
    assert _package_writes("cp", GRAPH_FIELDS) == []


def test_no_code_changes_a_routing_state_after_it_is_built():
    assert _package_writes("routing", NETSTATE_FIELDS) == []


def test_no_code_changes_a_policy_store_or_a_stored_policy_after_it_is_built():
    assert _package_writes("k8spolicy", STORE_FIELDS, STORE_NAMES) == []


def test_the_guard_sees_each_kind_of_write():
    source = """
class CpGraph:
    def __init__(self):
        self.nodes = {}
        self.edges = set()

    def add_node(self, name):
        self.nodes[name] = {}

def f(g, h, name, value):
    g.edges = set()
    del g.nodes[name]
    g.nodes[name]["attrs"]["x"] = value
    g.edges |= {name}
    g.edges.add(name)
    g.nodes[name]["attrs"].pop("x")
    a, g.nodes = 1, {}
    nodes = dict(h.nodes)
    nodes[name] = value
    return h.nodes.get(name), sorted(h.edges)
"""
    assert state_writes(source, "m", GRAPH_FIELDS) == \
        [f"m:{line}" for line in (8, 11, 12, 13, 14, 15, 16, 17)]


def test_the_guard_sees_each_kind_of_routing_write():
    source = """
class Facts:
    def __init__(self, state, name):
        self.hosts = state.hosts
        self.routes[name] = None

def f(state, route, name, ms):
    new = state.copy()
    new.routes.append(route)
    new.delays[name] = ms
    del new.interfaces[name]
    new.ip_forward = False
    new.routes.reverse()
    setattr(new.interfaces[name], "up", False)
    new.topology = state.topology
    routes = [*state.routes, route]
    routes.append(route)
    return state.copy(routes=tuple(routes), delays={**state.delays, name: ms})
"""
    assert state_writes(source, "m", NETSTATE_FIELDS) == \
        [f"m:{line}" for line in (5, 9, 10, 11, 12, 13, 14, 15)]


def test_the_guard_sees_each_kind_of_policy_store_write():
    source = """
class PolicyStore:
    def __init__(self, policies):
        self.policies = policies
        self.policies[0] = None

def f(store, policies, policy, name, spec):
    store.policies[name] = spec
    del policies[name]
    policies[name]["spec"] = spec
    policy["spec"]["ingress"].append(spec)
    policies.policies.update({})
    setattr(policy["metadata"], "name", name)
    policies = {**policies, name: spec}
    new = dict(policy)
    new["spec"] = spec
    return store.written(name, new), policies.get(name)
"""
    assert state_writes(source, "m", STORE_FIELDS, STORE_NAMES) == \
        [f"m:{line}" for line in (5, 8, 9, 10, 11, 12, 13)]
