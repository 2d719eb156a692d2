"""No code in ``src/netbench/cp`` changes a ``CpGraph`` after it is built.

The test parses the package with ``ast`` and fails on any assignment to or
deletion of a ``.nodes`` or ``.edges`` attribute, or of a subscript or
attribute reached through one, and on any call of a mutating method
(``add``, ``pop``, ``update``, ...) on such a target. Only
``CpGraph.__init__`` may set the two attributes. Local dicts and sets that a
constructor is later given are plain names and are not checked.
"""

import ast
from pathlib import Path

CP = Path(__file__).resolve().parent.parent / "src" / "netbench" / "cp"
GRAPH_FIELDS = {"nodes", "edges"}
MUTATORS = {"add", "append", "clear", "difference_update", "discard", "extend", "insert",
            "intersection_update", "pop", "popitem", "remove", "setdefault", "sort",
            "symmetric_difference_update", "update"}


def _through_graph(target) -> bool:
    """Whether ``target`` is ``.nodes``/``.edges`` or is reached through one."""
    while isinstance(target, (ast.Attribute, ast.Subscript)):
        if isinstance(target, ast.Attribute) and target.attr in GRAPH_FIELDS:
            return True
        target = target.value
    return False


def _targets(node):
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr in MUTATORS):
        targets = [node.func.value]
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


def _constructor(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "CpGraph":
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and member.name == "__init__":
                    return member
    return None


def graph_writes(source: str, module: str) -> list[str]:
    """``module:line`` of each statement in ``source`` that changes a graph."""
    tree = ast.parse(source)
    init = _constructor(tree)
    exempt = {id(node) for node in ast.walk(init)} if init else set()
    lines = {node.lineno for node in ast.walk(tree)
             if id(node) not in exempt and any(map(_through_graph, _targets(node)))}
    return [f"{module}:{line}" for line in sorted(lines)]


def test_no_code_changes_a_graph_after_it_is_built():
    writes = []
    for path in sorted(CP.rglob("*.py")):
        writes += graph_writes(path.read_text(encoding="utf-8"), path.name)
    assert writes == []


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
    assert graph_writes(source, "m") == [f"m:{line}" for line in (8, 11, 12, 13, 14, 15, 16, 17)]
