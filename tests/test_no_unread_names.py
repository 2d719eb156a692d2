"""Every function, class, method and property in ``src/netbench`` is read by other program code.

A use is a load of the name, as a ``Name`` or an ``Attribute``, anywhere in
``src/netbench`` outside the definition itself. An import is not a use, so a
name that only tests or a re-export list reach fails here. Exempt are the
functions the benchmark in ``perfbench/`` hooks by "module:qualname", dunders and
methods the program calls through ``getattr``.
"""

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "netbench"

CALLED_THROUGH_GETATTR = {"close"}  # cli closes an agent when it has a close method


def _hook_targets():
    """The "module:qualname" targets of perfbench's tracer and host clock."""
    saved = list(sys.path)
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        tracing, run = importlib.import_module("tracing"), importlib.import_module("run")
    finally:
        sys.path[:] = saved
    targets = {t for _, names, _ in tracing.WRAPS for t in names}
    targets |= {options["key"] for _, _, options in tracing.WRAPS if "key" in options}
    return targets | set(run.HostClock.SAMPLED_AFTER)


def _loads(tree) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
    return names


def _definitions(tree):
    """(qualname, node) for each module-level function or class and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    yield f"{node.name}.{member.name}", member


def test_every_definition_has_a_reader():
    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        dotted = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        modules[dotted.removesuffix(".__init__")] = ast.parse(path.read_text(encoding="utf-8"))
    loads = Counter()
    for tree in modules.values():
        loads.update(_loads(tree))
    hooked = _hook_targets()

    unread = []
    for module, tree in modules.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if (name.startswith("__") or name in CALLED_THROUGH_GETATTR
                    or f"{module}:{qualname}" in hooked):
                continue
            if loads[name] - _loads(node)[name] == 0:
                unread.append(f"{module}:{qualname}")
    assert unread == []
