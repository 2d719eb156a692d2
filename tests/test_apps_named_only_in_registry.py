"""The agents and the CLI learn what an app supports from ``REGISTRY``, not from its name.

Only ``core/generate.py`` and each app's own package name an app. This
test parses ``src/netbench/agents/*.py``, ``src/netbench/cli.py`` and the
shared reactive core ``src/netbench/core/reactive.py``, and fails on any
string constant equal to an app name, on any import from an app's
package, and on any import inside a function or class.
"""

import ast
from pathlib import Path

import pytest

from netbench.core.generate import REGISTRY
from netbench.core.types import APPS

SRC = Path(__file__).resolve().parent.parent / "src" / "netbench"
APP_PACKAGES = {"cp", "routing", "k8spolicy"}
GUARDED = [*sorted((SRC / "agents").glob("*.py")), SRC / "cli.py", SRC / "core" / "reactive.py"]


def _imported_modules(node, package):
    """The absolute dotted names an import statement in ``package`` reads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    parts = package.split(".")
    module = parts[:len(parts) - node.level + 1] if node.level else []
    if node.module:
        return [".".join([*module, node.module])]
    return [".".join([*module, alias.name]) for alias in node.names]


def findings(source: str, package: str) -> list:
    """(line, what) for each app name, app-package import and nested import."""
    found = []
    tree = ast.parse(source)
    top_level = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in APPS:
            found.append((node.lineno, f"app name {node.value!r}"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if id(node) not in top_level:
                found.append((node.lineno, "import inside a function or class"))
            for module in _imported_modules(node, package):
                parts = module.split(".")
                if parts[0] == "netbench" and len(parts) > 1 and parts[1] in APP_PACKAGES:
                    found.append((node.lineno, f"import from {module}"))
    return sorted(found)


def _package(path: Path) -> str:
    return ".".join(path.relative_to(SRC.parent).parent.parts)


def test_registry_holds_every_app_in_order():
    assert tuple(REGISTRY) == APPS


@pytest.mark.parametrize("path", GUARDED, ids=lambda p: str(p.relative_to(SRC)))
def test_no_app_is_named(path):
    assert findings(path.read_text(encoding="utf-8"), _package(path)) == []


def test_the_scan_sees_names_and_imports():
    source = "\n".join([
        "from ..routing.generate import rebuild_states",
        "from .. import k8spolicy",
        "import netbench.cp.sft",
        "from ..core.generate import REGISTRY",
        "def f(app):",
        "    from ..core import types",
        "    return app != 'routing'",
    ])
    assert findings(source, "netbench.agents") == [
        (1, "import from netbench.routing.generate"),
        (2, "import from netbench.k8spolicy"),
        (3, "import from netbench.cp.sft"),
        (6, "import inside a function or class"),
        (7, "app name 'routing'"),
    ]
