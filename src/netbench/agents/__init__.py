"""Built-in reference agents and external bridges, made from a CLI spec string."""

from __future__ import annotations

# the module, not its names: core.generate may still be loading (its apps import agents.base)
from ..core import generate as registry
from ..core.types import GroundTruth, QuerySpec
from .builtin import BUILTIN_AGENTS
from .external import ExecAgent, HttpAgent


def check_agent_spec(spec: str, app: str):
    """Raise ValueError unless ``spec`` names an agent that can play ``app``."""
    if spec not in BUILTIN_AGENTS and not spec.startswith(("exec:", "http://", "https://")):
        raise ValueError(f"unknown agent spec {spec!r}")
    if spec == "adversarial" and registry.app_entry(app).sabotage is None:
        raise ValueError(f"the adversarial agent supports only apps with a sabotage step "
                         f"({registry.apps_with('sabotage')}), not {app!r}")


def make_agent(spec: str, query: QuerySpec, truth: GroundTruth):
    """Instantiate an agent from its CLI spec string.

    A key of ``BUILTIN_AGENTS`` selects a built-in; ``exec:<command>``
    runs a subprocess bridge and an ``http(s)://`` URL an HTTP one.
    """
    check_agent_spec(spec, query.app)
    if spec in BUILTIN_AGENTS:
        return BUILTIN_AGENTS[spec](registry.app_entry(query.app), query, truth)
    if spec.startswith("exec:"):
        return ExecAgent(spec[len("exec:"):], query_id=query.id)
    return HttpAgent(spec, query_id=query.id)
