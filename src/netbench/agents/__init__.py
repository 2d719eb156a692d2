"""Built-in reference agents and external bridges, made from a CLI spec string."""

from __future__ import annotations

from ..core.types import GroundTruth, QuerySpec
from .builtin import AdversarialAgent, NoopAgent, OracleAgent, RandomAgent
from .external import ExecAgent, HttpAgent

BUILTIN_AGENTS = ("oracle", "noop", "random", "adversarial")


def check_agent_spec(spec: str, app: str):
    """Raise ValueError unless ``spec`` names an agent that can play ``app``."""
    if spec not in BUILTIN_AGENTS and not spec.startswith(("exec:", "http://", "https://")):
        raise ValueError(f"unknown agent spec {spec!r}")
    if spec == "adversarial" and app != "routing":
        raise ValueError(f"the adversarial agent supports only the routing app, not {app!r}")


def make_agent(spec: str, query: QuerySpec, truth: GroundTruth):
    """Instantiate an agent from its CLI spec string.

    ``oracle``/``noop``/``random``/``adversarial`` select built-ins;
    ``exec:<command>`` runs a subprocess bridge and an ``http(s)://``
    URL an HTTP one.
    """
    check_agent_spec(spec, query.app)
    if spec == "oracle":
        return OracleAgent(query, truth)
    if spec == "noop":
        return NoopAgent(query, truth)
    if spec == "random":
        return RandomAgent(query.app, seed=query.seed)
    if spec == "adversarial":
        return AdversarialAgent(query, truth)
    if spec.startswith("exec:"):
        return ExecAgent(spec[len("exec:"):], query_id=query.id)
    return HttpAgent(spec, query_id=query.id)
