"""Agent protocol, built-in reference agents, and external bridges."""

from __future__ import annotations

from ..core.types import GroundTruth, QuerySpec
from .base import MSG_COMMAND, MSG_FINAL, Agent, AgentMessage, Observation
from .builtin import AdversarialAgent, NoopAgent, OracleAgent, RandomAgent
from .extract import extract_message
from .external import ExecAgent, HttpAgent

BUILTIN_AGENTS = ("oracle", "noop", "random", "adversarial")


def make_agent(spec: str, query: QuerySpec, truth: GroundTruth):
    """Instantiate an agent from its CLI spec string.

    ``oracle``/``noop``/``random``/``adversarial`` select built-ins;
    ``exec:<command>`` runs a subprocess bridge and an ``http(s)://``
    URL an HTTP one.
    """
    if spec == "oracle":
        return OracleAgent(query, truth)
    if spec == "noop":
        return NoopAgent(query, truth)
    if spec == "random":
        return RandomAgent(query.app, seed=query.seed)
    if spec == "adversarial":
        if query.app != "routing":
            raise ValueError(f"the adversarial agent supports only the routing app, "
                             f"not {query.app!r}")
        return AdversarialAgent(query, truth)
    if spec.startswith("exec:"):
        return ExecAgent(spec[len("exec:"):], query_id=query.id)
    if spec.startswith(("http://", "https://")):
        return HttpAgent(spec, query_id=query.id)
    raise ValueError(f"unknown agent spec {spec!r}")


__all__ = [
    "Agent",
    "AgentMessage",
    "AdversarialAgent",
    "BUILTIN_AGENTS",
    "ExecAgent",
    "HttpAgent",
    "MSG_COMMAND",
    "MSG_FINAL",
    "NoopAgent",
    "Observation",
    "OracleAgent",
    "RandomAgent",
    "extract_message",
    "make_agent",
]
