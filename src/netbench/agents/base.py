"""Agent-facing message and observation types, and the agent protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

MSG_COMMAND = "command"
MSG_FINAL = "final-answer"


@dataclass(frozen=True)
class AgentMessage:
    """One agent utterance: either a single command or a terminal answer."""

    kind: str
    payload: object = None
    machine: str | None = None  # routing only; absent elsewhere

    def __post_init__(self):
        if self.kind not in (MSG_COMMAND, MSG_FINAL):
            raise ValueError(f"unknown message kind {self.kind!r}")
        if self.kind == MSG_COMMAND and not self.payload:
            raise ValueError("command messages need a nonempty payload")

    def to_json(self):
        return {"kind": self.kind, "machine": self.machine, "payload": self.payload}


@dataclass
class Observation:
    """What the agent sees each turn: current status plus full history."""

    system_status: str
    history: list = field(default_factory=list)  # (message dict, output text) pairs

    def render(self) -> str:
        parts = [self.system_status]
        if self.history:
            parts.append("")
            parts.append("Previous actions and results:")
            for msg, out in self.history:
                parts.append(f"> {msg}")
                parts.append(out)
        return "\n".join(parts)


@runtime_checkable
class Agent(Protocol):
    """An agent consumes observations and produces one message per turn."""

    def step(self, observation: Observation) -> AgentMessage:  # pragma: no cover - protocol
        ...

    def reset(self) -> None:  # pragma: no cover - protocol
        ...
