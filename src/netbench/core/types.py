"""Application-agnostic domain types.

These are the shared currency between the generators, the environments,
the agents and the metric layer: parameterized actions, generated
queries with executable ground truths, per-episode transcripts, and the
user-facing benchmark configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

APPS = ("cp", "routing", "k8s")

GT_ACTION_PROGRAM = "action-program"
GT_RECOVERY_PREDICATE = "recovery-predicate"


@dataclass(frozen=True)
class ActionSpec:
    """A named action with ordered operands (node names, method index, ...)."""

    name: str
    operands: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "operands", tuple(self.operands))

    def to_json(self):
        return {"name": self.name, "operands": list(self.operands)}

    @classmethod
    def from_json(cls, data):
        return cls(data["name"], tuple(data["operands"]))


@dataclass(frozen=True)
class GroundTruth:
    """Executable target for a query.

    ``kind`` is ``action-program`` for constructive queries (``program``
    holds the golden action sequence) and ``recovery-predicate`` for
    reactive ones (``hidden_injection`` holds the fault sequence and
    ``recovery`` the ordered (machine, command) repairs that invert it;
    ``target_digest`` is the digest of the healthy pre-injection state).
    """

    kind: str
    target_digest: str
    program: tuple = ()
    hidden_injection: tuple = ()
    recovery: tuple = ()  # ordered (machine, command) pairs for the oracle

    def __post_init__(self):
        object.__setattr__(self, "program", tuple(self.program))
        object.__setattr__(self, "hidden_injection", tuple(self.hidden_injection))
        object.__setattr__(self, "recovery", tuple(tuple(r) for r in self.recovery))
        if self.kind == GT_ACTION_PROGRAM:
            if not self.program or self.hidden_injection:
                raise ValueError("action-program truth requires a nonempty program and no injection")
        elif self.kind == GT_RECOVERY_PREDICATE:
            if not self.hidden_injection:
                raise ValueError("recovery-predicate truth requires a nonempty injection")
        else:
            raise ValueError(f"unknown ground-truth kind {self.kind!r}")

    def to_json(self):
        return {
            "kind": self.kind,
            "target_digest": self.target_digest,
            "program": [a.to_json() for a in self.program],
            "hidden_injection": [a.to_json() for a in self.hidden_injection],
            "recovery": [list(r) for r in self.recovery],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            kind=data["kind"],
            target_digest=data["target_digest"],
            program=tuple(ActionSpec.from_json(a) for a in data["program"]),
            hidden_injection=tuple(ActionSpec.from_json(a) for a in data["hidden_injection"]),
            recovery=tuple(tuple(r) for r in data["recovery"]),
        )


@dataclass(frozen=True)
class QuerySpec:
    """A generated benchmark query."""

    id: str
    app: str
    level: int
    action_label: str
    prompt_text: str
    seed: int

    def __post_init__(self):
        if self.app not in APPS:
            raise ValueError(f"unknown app {self.app!r}")
        if self.level not in (1, 2, 3):
            raise ValueError(f"level must be 1-3, got {self.level}")

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, data):
        return cls(**data)


@dataclass
class Turn:
    """One agent/environment exchange inside an episode."""

    agent_message: dict
    env_observation: str
    safe: bool = True
    valid: bool = True
    is_write: bool = False
    goal_reached: bool = False


@dataclass
class EpisodeResult:
    """Full outcome of one episode: transcript plus scored booleans."""

    query_id: str
    turns: list[Turn] = field(default_factory=list)
    final_state_digest: str = ""
    correct: bool = False
    safe: bool = True
    latency_turns: int = 0
    latency_wall: float = 0.0

    @property
    def step_safety(self) -> list[bool]:
        return [t.safe for t in self.turns]

    def recompute_safe(self) -> bool:
        # safety is the conjunction over per-turn judgments
        self.safe = all(t.safe for t in self.turns)
        return self.safe

    def to_json(self):
        return {
            "query_id": self.query_id,
            "turns": [
                {
                    "agent_message": t.agent_message,
                    "env_observation": t.env_observation,
                    "safe": t.safe,
                    "valid": t.valid,
                    "is_write": t.is_write,
                    "goal_reached": t.goal_reached,
                }
                for t in self.turns
            ],
            "final_state_digest": self.final_state_digest,
            "correct": self.correct,
            "safe": self.safe,
            "step_safety": self.step_safety,
            "latency_turns": self.latency_turns,
            "latency_wall": self.latency_wall,
        }


@dataclass
class BenchmarkConfig:
    """User-facing generation/run configuration."""

    app: str
    num_queries: int = 100
    levels: tuple = (1, 2, 3)
    seed: int = 0
    max_turns: int = 20
    agent: str = "oracle"
    parallelism: int = 1
    safety_rule: str = "strict"  # or "lenient"

    def __post_init__(self):
        self.levels = tuple(sorted(set(int(l) for l in self.levels)))
        self.validate()

    def validate(self):
        if self.app not in APPS:
            raise ValueError(f"unknown app {self.app!r}")
        if self.num_queries < 1:
            raise ValueError("num_queries must be >= 1")
        if not self.levels or any(l not in (1, 2, 3) for l in self.levels):
            raise ValueError("levels must be a nonempty subset of {1,2,3}")
        if self.max_turns < 1:
            raise ValueError("max_turns must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.safety_rule not in ("strict", "lenient"):
            raise ValueError("safety_rule must be 'strict' or 'lenient'")

    def to_json(self):
        return {**asdict(self), "levels": list(self.levels)}
