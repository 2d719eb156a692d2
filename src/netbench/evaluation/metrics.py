"""Per-episode metric extraction."""

from __future__ import annotations

from dataclasses import dataclass

from ..core.types import EpisodeResult, QuerySpec


@dataclass(frozen=True)
class MetricRecord:
    """The scored facts about one episode, ready for aggregation."""

    query_id: str
    app: str
    level: int
    action_label: str
    correct: bool
    safe: bool
    latency_turns: int
    latency_wall: float

    def to_json(self):  # built directly: ``asdict`` deep-copies every field
        return {"query_id": self.query_id, "app": self.app, "level": self.level,
                "action_label": self.action_label, "correct": self.correct, "safe": self.safe,
                "latency_turns": self.latency_turns, "latency_wall": self.latency_wall}

    @classmethod
    def from_json(cls, data):
        data = dict(**data)  # a copy; ** takes a mapping only, so a JSON array stays malformed
        data.pop("reward", None)  # the shaped reward that older versions also wrote
        return cls(**data)


def score_episode(query: QuerySpec, result: EpisodeResult) -> MetricRecord:
    """The episode's record: safe when every turn was, its latency the number of turns."""
    if query.id != result.query_id:
        raise ValueError(f"query/result mismatch: {query.id} vs {result.query_id}")
    return MetricRecord(
        query_id=query.id,
        app=query.app,
        level=query.level,
        action_label=query.action_label,
        correct=result.correct,
        safe=all(t.safe for t in result.turns),
        latency_turns=len(result.turns),
        latency_wall=result.latency_wall,
    )
