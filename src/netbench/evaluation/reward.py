"""Turn-level reward shaping for training-oriented consumers.

The shaping mirrors what matters operationally: invalid actions are
heavily punished, information gathering earns a small bonus, and only
a write that takes the goal from not holding to holding earns the
jackpot; a write while the goal already holds earns nothing. Routine
valid writes and final answers are neutral.
"""

from __future__ import annotations

from ..agents.base import MSG_COMMAND
from ..core.types import Turn

REWARD_INVALID = -100.0
REWARD_DIAGNOSTIC = 10.0
REWARD_GOAL_WRITE = 100.0


def turn_reward(turn: Turn, reached_before: bool = False) -> float:
    """The reward of ``turn``; ``reached_before``: the goal held before it."""
    if not turn.valid:
        return REWARD_INVALID
    if turn.is_write and turn.goal_reached and not reached_before:
        return REWARD_GOAL_WRITE
    if not turn.is_write and turn.agent_message.get("kind") == MSG_COMMAND:
        return REWARD_DIAGNOSTIC  # a successful read
    return 0.0


def episode_reward(turns) -> float:
    """Sum of turn rewards; the goal does not hold before the first turn."""
    total, reached = 0.0, False
    for turn in turns:
        total += turn_reward(turn, reached)
        reached = turn.goal_reached
    return total
