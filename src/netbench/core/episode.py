"""The episode loop: one agent against one environment."""

from __future__ import annotations

import time

from ..agents.base import MSG_FINAL, Agent, Observation
from ..core.types import EpisodeResult, QuerySpec, Turn
from ..errors import AgentTimeout, NetbenchError, TransportError


def run_episode(env, agent: Agent, query: QuerySpec, max_turns: int = 20) -> EpisodeResult:
    """Drive the agent until it answers, errors out, or exhausts its turns.

    Every turn shows the agent ``query.prompt_text`` and the history so far.
    Of the environment this reads only ``execute_message``, ``goal_reached``
    and ``is_correct``; of the agent only ``step``. Both must be fresh:
    nothing here rewinds them.

    Agent-side failures become invalid turns; transport-level failures
    additionally end the episode. The environment's own errors on agent
    input are already folded into diagnostic observations, so nothing
    here aborts a run.
    """
    result = EpisodeResult(query_id=query.id)
    history = []
    started = time.perf_counter()

    for _ in range(max_turns):
        observation = Observation(system_status=query.prompt_text, history=history)
        try:
            message = agent.step(observation)
        except NetbenchError as exc:
            result.turns.append(Turn(agent_message={"error": str(exc)},
                                     env_observation=str(exc), valid=False,
                                     goal_reached=env.goal_reached()))
            if isinstance(exc, (AgentTimeout, TransportError)):
                break
            continue

        output, safe, is_write, valid = env.execute_message(message)
        turn = Turn(agent_message=message.to_json(), env_observation=output,
                    safe=safe, valid=valid, is_write=is_write,
                    goal_reached=env.goal_reached())
        result.turns.append(turn)
        history.append((message.to_json(), output))
        if message.kind == MSG_FINAL:
            break

    result.latency_wall = time.perf_counter() - started
    result.correct = env.is_correct()
    return result
