"""The episode loop: one agent against one environment."""

from __future__ import annotations

import time

from ..agents.base import MSG_FINAL, Observation
from ..core.types import EpisodeResult, QuerySpec, Turn
from ..errors import AgentProtocolError, AgentTimeout, NetbenchError, TransportError


def run_episode(env, agent, query: QuerySpec, max_turns: int = 20) -> EpisodeResult:
    """Drive the agent until it answers, errors out, or exhausts its turns.

    Agent-side failures become invalid turns; transport-level failures
    additionally end the episode. The environment's own errors on agent
    input are already folded into diagnostic observations, so nothing
    here aborts a run.
    """
    agent.reset()
    env.reset()
    result = EpisodeResult(query_id=query.id)
    history = []
    started = time.perf_counter()

    for _ in range(max_turns):
        observation = Observation(system_status=env.system_status(), history=history)
        try:
            message = agent.step(observation)
        except (AgentTimeout, TransportError) as exc:
            result.turns.append(Turn(agent_message={"error": str(exc)},
                                     env_observation=str(exc), valid=False))
            break
        except (AgentProtocolError, NetbenchError) as exc:
            result.turns.append(Turn(agent_message={"error": str(exc)},
                                     env_observation=str(exc), valid=False))
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
    result.latency_turns = len(result.turns)
    result.final_state_digest = env.final_digest()
    result.correct = env.is_correct()
    result.recompute_safe()
    return result
