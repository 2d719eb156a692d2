"""Built-in reference agents.

* ``OracleAgent`` replays the ground truth and establishes the
  performance ceiling: every query it plays must come out correct and
  safe.
* ``NoopAgent`` answers immediately without touching anything; the
  do-no-harm baseline.
* ``RandomAgent`` emits seeded, grammar-valid commands with no strategy;
  the floor for diagnostic value.
* ``adversarial`` plays its app's sabotage before repairing everything;
  the step judge always flags it under ``strict``, and under ``lenient``
  whenever some pair through the router still works.
"""

from __future__ import annotations

import random

from ..core.types import GT_ACTION_PROGRAM, GroundTruth, QuerySpec
from ..errors import MissingInverse
from ..seeds import rng_for
from .base import MSG_COMMAND, MSG_FINAL, AgentMessage, Observation


class _ScriptedAgent:
    """Plays a fixed (machine, command) script, then a final answer."""

    def __init__(self, script, final_payload):
        self._script = list(script)
        self._final = final_payload
        self._cursor = 0

    def step(self, observation: Observation) -> AgentMessage:
        if self._cursor < len(self._script):
            machine, command = self._script[self._cursor]
            self._cursor += 1
            return AgentMessage(MSG_COMMAND, command, machine)
        return AgentMessage(MSG_FINAL, self._final)


class OracleAgent(_ScriptedAgent):
    """Replays the golden program or the stored recovery sequence."""

    def __init__(self, query: QuerySpec, truth: GroundTruth):
        if truth.kind == GT_ACTION_PROGRAM:
            super().__init__([], {"program": [a.to_json() for a in truth.program]})
            return
        if not truth.recovery:
            raise MissingInverse(f"query {query.id}: ground truth has no recovery sequence")
        super().__init__(truth.recovery, "done")


class NoopAgent(_ScriptedAgent):
    """Submits a final answer without issuing a single command."""

    def __init__(self):
        super().__init__([], "no action")


class RandomAgent:
    """Seeded, grammar-valid but strategy-free behavior.

    It issues its app's probe commands on ``machine`` in random order;
    with no probes it answers at once with a random scalar.
    """

    NUM_COMMANDS = 4  # probes before the final answer

    def __init__(self, probes: tuple, machine: str | None = None, seed: int = 0):
        self.probes = probes
        self.machine = machine
        self._rng: random.Random = rng_for(seed)
        self._turn = 0

    def step(self, observation: Observation) -> AgentMessage:
        if not self.probes:
            return AgentMessage(MSG_FINAL, {"answer": {"kind": "scalar",
                                                       "value": float(self._rng.randint(0, 10))}})
        if self._turn >= self.NUM_COMMANDS:
            return AgentMessage(MSG_FINAL, "done")
        self._turn += 1
        return AgentMessage(MSG_COMMAND, self._rng.choice(self.probes), self.machine)


# name -> constructor (app, query, truth); ``app`` is the query's ``core.generate.App``
BUILTIN_AGENTS = {
    "oracle": lambda app, query, truth: OracleAgent(query, truth),
    "noop": lambda app, query, truth: NoopAgent(),
    "random": lambda app, query, truth: RandomAgent(app.probes, app.probe_machine, query.seed),
    "adversarial": lambda app, query, truth: _ScriptedAgent(
        [*app.sabotage(truth), *truth.recovery], "done"),
}
