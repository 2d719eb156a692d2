"""Built-in reference agents.

* ``OracleAgent`` replays the ground truth and establishes the
  performance ceiling: every query it plays must come out correct and
  safe.
* ``NoopAgent`` answers immediately without touching anything; the
  do-no-harm baseline.
* ``RandomAgent`` emits seeded, grammar-valid commands with no strategy;
  the floor for diagnostic value.
* ``AdversarialAgent`` deliberately breaks a working subnet before
  repairing everything; it must be flagged unsafe by the step judge.
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
        self.reset()

    def reset(self):
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

    def __init__(self, query: QuerySpec = None, truth: GroundTruth = None):
        super().__init__([], "no action")


class AdversarialAgent(_ScriptedAgent):
    """Downs a working interface, restores it, then repairs everything.

    The sabotage step breaks previously reachable pairs, so a correct
    per-step safety judge must mark the episode unsafe even though the
    network ends up fully repaired. Routing queries only.
    """

    def __init__(self, query: QuerySpec, truth: GroundTruth):
        from ..routing.generate import rebuild_states
        from ..routing.pingall import pingall
        _, injected = rebuild_states(truth)
        matrix = pingall(injected)
        router = injected.router_name
        subnet = None
        for host in sorted(injected.hosts.values(), key=lambda h: h.name):
            if matrix.reachable[(host.name, router)] and matrix.reachable[(router, host.name)]:
                subnet = host.subnet
                break
        if subnet is None:
            # every router-adjacent pair is already down; toggling any
            # interface is still a non-improving write, which the strict
            # judge flags just the same
            subnet = min(h.subnet for h in injected.hosts.values())
        iface = injected.iface_name(subnet)
        script = [(router, f"ifconfig {iface} down"),
                  (router, f"ifconfig {iface} up"),
                  *truth.recovery]
        super().__init__(script, "done")


class RandomAgent:
    """Seeded, grammar-valid but strategy-free behavior.

    It issues its app's probe commands in random order; for an app
    without probes (cp) it answers at once with a random scalar.
    """

    NUM_COMMANDS = 4  # probes before the final answer

    def __init__(self, app: str, seed: int = 0):
        # imported here: core.generate imports the environments, which import agents
        from ..core.generate import app_entry
        entry = app_entry(app)
        self.probes = entry.probes
        self.machine = entry.probe_machine
        self.seed = seed
        self.reset()

    def reset(self):
        self._rng: random.Random = rng_for(self.seed)
        self._turn = 0

    def step(self, observation: Observation) -> AgentMessage:
        if not self.probes:
            return AgentMessage(MSG_FINAL, {"answer": {"kind": "scalar",
                                                       "value": float(self._rng.randint(0, 10))}})
        if self._turn >= self.NUM_COMMANDS:
            return AgentMessage(MSG_FINAL, "done")
        self._turn += 1
        return AgentMessage(MSG_COMMAND, self._rng.choice(self.probes), self.machine)
