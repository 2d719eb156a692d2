"""Multi-turn environment for reactive routing episodes.

The environment rebuilds the injected state from the ground truth,
executes agent commands through the whitelist interpreter, judges
per-write safety by reachability deltas, and reports an updated
connectivity check after every configuration change.
"""

from __future__ import annotations

from ..core.reactive import ReactiveEnvironment
from ..core.types import GroundTruth
from .commands import exec_command
from .generate import rebuild_states
from .pingall import pingall


class RoutingEnvironment(ReactiveEnvironment):
    def __init__(self, truth: GroundTruth, safety_rule: str = "strict"):
        super().__init__(rebuild_states(truth)[1], safety_rule)

    def verdict(self, state):
        return pingall(state)

    def execute(self, state, message):
        return exec_command(state, message.machine or state.router_name, str(message.payload))

    def report(self, output: str, matrix) -> str:
        report = "Configuration updated. Connectivity check:\n" + matrix.render()
        return output + "\n" + report if output else report

    def final_digest(self) -> str:
        return self.state.state_digest()
