"""Single-turn environment for constructive capacity-planning episodes.

The agent submits one final answer: either an action program (list of
{"name", "operands"} dicts) or a typed result value. The environment
executes the program, checks structural safety of the resulting graph,
and compares the outcome against the golden program's result.
"""

from __future__ import annotations

from ..agents.base import MSG_FINAL, AgentMessage
from ..core.types import ActionSpec, GroundTruth
from ..errors import NetbenchError
from .compare import compare_results, compared_value
from .graph import WRITE_OPS, CpGraph, CpResult, run_program
from .safety import check_safety_cp


class CpEnvironment:
    """A single-turn episode; its safety is structural (``check_safety_cp``), so no
    safety rule applies."""

    def __init__(self, base_graph: CpGraph, truth: GroundTruth):
        self.base = self.state = base_graph
        self.result: CpResult | None = None
        if truth.program[-1].name in WRITE_OPS:  # generation stored its graph's digest
            self.golden = CpResult("graph", truth.target_digest)
        else:
            _, self.golden = run_program(base_graph, truth.program)

    # -- episode protocol ----------------------------------------------------

    def execute_message(self, message: AgentMessage) -> tuple[str, bool, bool, bool]:
        """Apply one agent message; returns (output, step_safe, is_write, valid)."""
        if message.kind != MSG_FINAL:
            return ("This task expects a single final answer containing an action "
                    "program; interactive commands are not supported."), True, False, False

        payload = message.payload if isinstance(message.payload, dict) else {}

        if "program" in payload:
            try:
                program = [ActionSpec(a["name"], tuple(a.get("operands", ()))) for a in payload["program"]]
                state, result = run_program(self.base, program)
            except (NetbenchError, KeyError, TypeError, ValueError, OverflowError) as exc:
                return f"program rejected: {exc}", True, False, False
            self.state = state
            self.result = result
            safe = state is self.base or not check_safety_cp(state)  # wrote nothing: a read
            return "program executed", safe, True, True

        if "answer" in payload:
            ans = payload["answer"]
            try:
                result = CpResult(ans["kind"], ans["value"])
                compared_value(result)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                return f"malformed answer: {exc}", True, False, False
            self.result = result
            return "answer recorded", True, False, True

        return "final answer carries neither a program nor an answer", True, False, False

    # -- scoring -------------------------------------------------------------

    def final_digest(self) -> str:
        return self.state.state_digest()

    def is_correct(self) -> bool:
        return compare_results(self.result, self.golden)

    goal_reached = is_correct  # an answer reaches the goal when it is correct
