"""Single-turn environment for constructive capacity-planning episodes.

The agent submits one final answer: either an action program (list of
{"name", "operands"} dicts) or a typed result value. The environment
executes the program, checks structural safety of the resulting graph,
and compares the outcome against the golden program's result.
"""

from __future__ import annotations

from ..agents.base import MSG_FINAL, AgentMessage
from ..core.types import ActionSpec, GroundTruth, QuerySpec
from ..errors import NetbenchError
from .compare import compare_results
from .generate import _execute
from .graph import CpGraph, CpResult, apply_basic_op
from .safety import check_safety_cp


class CpEnvironment:
    app = "cp"

    def __init__(self, base_graph: CpGraph, query: QuerySpec, truth: GroundTruth,
                 safety_rule: str = "strict"):
        self.base = base_graph
        self.query = query
        self.truth = truth
        self.reset()

    def reset(self):
        self.state = self.base.copy()
        self.result: CpResult | None = None
        self.answered = False

    # -- episode protocol ----------------------------------------------------

    def system_status(self) -> str:
        return self.query.prompt_text

    def goal_reached(self) -> bool:
        return self.answered

    def execute_message(self, message: AgentMessage) -> tuple[str, bool, bool, bool]:
        """Apply one agent message; returns (output, step_safe, is_write, valid)."""
        if message.kind != MSG_FINAL:
            return ("This task expects a single final answer containing an action "
                    "program; interactive commands are not supported."), True, False, False

        self.answered = True
        payload = message.payload if isinstance(message.payload, dict) else {}

        if "program" in payload:
            try:
                program = [ActionSpec(a["name"], tuple(a.get("operands", ()))) for a in payload["program"]]
                state = self.base.copy()
                result = None
                for action in program:
                    state, result = apply_basic_op(state, action)
            except (NetbenchError, KeyError, TypeError, ValueError) as exc:
                return f"program rejected: {exc}", True, False, False
            self.state = state
            self.result = result
            safe = not check_safety_cp(state)
            return "program executed", safe, True, True

        if "answer" in payload:
            ans = payload["answer"]
            try:
                self.result = CpResult(ans["kind"], ans["value"])
            except (KeyError, TypeError, ValueError) as exc:
                return f"malformed answer: {exc}", True, False, False
            return "answer recorded", True, False, True

        return "final answer carries neither a program nor an answer", True, False, False

    # -- scoring -------------------------------------------------------------

    def final_digest(self) -> str:
        return self.state.state_digest()

    def is_correct(self) -> bool:
        if self.result is None:
            return False
        _, golden = _execute(self.base, self.truth.program)
        return compare_results(self.result, golden)
