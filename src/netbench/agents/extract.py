"""Tolerant extraction of agent messages from free-form model output.

Agents (particularly external language models) wrap their JSON in prose
or code fences; this module finds the first balanced JSON object and
maps it onto the message protocol. Extraction never raises: anything
unusable yields ``None`` and is recorded as an invalid turn upstream.
"""

from __future__ import annotations

import json

from .base import MSG_COMMAND, MSG_FINAL, AgentMessage


def _candidate_objects(text: str):
    depth = 0
    start = None
    in_string = False
    escape = False
    for i, ch in enumerate(text):
        if in_string:
            if escape:
                escape = False
            elif ch == "\\":
                escape = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "{":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "}":
            if depth > 0:
                depth -= 1
                if depth == 0 and start is not None:
                    yield text[start:i + 1]
                    start = None


def extract_message(text: str) -> AgentMessage | None:
    """Map the first usable JSON object in ``text`` to an AgentMessage."""
    if not isinstance(text, str):
        return None
    for blob in _candidate_objects(text):
        try:
            obj = json.loads(blob)
        except (ValueError, RecursionError):  # not JSON, a huge integer, or nested too deeply
            continue
        if not isinstance(obj, dict):
            continue
        if "command" in obj and obj["command"]:
            machine = obj.get("machine")
            return AgentMessage(MSG_COMMAND, str(obj["command"]),
                                str(machine) if machine else None)
        if "final_answer" in obj:
            return AgentMessage(MSG_FINAL, obj["final_answer"])
        if "program" in obj or "answer" in obj:
            return AgentMessage(MSG_FINAL, obj)
    return None
