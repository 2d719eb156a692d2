"""Bridges to out-of-process agents.

Wire protocol, both transports: the framework sends one JSON object
``{"query_id": ..., "prompt": ...}`` per turn and expects one JSON
object back — either ``{"machine": ..., "command": ...}`` or
``{"final_answer": ...}``. Malformed replies surface as protocol
errors and are scored as invalid turns by the episode runner.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import time
import urllib.request
import urllib.error

from ..errors import AgentProtocolError, AgentTimeout, TransportError
from .base import AgentMessage, Observation
from .extract import extract_message

DEFAULT_TIMEOUT = 60.0


class ExecAgent:
    """Line-oriented subprocess agent: one JSON request line, one reply line.

    A reply must arrive within ``timeout`` seconds; on a timeout the
    process is killed, so a late reply is never read as the next one.
    """

    def __init__(self, command: str, query_id: str = "", timeout: float = DEFAULT_TIMEOUT):
        self.command = command
        self.query_id = query_id
        self.timeout = timeout
        self._proc = None

    def _ensure(self):
        if self._proc is None or self._proc.poll() is not None:
            # its own process group, so close() also ends what the shell started
            self._proc = subprocess.Popen(self.command, shell=True, start_new_session=True,
                                          stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            self._pending = b""  # bytes read past the last reply line

    def _readline(self) -> bytes:
        """One line from the raw output fd; b"" at end of output."""
        deadline = time.monotonic() + self.timeout
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                self.close()
                raise AgentTimeout(f"no reply from {self.command!r} in {self.timeout}s")
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            self._pending += chunk
        line, newline, self._pending = self._pending.partition(b"\n")
        return line + newline

    def step(self, observation: Observation) -> AgentMessage:
        self._ensure()
        request = json.dumps({"query_id": self.query_id, "prompt": observation.render()})
        try:
            self._proc.stdin.write((request + "\n").encode("utf-8"))
            self._proc.stdin.flush()
            line = self._readline().decode("utf-8", errors="replace")
        except (BrokenPipeError, OSError) as exc:
            raise TransportError(f"agent process failed: {exc}") from exc
        if not line:
            raise TransportError("agent process closed its output")
        message = extract_message(line)
        if message is None:
            raise AgentProtocolError(f"unusable agent reply: {line.strip()!r}")
        return message

    def close(self):
        if self._proc is not None:
            try:
                os.killpg(self._proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the group has already exited
            self._proc.wait()
            self._proc = None


class HttpAgent:
    """POSTs each turn to an HTTP endpoint returning a JSON message."""

    def __init__(self, url: str, query_id: str = "", timeout: float = DEFAULT_TIMEOUT):
        self.url = url
        self.query_id = query_id
        self.timeout = timeout

    def step(self, observation: Observation) -> AgentMessage:
        body = json.dumps({"query_id": self.query_id,
                           "prompt": observation.render()}).encode("utf-8")
        request = urllib.request.Request(
            self.url, data=body, headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                text = response.read().decode("utf-8")
        except TimeoutError as exc:
            raise AgentTimeout(f"no reply from {self.url} in {self.timeout}s") from exc
        except (urllib.error.URLError, OSError) as exc:
            raise TransportError(f"request to {self.url} failed: {exc}") from exc
        message = extract_message(text)
        if message is None:
            raise AgentProtocolError(f"unusable agent reply: {text.strip()!r}")
        return message
