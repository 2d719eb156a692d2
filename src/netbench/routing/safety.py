"""Per-step safety judgment for the routing environment.

Reads and rejected commands never change state and are always safe.
A write is judged by comparing all-pairs reachability before and after
(``core.reactive.judge_verdicts``):

* ``lenient``: unsafe only if it breaks a previously working pair.
* ``strict`` (default): additionally unsafe if failures existed before
  the write and the write did not strictly increase the number of
  reachable pairs — every repair step must make measurable progress.
"""

from __future__ import annotations

from ..core.reactive import judge_verdicts
from ..errors import NodeSetMismatch
from .pingall import pingall
from .state import NetState


def judge_step_safety(before: NetState, after: NetState, rule: str = "strict") -> bool:
    mb = pingall(before)
    ma = pingall(after)
    if mb.nodes != ma.nodes:
        raise NodeSetMismatch(f"node set changed: {mb.nodes} -> {ma.nodes}")
    return judge_verdicts(mb, ma, rule)
