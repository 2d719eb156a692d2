"""Per-step safety judgment for the network-policy environment.

The reachability analog here is the set of candidate flows whose actual
connectivity matches the expected service graph ("conforming" flows).
Reads and rejected commands are always safe; a write is judged by the
conforming-set delta (``core.reactive.judge_verdicts``), mirroring the
routing rules:

* ``lenient``: unsafe only if a previously conforming flow stops
  conforming.
* ``strict`` (default): additionally unsafe if mismatches existed and
  the write did not strictly grow the conforming set.
"""

from __future__ import annotations

from ..core.reactive import judge_verdicts
from .connectivity import connectivity_check
from .model import PolicyStore


def judge_step_safety(before: PolicyStore, after: PolicyStore, rule: str = "strict") -> bool:
    return judge_verdicts(connectivity_check(before), connectivity_check(after), rule)
