"""The reactive game shared by the ``routing`` and ``k8s`` applications.

Both apps hold a state that agent commands rewrite, and judge it by a
*verdict*: an app-specific report (a ping matrix, a flow audit) over a
universe of members (ordered node pairs, candidate flows), some of which
are *good* (the pair works, the flow conforms). A verdict exposes three
members, each computed from its own compact form, so that no judgement
builds the good set:

* ``received``: the number of good members;
* ``total``: the size of the universe;
* ``lost(after)``: whether some member good here is not good in the
  verdict ``after`` (of the same universe).

A state is solved when ``received == total``. The rules read as rules over
good sets: "no good member is lost" is ``not lost(after)``, and once nothing
is lost the good set after a write contains the one before, so it grows
strictly exactly when ``received`` grows.

A verdict is a pure function of its state, and states are never mutated
in place (commands return new ones), so each state's verdict is
computed once and held next to it.

Each app's interpreter, ``execute(state, machine, command)``, returns an
:class:`Outcome`: the state after the command, its output, and its kind,
a read, a write or an invalid turn. A read or an invalid turn returns the
very input state. The environment goes through it. Generation, injection
replay and the recovery-order search take a replay ``execute(state, *write)``
instead, and an :class:`Injection`, which each app's builder makes of a
recorded ``ActionSpec``, holds its writes in the form that replay takes:
routing's are (apply, machine, command) triples, made by ``apply``, one of
its interpreter's state transforms over typed operands, and k8s's are
(policy, merge patch) pairs, merged without kubectl's validation; neither
parses command text. A batch stores each repair as the (machine, command)
pair that ``repair`` renders of an inverse write.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..agents.base import MSG_COMMAND
from ..errors import CorruptGroundTruth, EmptyLevelSet, IneffectiveInjection, NetbenchError
from ..seeds import rng_for
from .types import GT_RECOVERY_PREDICATE, SAFETY_RULES, ActionSpec, GroundTruth, QuerySpec

READ, WRITE, INVALID = "read", "write", "invalid"  # the kinds of an interpreted command
MAX_RESAMPLES = 16


@dataclass(frozen=True)
class Outcome:
    """An interpreted command: the state after it, its output and its kind."""
    state: object
    output: str
    kind: str  # READ | WRITE | INVALID


@dataclass(frozen=True)
class Injection:
    """An injection: the action a batch records, the writes that make it, the write undoing it,
    each a write in the form that the app's replay ``execute`` takes."""
    action: ActionSpec
    forward: tuple  # ordered writes
    inverse: tuple  # one write


class Reject(Exception):
    """An invalid command, whose message is its output; only an interpreter, or an app's
    replay ``execute``, catches it."""


def solved(verdict) -> bool:
    return verdict.received == verdict.total


def judge_verdicts(before, after, rule: str = "strict") -> bool:
    """Per-write safety from the verdicts of the states before and after it.

    * ``lenient``: unsafe only if a good pair or flow stops being good
      (``before.lost(after)``).
    * ``strict``: additionally unsafe if the state was not solved and the
      write did not strictly grow the good set. Nothing was lost by then, so
      the good set after contains the one before, and it grew strictly
      exactly when ``received`` grew.
    """
    if rule not in SAFETY_RULES:
        raise ValueError(f"unknown safety rule {rule!r}")
    if before.lost(after):
        return False
    if rule == "strict" and not solved(before) and after.received <= before.received:
        return False
    return True


def replay(state, writes, execute):
    """Make ``writes`` in order, each as ``execute(state, *write)``, which must be a write."""
    for write in writes:
        outcome = execute(state, *write)
        if outcome.kind != WRITE:
            raise CorruptGroundTruth(
                f"injection command was not accepted as a write: {write[-1]!r}")
        state = outcome.state
    return state


def rebuild(app: str, healthy, actions, build, execute):
    """The state that the stored ``actions`` leave in ``healthy``: ``build(action)`` gives the
    writes that inject one, which ``replay`` makes through ``execute``; a malformed action is a
    ``CorruptGroundTruth``."""
    forward = []
    for action in actions:
        try:
            forward += build(action)
        except (AttributeError, TypeError, ValueError, NetbenchError) as exc:
            raise CorruptGroundTruth(f"malformed {app} injection {action.to_json()}: "
                                     f"{exc!r}") from None
    return replay(healthy, forward, execute)


def monotone_order(start, start_verdict, inverses, execute, verdict, state_digest,
                   target_digest: str) -> list | None:
    """Find an order of ``inverses`` whose every step strictly grows the good set.

    ``verdict(state)`` judges a state. Returns the inverses in the first
    permutation that loses no good member on any step (``lost``), raises
    ``received`` on each (so, with nothing lost, strictly grows the good
    set) and ends solved at ``target_digest``, else None.
    """
    for perm in itertools.permutations(inverses):
        cur, cur_verdict = start, start_verdict
        for inverse in perm:
            outcome = execute(cur, *inverse)
            if outcome.kind != WRITE:
                break
            nxt_verdict = verdict(outcome.state)
            if nxt_verdict.received <= cur_verdict.received or cur_verdict.lost(nxt_verdict):
                break
            cur, cur_verdict = outcome.state, nxt_verdict
        else:
            if state_digest(cur) == target_digest and solved(cur_verdict):
                return list(perm)
    return None


def generate_reactive_query(app, labels, level, seed, attempts, execute, repair, verdict,
                            state_digest, prompt) -> tuple:
    """Build one reactive query; returns (QuerySpec, GroundTruth).

    A label is drawn from ``labels[level]`` and its ``+``-joined families
    are passed to ``attempts(rng, families)``, a lazy generator of
    candidates (healthy state, setup records, injections). The first of at
    most ``MAX_RESAMPLES`` candidates whose injections are observable and
    whose inverses have a monotone order becomes the query, prompted with
    ``prompt(healthy, verdict)``. Its hidden injection is the setup
    records, then each injection's action; its recovery is ``repair(inverse)``,
    a (machine, command) pair, of each inverse in that order.
    """
    if level not in labels:
        raise EmptyLevelSet(f"no {app} injections defined for level {level}")
    rng = rng_for(seed)
    label = rng.choice(labels[level])
    candidates = attempts(rng, label.split("+"))
    for healthy, setup, injections in itertools.islice(candidates, MAX_RESAMPLES):
        broken = replay(healthy, [c for i in injections for c in i.forward], execute)
        broken_verdict = verdict(broken)
        if solved(broken_verdict):
            continue  # the injection is not observable; resample
        target_digest = state_digest(healthy)
        recovery = monotone_order(broken, broken_verdict, [i.inverse for i in injections],
                                  execute, verdict, state_digest, target_digest)
        if recovery is None:
            continue
        truth = GroundTruth(kind=GT_RECOVERY_PREDICATE, target_digest=target_digest,
                            hidden_injection=(*setup, *(i.action for i in injections)),
                            recovery=[repair(inverse) for inverse in recovery])
        query = QuerySpec(id=f"{app}-L{level}-{seed:016x}", app=app, level=level,
                          action_label=label, prompt_text=prompt(healthy, broken_verdict),
                          seed=seed)
        return query, truth
    raise IneffectiveInjection(
        f"no observable, monotonically recoverable {app} injection for {label} after "
        f"{MAX_RESAMPLES} attempts (seed {seed})")


class ReactiveEnvironment:
    """Multi-turn episode over a state held together with its verdict; it starts
    from ``state``, the broken state a ground truth rebuilds.

    Subclasses supply ``verdict(state)``,
    ``execute(state, message) -> Outcome``,
    ``report(output, verdict)`` and ``final_digest()``. Reads and
    rejected commands leave the state, and so the verdict, untouched; a
    write computes exactly one verdict, for the state it produces.
    """

    def __init__(self, state, safety_rule: str):
        self.safety_rule = safety_rule
        self.state, self.current = state, self.verdict(state)

    # -- episode protocol ----------------------------------------------------

    def goal_reached(self) -> bool:
        return solved(self.current)

    def execute_message(self, message) -> tuple[str, bool, bool, bool]:
        """Apply one agent message; returns (output, step_safe, is_write, valid)."""
        if message.kind != MSG_COMMAND:
            return "final answer recorded", True, False, True
        outcome = self.execute(self.state, message)
        if outcome.kind != WRITE:
            return outcome.output, True, False, outcome.kind == READ
        verdict = self.verdict(outcome.state)
        safe = judge_verdicts(self.current, verdict, self.safety_rule)
        self.state, self.current = outcome.state, verdict
        return self.report(outcome.output, verdict), safe, True, True

    is_correct = goal_reached  # a clean verdict is correct, whatever the repair path was
