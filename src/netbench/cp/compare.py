"""Result comparison for capacity-planning queries."""

from __future__ import annotations

from .graph import CpResult


def _number(value, what: str):
    """``value`` if it is an int or a float; a JSON boolean is not a number here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, not {type(value).__name__}")
    return value


def compared_value(result: CpResult):
    """The form of ``result.value`` that comparison uses.

    Raises TypeError, ValueError or OverflowError when the value does not fit its kind:
    a ``scalar`` must be a number, a ``name-list`` a list, a ``ranked-list`` a list of
    ``[name, number]`` pairs. Other kinds compare as they are.
    """
    if result.kind == "scalar":
        return _number(result.value, "a scalar value")
    if result.kind in ("name-list", "ranked-list") and not isinstance(result.value, list):
        raise TypeError(f"a {result.kind} value must be a list")
    if result.kind == "ranked-list":
        if not all(isinstance(e, (list, tuple)) and len(e) == 2 for e in result.value):
            raise ValueError("a ranked-list value must hold [name, number] pairs")
        return [(str(n), float(_number(s, "a ranked-list score"))) for n, s in result.value]
    return result.value


def compare_results(candidate: CpResult, golden: CpResult) -> bool:
    """Type-aware equality between a candidate result and the golden one.

    Graphs compare by canonical digest (attribute-aware isomorphism for
    named graphs), lists by exact ordered equality, scalars strictly.
    A kind mismatch is always a failure.
    """
    if not isinstance(candidate, CpResult) or not isinstance(golden, CpResult):
        return False
    return candidate.kind == golden.kind and compared_value(candidate) == compared_value(golden)
