"""Export constructive (prompt, golden program) pairs for fine-tuning."""

from __future__ import annotations

from ..core.types import GT_ACTION_PROGRAM
from ..digest import canonical_json


def export_sft_records(pairs, path) -> int:
    """Write one JSON line {"prompt", "program"} per constructive pair.

    Returns the number of records written. Reactive pairs are rejected:
    they carry no supervisable action sequence.
    """
    written = 0
    with open(path, "w", encoding="utf-8") as fh:
        for query, truth in pairs:
            if truth.kind != GT_ACTION_PROGRAM:
                raise ValueError(f"query {query.id}: only constructive pairs can be exported")
            fh.write(canonical_json({"prompt": query.prompt_text,
                                     "program": [a.to_json() for a in truth.program]}) + "\n")
            written += 1
    return written
