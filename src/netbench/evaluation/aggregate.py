"""Grouped benchmark summaries with confidence intervals."""

from __future__ import annotations

import io
import csv

from ..errors import AppMismatch, ZeroSamples
from .stats import ci95

CSV_HEADER = ("group", "n", "correct_rate", "correct_lo", "correct_hi",
              "safe_rate", "safe_lo", "safe_hi", "mean_turns")


def aggregate_records(records) -> list:
    """Fold metric records into one summary row per ``app/L<level>`` group.

    Rows are dicts matching CSV_HEADER, sorted by group name. Mixing
    applications raises: their correctness notions are not comparable in
    one table.
    """
    records = list(records)
    if not records:
        raise ZeroSamples("no metric records to aggregate")
    if len({r.app for r in records}) > 1:
        raise AppMismatch(f"records span several applications: {sorted({r.app for r in records})}")
    groups = {}
    for record in records:
        groups.setdefault(f"{record.app}/L{record.level}", []).append(record)

    rows = []
    for group in sorted(groups):
        members = groups[group]
        n = len(members)
        correct = ci95(sum(r.correct for r in members), n)
        safe = ci95(sum(r.safe for r in members), n)
        rows.append({
            "group": group,
            "n": n,
            "correct_rate": correct.rate,
            "correct_lo": correct.lo,
            "correct_hi": correct.hi,
            "safe_rate": safe.rate,
            "safe_lo": safe.lo,
            "safe_hi": safe.hi,
            "mean_turns": sum(r.latency_turns for r in members) / n,
        })
    return rows


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        formatted = dict(row)
        for field in CSV_HEADER[2:]:
            formatted[field] = f"{row[field]:.6f}"
        writer.writerow(formatted)
    return buf.getvalue()
