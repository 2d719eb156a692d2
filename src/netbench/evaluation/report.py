"""Writing evaluation artifacts to disk."""

from __future__ import annotations

from pathlib import Path

from ..digest import canonical_json, read_jsonl
from .aggregate import aggregate_records, rows_to_csv
from .metrics import MetricRecord


def write_metrics_jsonl(records, path) -> int:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(canonical_json(record.to_json()) + "\n")
    return sum(1 for _ in records)


def read_metrics_jsonl(path) -> list:
    return read_jsonl(path, MetricRecord.from_json)


def emit_reports(records, directory) -> dict:
    """Write metrics.jsonl + summary.csv + summary.json; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    records = list(records)
    metrics_path = directory / "metrics.jsonl"
    write_metrics_jsonl(records, metrics_path)
    rows = aggregate_records(records)
    csv_path = directory / "summary.csv"
    csv_path.write_text(rows_to_csv(rows), encoding="utf-8")
    json_path = directory / "summary.json"
    json_path.write_text(canonical_json(rows) + "\n", encoding="utf-8")
    return {"metrics": metrics_path, "csv": csv_path, "json": json_path}
