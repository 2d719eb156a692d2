"""Flat key=value configuration files for the CLI.

Example::

    app = routing
    num_queries = 300
    levels = 1,2,3
    seed = 0
    max_turns = 20
    agent = oracle
    safety_rule = strict

Lines starting with ``#`` are comments; unknown keys are rejected so a
typo cannot silently fall back to a default.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from ..errors import ParseError
from .types import BenchmarkConfig


def parse_levels(text: str) -> tuple:
    """Comma-separated complexity levels, e.g. ``1,2,3``."""
    return tuple(int(p) for p in text.split(",") if p.strip())


# field name -> annotated type, e.g. "int"; the keys are the known keys
_FIELD_TYPES = {f.name: f.type for f in fields(BenchmarkConfig)}
# annotated type -> (parser, what a bad value needed); other fields stay strings
_PARSERS = {"int": (int, "an integer"), "tuple": (parse_levels, "integers")}


def parse_config(text: str) -> BenchmarkConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value

    if "app" not in values:
        raise ParseError("missing required key 'app'")
    kwargs = {}
    for key, value in values.items():
        parse, needed = _PARSERS.get(_FIELD_TYPES[key], (str, ""))
        try:
            kwargs[key] = parse(value)
        except ValueError:
            raise ParseError(f"key {key!r} needs {needed}, got {value!r}") from None
    try:
        return BenchmarkConfig(**kwargs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def load_config(path) -> BenchmarkConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))
