"""Canonical serialization, state digests, and reading JSONL files.

Digests are computed over an order-independent canonical JSON form
(sorted keys, sorted collections where the model says order is
irrelevant) so that two equivalent states always hash identically
across runs and platforms.
"""

import hashlib
import json
from pathlib import Path

from .errors import ParseError


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace drift. One encoder serves every
    call: ``json.dumps`` with options builds a new one each time, and encoding keeps no state
    on the encoder, so threads may share it."""
    return _CANONICAL.encode(obj)


def digest(obj) -> str:
    """Hex sha256 of the canonical JSON form of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


class TextDigest:
    """``digest(text)`` of a text that arrives in pieces, so that nothing holds or rereads it.

    ``digest`` hashes the text as a JSON string literal: a quote, each character escaped
    on its own, a quote. So the escaped pieces hash, in order, to the same value as the
    escaped whole.
    """

    def __init__(self):
        self._sha = hashlib.sha256(b'"')

    def update(self, piece: str) -> None:
        self._sha.update(canonical_json(piece)[1:-1].encode("ascii"))

    def hexdigest(self) -> str:
        sha = self._sha.copy()
        sha.update(b'"')
        return sha.hexdigest()


def read_jsonl(path, parse, text_digest=None) -> list:
    """``parse(obj)`` for the object on each nonblank line of a JSONL file.

    A line that is not JSON, or whose object ``parse`` rejects with a
    KeyError, TypeError or ValueError, raises ParseError naming the file
    and the line. Every line read, blank ones too, also goes to
    ``text_digest.update`` when given, so one read yields the file's digest.
    """
    parsed = []
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if text_digest is not None:
                text_digest.update(line)
            if line.strip():
                try:
                    parsed.append(parse(json.loads(line)))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ParseError(f"{path}:{lineno}: {exc!r}") from None
    return parsed
