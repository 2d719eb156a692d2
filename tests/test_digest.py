import hashlib
import json
import sys
import threading

from hypothesis import given, settings, strategies as st

from netbench.digest import TextDigest, canonical_json, digest


def test_canonical_json_sorts_keys():
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_canonical_json_is_compact():
    assert canonical_json([1, {"k": [2, 3]}]) == '[1,{"k":[2,3]}]'


def test_digest_is_sha256_of_canonical_text():
    obj = {"x": [1, 2], "y": "z"}
    expected = hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
    assert digest(obj) == expected


def test_digest_key_order_independent():
    assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})


def test_digest_distinguishes_values():
    assert digest({"a": 1}) != digest({"a": 2})


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=10,
)


@given(json_values)
def test_digest_stable_across_calls(obj):
    assert digest(obj) == digest(obj)
    assert len(digest(obj)) == 64


rich_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


@given(rich_json_values)
def test_canonical_json_is_json_dumps_with_its_options(obj):
    assert canonical_json(obj) == _dumps(obj)


@settings(max_examples=25, deadline=None)
@given(st.lists(rich_json_values, min_size=1, max_size=8))
def test_canonical_json_from_threads_at_once(objs):
    """The one shared encoder gives each of four threads, switched often, the text
    ``json.dumps`` gives."""
    expected = [_dumps(obj) for obj in objs]
    start, got = threading.Barrier(4), {}

    def encode(slot):
        start.wait(timeout=60)
        got[slot] = [canonical_json(obj) for _ in range(20) for obj in objs]

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=encode, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {slot: expected * 20 for slot in range(4)}


# any code point, lone surrogates too: each is escaped on its own
any_text = st.text(st.characters(exclude_categories=()))


@given(st.lists(any_text))
def test_text_digest_of_the_pieces_is_the_digest_of_their_text(pieces):
    streamed = TextDigest()
    for piece in pieces:
        streamed.update(piece)
    assert streamed.hexdigest() == digest("".join(pieces))


def test_text_digest_escapes_what_a_json_string_escapes():
    pieces = ["caf\u00e9 \U0001f600", "\"quoted\" \\", "\n", "\x01", ""]
    streamed = TextDigest()
    for piece in pieces:
        streamed.update(piece)
    assert streamed.hexdigest() == digest("".join(pieces))
    assert streamed.hexdigest() == streamed.hexdigest()  # reading it ends nothing
