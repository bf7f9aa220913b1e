import json

import pytest

from nkg.errors import MalformedJson, SchemaViolation
from nkg.jsonio import dump_canonical, load_object, require


NOT_UTF8_JSON = {
    "truncated": b"{nope",
    "empty": b"",
    "utf8-bom": "\ufeff{}".encode(),
    "utf16-bom": "{}".encode("utf-16"),
    "latin1-byte": b'{"a": "\xff"}',
    "nested-too-deep": b"[" * 100_000,
}


@pytest.mark.parametrize("raw", list(NOT_UTF8_JSON.values()), ids=list(NOT_UTF8_JSON))
def test_load_object_rejects_what_is_not_utf8_json(raw):
    with pytest.raises(MalformedJson, match="map"):
        load_object(raw, "map")


@pytest.mark.parametrize("raw", ["[]", "null", "5", '"x"'])
def test_load_object_needs_an_object(raw):
    with pytest.raises(SchemaViolation, match=r"^\$: map must be an object"):
        load_object(raw.encode(), "map")


def test_load_object_reads_bytes_and_text():
    assert load_object('{"é": 1}'.encode(), "map") == load_object('{"é": 1}', "map") == {"é": 1}


@pytest.mark.parametrize("value, kind", [(True, int), (False, int), (1, bool), (1.0, int),
                                         ("1", int), (None, str), ([], dict), ({}, list)])
def test_require_rejects_the_wrong_type_at_its_path(value, kind):
    with pytest.raises(SchemaViolation) as exc:
        require({"k": value}, "k", kind, "$.a[0]")
    assert exc.value.path == "$.a[0].k"
    assert exc.value.reason == f"expected {kind.__name__}, got {type(value).__name__}"


def test_require_reads_a_default_for_missing_or_null_only():
    assert require({"k": 0}, "k", int, "$") == 0
    assert require({"k": True}, "k", bool, "$") is True
    assert require({}, "k", str, "$", default="d") == "d"
    assert require({"k": None}, "k", str, "$", default=None) is None
    with pytest.raises(SchemaViolation, match="expected str, got int"):
        require({"k": 0}, "k", str, "$", default="d")
    with pytest.raises(SchemaViolation, match=r"^\$\.k: missing required field"):
        require({}, "k", str, "$")


def test_dump_canonical_is_sorted_indented_utf8_with_a_newline():
    obj = {"b": ["é", None], "a": {"y": 1, "x": True}}
    assert dump_canonical(obj) == (
        json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    ).encode("utf-8")
    assert dump_canonical({"b": "é", "a": 1}) == '{\n  "a": 1,\n  "b": "é"\n}\n'.encode()
