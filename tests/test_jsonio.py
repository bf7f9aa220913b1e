import json
import sys

import pytest

from nkg.annotations import parse_annotations
from nkg.builder import build_all
from nkg.cli import main
from nkg.errors import MalformedJson, SchemaViolation
from nkg.fixtures import generate_fixture
from nkg.graph import deserialize
from nkg.jsonio import dump_canonical, load_object, require
from nkg.lexicon import SynonymLexicon
from nkg.normalize import NormalizationMap, build_normalization_map


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


@pytest.fixture
def int_digit_limit():
    """Python's limit on the digits of an integer string, set to 1000 for the
    test whatever PYTHONINTMAXSTRDIGITS says, then put back."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on integer string digits")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    yield 1000
    sys.set_int_max_str_digits(before)


def with_long_integer(raw: bytes, digits: int) -> bytes:
    """The JSON object with one more top-level field: an integer of `digits` digits."""
    return b'{"long": ' + b"7" * digits + b", " + raw.lstrip()[1:]


def valid_files():
    doc = generate_fixture("battle")
    return {
        "annotation document": (doc.to_json_bytes(), parse_annotations),
        "graph": (build_all(doc).to_json_bytes(), deserialize),
        "normalization map": (
            build_normalization_map(doc, None, SynonymLexicon.empty()).to_json_bytes(),
            NormalizationMap.from_json_bytes,
        ),
    }


@pytest.mark.parametrize("what", ["annotation document", "graph", "normalization map"])
def test_over_long_integers_are_malformed_json(int_digit_limit, what):
    raw, read = valid_files()[what]
    read(with_long_integer(raw, int_digit_limit))  # at the limit: reads
    with pytest.raises(MalformedJson, match=f"^invalid {what} JSON: ") as info:
        read(with_long_integer(raw, int_digit_limit + 1))
    assert info.value.exit_code == 2


def test_build_exits_2_on_an_over_long_integer(int_digit_limit, tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_bytes(with_long_integer(generate_fixture("battle").to_json_bytes(), 5000))
    assert main(["build", "--input", str(doc), "--output", str(tmp_path / "raw.json")]) == 2
    assert "invalid annotation document JSON" in capsys.readouterr().err


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
