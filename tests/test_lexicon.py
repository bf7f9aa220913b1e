import json
import random
import string

import pytest

from nkg.errors import EmptyLabel, MalformedJson, SchemaViolation
from nkg.lexicon import (
    SynonymLexicon,
    fold_label,
    is_label,
    lemmatize_token,
    lexical_key,
    load_lexicon,
)

EMPTY = SynonymLexicon.empty()


def test_fold_label():
    assert fold_label("Insert_Into") == "insert_into"
    assert fold_label("  Eat and   think\tof family ") == "eat_and_think_of_family"
    assert fold_label("walk") == "walk"
    for bad in ("", "   ", "\t"):
        with pytest.raises(EmptyLabel):
            fold_label(bad)


@pytest.mark.parametrize("label", ["_", "__", "_ _", " _\t_ ", "\n_"])
def test_separator_only_labels_are_empty(label):
    # nothing but separators leaves no token, so no lexical key and no embedding
    with pytest.raises(EmptyLabel):
        fold_label(label)
    with pytest.raises(EmptyLabel):
        lexical_key(label, EMPTY)
    assert fold_label("_" + label + "a") == "a"


def test_is_label_is_what_fold_label_accepts():
    rng = random.Random(11)
    alphabet = " _\t\n\u00a0\u2003aZ"
    for _ in range(2000):
        value = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
        try:
            fold_label(value)
            accepted = True
        except EmptyLabel:
            accepted = False
        assert is_label(value) is accepted, repr(value)
    for not_a_string in (None, 3, ["a"], b"a"):
        assert not is_label(not_a_string)


def test_lemmatize_suffix_rules():
    cases = {
        "attacks": "attack",
        "strikes": "strike",
        "carries": "carry",
        "passes": "pass",
        "boxes": "box",
        "catches": "catch",
        "walking": "walk",
        "running": "run",
        "falling": "fall",  # ll is stem, not doubling
        "missing": "miss",
        "nodded": "nod",
        "grabbed": "grab",
        "pulled": "pull",
        "need": "need",  # -eed guard
        "is": "is",  # too short for the -s rule
        "bring": "bring",  # no vowel left in the stem
        "walk": "walk",
    }
    for token, lemma in cases.items():
        assert lemmatize_token(token, EMPTY) == lemma, token


def test_lemmatize_exceptions_win():
    lex = SynonymLexicon.build([], {"thought": "think", "striking": "strike"})
    assert lemmatize_token("thought", lex) == "think"
    assert lemmatize_token("striking", lex) == "strike"
    # without the table the rules would mangle it
    assert lemmatize_token("striking", EMPTY) == "strik"


def test_lemmatize_idempotent():
    rng = random.Random(11)
    lex = SynonymLexicon.build([], {"thought": "think", "ate": "eat", "met": "meet"})
    pool = ["attacks", "walking", "thought", "cries", "passes", "hitted", "going", "met"]
    pool += [
        "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 10)))
        for _ in range(200)
    ]
    for token in pool:
        once = lemmatize_token(token, lex)
        assert lemmatize_token(once, lex) == once, token


def test_lemmatize_survives_cyclic_exceptions():
    lex = SynonymLexicon.build([], {"a": "b", "b": "a"})
    once = lemmatize_token("a", lex)
    assert lemmatize_token(once, lex) == once
    assert lemmatize_token("b", lex) == once


def test_lexical_key():
    assert lexical_key("Insert_Into", EMPTY) == "insert_into"
    assert lexical_key("attacks", EMPTY) == "attack"
    assert lexical_key("Eat and think of family", EMPTY) == "eat_and_think_of_family"
    assert lexical_key("Walking  Home", EMPTY) == "walk_home"
    with pytest.raises(EmptyLabel):
        lexical_key(" ", EMPTY)


def test_groups_fold_to_keys_and_merge_overlaps(caplog):
    lex = SynonymLexicon.build(
        [["Attacks", "strike"], ["STRIKE", "hit"], ["insert", "insert"]],
        {},
    )
    # the two overlapping groups collapse into one; the degenerate one is dropped
    assert len(lex.groups) == 1
    assert lex.groups[0] == frozenset({"attack", "strike", "hit"})
    assert lex.same_group("attack", "hit")
    assert not lex.same_group("attack", "insert")
    assert not lex.same_group("walk", "walk")  # ungrouped labels share nothing


def test_load_lexicon_round_trip():
    raw = json.dumps(
        {
            "groups": [["attack", "strike", "fight", "hit"], ["cry", "weep"]],
            "lemma_exceptions": {"thought": "think"},
        }
    ).encode()
    lex = load_lexicon(raw)
    assert lex.same_group("attack", "hit")
    assert lex.same_group("cry", "weep")
    assert lemmatize_token("thought", lex) == "think"
    # exceptions apply when folding group entries as well
    lex2 = load_lexicon(json.dumps({"groups": [["thought", "ponder"]],
                                    "lemma_exceptions": {"thought": "think"}}).encode())
    assert lex2.same_group("think", "ponder")


def test_load_lexicon_rejects_bad_shapes():
    with pytest.raises(MalformedJson):
        load_lexicon(b"{")
    with pytest.raises(SchemaViolation):
        load_lexicon(json.dumps({"groups": "attack"}).encode())
    with pytest.raises(SchemaViolation):
        load_lexicon(json.dumps({"groups": [["ok", ""]]}).encode())
    with pytest.raises(SchemaViolation):
        load_lexicon(json.dumps({"lemma_exceptions": {"a": 3}}).encode())


@pytest.mark.parametrize(
    "exceptions",
    [{"ran": "run fast"}, {"ran": "_"}, {"ran": ""}, {"ran away": "run"}, {"_": "run"}],
)
def test_load_lexicon_rejects_lemma_exceptions_that_are_not_one_token(exceptions):
    with pytest.raises(SchemaViolation) as info:
        load_lexicon(json.dumps({"lemma_exceptions": exceptions}))
    assert info.value.path == "$.lemma_exceptions"


@pytest.mark.parametrize("bad", ["", "_", " _\t", 7, None])
def test_load_lexicon_names_the_group_with_a_blank_label(bad):
    raw = json.dumps({"groups": [["attack", "strike"], ["hit", bad]]})
    with pytest.raises(SchemaViolation) as info:
        load_lexicon(raw)
    assert info.value.path == "$.groups[1]"
