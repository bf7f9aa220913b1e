import json
import random
import re
import string
import sys
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nkg.errors import EmptyLabel, MalformedJson, SchemaViolation
from nkg.lexicon import (
    SynonymLexicon,
    _is_token,
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


# the regex rule fold_label, is_label and _is_token kept before they split
# with str methods
OLD_SPLIT = re.compile(r"[_\s]+")


def old_fold_label(label):
    folded = "_".join(t for t in OLD_SPLIT.split(label.strip().lower()) if t)
    if not folded:
        raise EmptyLabel(repr(label))
    return folded


def old_is_label(value):
    return isinstance(value, str) and value != "" and OLD_SPLIT.fullmatch(value) is None


def old_is_token(value):
    return isinstance(value, str) and value != "" and OLD_SPLIT.search(value) is None


SPACES = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
FOLD_TEXT = st.text(
    st.sampled_from(SPACES + "_") | st.sampled_from("aZσΣςİ") | st.characters(), max_size=12
)


def assert_folds_as_the_regex_rule(text):
    try:
        want = old_fold_label(text)
    except EmptyLabel:
        with pytest.raises(EmptyLabel):
            fold_label(text)
    else:
        assert fold_label(text) == want
    assert is_label(text) is old_is_label(text)
    assert _is_token(text) is old_is_token(text)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(FOLD_TEXT)
@example("ΟΔΟΣ_ΟΔΟΣ")  # a final sigma lowercases by its context
@example("İ")  # lowercases to two code points
@example("Ab_\u2028cD\x1c")
def test_str_method_folding_equals_the_regex_rule(text):
    assert_folds_as_the_regex_rule(text)


@pytest.mark.parametrize("label", [*SPACES, "_", SPACES + "_", "_" + SPACES[::-1]])
def test_separator_only_labels_are_empty_under_both_rules(label):
    assert_folds_as_the_regex_rule(label)
    with pytest.raises(EmptyLabel):
        fold_label(label)
    assert not is_label(label) and not _is_token(label)


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


# tokens that hit the suffix rules, an exception chain and its cycles
KEY_TOKENS = st.sampled_from(
    ("walks", "walked", "Walking", "ran", "run", "runs", "a", "b", "c", "cries", "bb")
)
KEY_LABELS = st.lists(KEY_TOKENS, min_size=1, max_size=3).map("_".join) | st.text(
    "ab _cs", min_size=1, max_size=6
).filter(is_label)
KEY_EXCEPTIONS = st.sampled_from((
    {},
    {"ran": "run"},
    {"a": "b", "b": "a"},
    {"a": "b", "b": "c", "c": "a"},
    {"run": "ran", "ran": "run"},
))


def old_lexical_key(label, lexicon):
    """lexical_key without the lexicon's lemma memo."""
    return "_".join(lemmatize_token(t, lexicon) for t in fold_label(label).split("_"))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(KEY_LABELS, max_size=12), KEY_EXCEPTIONS)
def test_lexical_keys_of_a_pool_equal_each_labels_key(labels, exceptions):
    lexicon = SynonymLexicon.build([], exceptions)
    # the labels of a pool share one memo, as cluster_labels keys them
    want = [old_lexical_key(label, lexicon) for label in labels]
    assert [lexical_key(label, lexicon) for label in labels] == want


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_lemma_memo_answers_for_its_own_lexicon_only(order):
    lexicons = [SynonymLexicon.build([], {"went": "go"}), SynonymLexicon.build([], {"went": "walk"})]
    want = ["go", "walk"]
    for i in order + order:  # the second round reads each memo
        assert lexical_key("went", lexicons[i]) == want[i]
        assert lexical_key("went_home", lexicons[i]) == f"{want[i]}_home"


def test_shared_empty_lexicon_never_answers_for_one_with_exceptions():
    # each token is met first under one lexicon, then under the other
    assert lexical_key("went", EMPTY) == "went"
    lexicon = SynonymLexicon.build([], {"went": "go", "gone": "go"})
    assert lexical_key("went", lexicon) == "go"
    assert lexical_key("gone", lexicon) == "go"
    assert lexical_key("gone", EMPTY) == "gone"
    assert lexical_key("went", EMPTY) == "went"


def test_replaced_lexicon_starts_with_an_empty_lemma_memo():
    lexicon = SynonymLexicon.build([], {"went": "go"})
    assert [lexical_key(label, lexicon) for label in ("went", "walked")] == ["go", "walk"]
    assert lexicon._lemmas == {"went": "go", "walked": "walk"}
    other = replace(lexicon, lemma_exceptions={"went": "wend"})
    assert other._lemmas == {}
    assert lexical_key("went", other) == "wend"
    assert lexical_key("went", lexicon) == "go"


def test_lemma_memo_takes_no_part_in_equality_or_repr():
    used, fresh = SynonymLexicon.build([], {"went": "go"}), SynonymLexicon.build([], {"went": "go"})
    lexical_key("went", used)
    assert used._lemmas and not fresh._lemmas
    assert used == fresh
    assert repr(used) == repr(fresh)
    assert "_lemmas" not in repr(used)


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
