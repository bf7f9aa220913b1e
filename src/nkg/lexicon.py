"""Lexical label folding: rule lemmatizer plus a file-backed synonym lexicon.

Semantic synonymy (attack ~ strike) lives in the lexicon file; this module
only knows how to fold surface variation (case, separators, inflection).
The lemmatizer is a small suffix-rule cascade run to a fixed point, with an
exception table consulted before the rules on every pass, so irregular and
silent-e forms can be pinned explicitly.

Labels split on '_' and on whitespace, with str methods: str.split()
splits on, and str.isspace() holds for, exactly the code points the regex
class \\s matches, and lowercasing turns no other code point into one of
them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .errors import EmptyLabel, SchemaViolation
from .jsonio import load_object, require

log = logging.getLogger(__name__)

_VOWELS = set("aeiouy")
# pairs like ll/ss/zz are part of the stem, not inflection doubling
_KEEP_DOUBLED = {"ll", "ss", "zz"}


def fold_label(label: str) -> str:
    """Case and separator folding only; no lemmatization.

    Raises EmptyLabel when no token is left: "", "  ", "_" or "_ _".
    """
    folded = "_".join(label.lower().replace("_", " ").split())
    if not folded:
        raise EmptyLabel(repr(label))
    return folded


def is_label(value) -> bool:
    """A string that fold_label accepts: not empty, not only separators."""
    return isinstance(value, str) and value != "" and not value.replace("_", " ").isspace()


def _is_token(value) -> bool:
    """One token as fold_label splits a label: not empty, no '_' or whitespace."""
    return isinstance(value, str) and value.replace("_", " ").split() == [value]


@dataclass(frozen=True)
class SynonymLexicon:
    groups: tuple[frozenset[str], ...] = ()
    lemma_exceptions: dict[str, str] = field(default_factory=dict)
    _group_of: dict[str, int] = field(default_factory=dict, repr=False)

    @classmethod
    def empty(cls) -> "SynonymLexicon":
        """The one shared empty lexicon, so tables keyed by lexicon reuse it."""
        return _EMPTY

    @classmethod
    def build(cls, groups, lemma_exceptions=None) -> "SynonymLexicon":
        """Normalize group entries to lexical keys and merge overlapping groups."""
        exceptions = {
            str(k).lower(): str(v).lower() for k, v in (lemma_exceptions or {}).items()
        }
        proto = cls((), exceptions)
        merged: list[set[str]] = []
        for raw_group in groups:
            keys = {lexical_key(str(label), proto) for label in raw_group}
            if len(keys) < 2:
                continue
            overlapping = [g for g in merged if g & keys]
            for g in overlapping:
                log.warning("synonym groups overlap on %s; merging", sorted(g & keys))
                keys |= g
                merged.remove(g)
            merged.append(keys)
        merged.sort(key=lambda g: sorted(g)[0])
        group_of = {label: i for i, g in enumerate(merged) for label in g}
        return cls(tuple(frozenset(g) for g in merged), exceptions, group_of)

    def same_group(self, key_a: str, key_b: str) -> bool:
        ia = self._group_of.get(key_a)
        return ia is not None and ia == self._group_of.get(key_b)

    def link_bucket(self, key: str) -> int | str:
        """Two lexical keys link (equal, or one lexicon group) exactly when
        their buckets are equal: the group's index, or else the key itself."""
        return self._group_of.get(key, key)


_EMPTY = SynonymLexicon()


def load_lexicon(raw: bytes | str) -> SynonymLexicon:
    """Parse the lexicon JSON: {"groups": [[...], ...], "lemma_exceptions": {...}}."""
    obj = load_object(raw, "lexicon")
    groups = require(obj, "groups", list, "$", default=[])
    exceptions = require(obj, "lemma_exceptions", dict, "$", default={})
    for i, group in enumerate(groups):
        if not isinstance(group, list) or not all(map(is_label, group)):
            raise SchemaViolation(
                f"$.groups[{i}]", "expected a list of labels with a non-separator character"
            )
    # lemmatize_token maps one token to one token; a separator in either would
    # make lexical_key answer a key that keys differently, or not at all
    if not all(_is_token(k) and _is_token(v) for k, v in exceptions.items()):
        raise SchemaViolation(
            "$.lemma_exceptions", "expected map of token to token, with no '_' or whitespace"
        )
    return SynonymLexicon.build(groups, exceptions)


def _strip_suffix_once(token: str) -> str:
    """One pass of the rule cascade; returns the token unchanged if no rule fits."""
    if token.endswith("ies") and len(token) >= 5:
        return token[:-3] + "y"
    if token.endswith("sses"):
        return token[:-2]
    if token.endswith("es") and token[:-2].endswith(("s", "x", "z", "ch", "sh")):
        return token[:-2]
    if token.endswith("s") and not token.endswith("ss") and len(token) >= 3:
        return token[:-1]
    for suffix in ("ing", "ed"):
        if not token.endswith(suffix):
            continue
        stem = token[: -len(suffix)]
        if len(stem) < 2 or not (_VOWELS & set(stem)):
            continue
        if suffix == "ed" and token.endswith("eed"):
            continue  # need, feed, ...
        if (
            len(stem) >= 3
            and stem[-1] == stem[-2]
            and stem[-1] not in _VOWELS
            and stem[-2:] not in _KEEP_DOUBLED
        ):
            stem = stem[:-1]
        return stem
    return token


def lemmatize_token(token: str, lexicon: SynonymLexicon) -> str:
    """Fold one lowercase token to its lemma; exception table wins each pass."""
    path = [token]
    seen = {token}
    while True:
        nxt = lexicon.lemma_exceptions.get(token, token)
        if nxt == token:
            nxt = _strip_suffix_once(token)
        if nxt == token:
            return token
        if nxt in seen:
            # cyclic exception table: pick a fixed representative so the
            # result is still idempotent
            return min(path[path.index(nxt):])
        seen.add(nxt)
        path.append(nxt)
        token = nxt


def lexical_key(label: str, lexicon: SynonymLexicon) -> str:
    """Lowercase, split on separators, lemmatize each token, rejoin with '_'."""
    return lexical_keys([label], lexicon)[0]


def lexical_keys(labels: list[str], lexicon: SynonymLexicon) -> list[str]:
    """lexical_key of each label, lemmatizing each distinct token once."""
    lemmas: dict[str, str] = {}
    keys = []
    for label in labels:
        tokens = fold_label(label).split("_")
        for token in tokens:
            if token not in lemmas:
                lemmas[token] = lemmatize_token(token, lexicon)
        keys.append("_".join([lemmas[token] for token in tokens]))
    return keys
