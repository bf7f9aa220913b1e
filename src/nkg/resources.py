"""Loaders for the data files shipped inside the package.

The files themselves are regenerated by scripts/regen_data.py; nothing in
here should be edited by hand.
"""

from __future__ import annotations

import json
from importlib.resources import files
from pathlib import Path

from .lexicon import SynonymLexicon, load_lexicon

STORY_KINDS = ("battle", "romance")


def data_path(name: str) -> Path:
    return Path(str(files("nkg").joinpath("data", name)))


def read_data(name: str) -> bytes:
    return files("nkg").joinpath("data", name).read_bytes()


def default_lexicon() -> SynonymLexicon:
    return load_lexicon(read_data("default_lexicon.json"))


def gold_labels_bytes(kind: str) -> bytes:
    """Gold action-cluster file for one of the two story fixtures."""
    if kind not in STORY_KINDS:
        raise ValueError(f"no gold labels for {kind!r}")
    return read_data(f"{kind}_gold.json")


def manifest(kind: str) -> dict:
    """Expected node/edge tallies for a story fixture's graph."""
    if kind not in STORY_KINDS:
        raise ValueError(f"no manifest for {kind!r}")
    return json.loads(read_data(f"{kind}_manifest.json"))
