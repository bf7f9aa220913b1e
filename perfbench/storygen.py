"""Deterministic scaled story generator for the benchmark.

`generate(shape, seed)` returns an annotation document in the nkg wire
format, a gold-label file, and a ground-truth sidecar, all as plain JSON
objects. The same (shape, seed) always gives the same bytes; nothing here
imports nkg, so the generator cannot drift with the code it measures.

The action vocabulary has an exact number of distinct surface labels, so
that a workload costs the same for every seed. Labels belong to concepts:

- a base verb (`kick`) or a verb-noun compound (`kick_cart`);
- inflections of a base (`kicks`, `kicking`, `kicked`, `kicks_cart`), each of
  which the rule lemmatizer folds back to the base's lexical key;
- synonyms from the default lexicon's groups (`strike`, `struck` for the
  concept `attack`).

So every label of one concept must land in one normalization cluster; the
gold file lists exactly these concepts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Regular verbs without a silent e, so every generated inflection folds back
# to the base under the rule lemmatizer (checked in selftest.py).
VERBS = (
    "kick", "push", "pull", "lift", "bow", "look", "nod", "point", "grab",
    "open", "climb", "reach", "turn", "wait", "call", "watch", "talk",
    "listen", "help", "jump", "pass", "fix", "press", "guard", "hunt",
    "kiss", "lock", "mark", "pack", "paint", "plant", "play", "pour",
    "pray", "print", "rest", "roll", "rush", "search", "sign", "spell",
    "stay", "step", "stop", "test", "thank", "touch", "train", "trap",
    "visit", "wash", "whisper", "wish", "work", "yawn", "drag", "drop",
    "float", "hug", "knock",
)
NOUNS = (
    "cart", "door", "rock", "lamp", "rope", "box", "sword", "shield", "bag",
    "map", "coin", "bell", "gate", "wall", "boat", "horse", "key", "book",
    "cup", "flag", "drum", "net", "ring", "torch", "wheel", "barrel", "chest",
    "ladder", "anchor", "basket",
)
# Lexicon groups of the packaged default lexicon, canonical first, with the
# irregular forms its exception table folds.
LEXICON_CONCEPTS = (
    ("attack", ("strike", "fight", "hit"), ("struck", "striking", "fought")),
    ("cry", ("weep", "sob"), ("cried", "wept")),
    ("walk", ("stroll",), ()),
    ("meet", ("encounter",), ("met",)),
    ("shout", ("yell",), ()),
)
PLACES = (
    "river", "market", "forest", "castle", "harbor", "village", "tower",
    "bridge", "cave", "field", "temple", "road", "garden", "palace", "mine",
    "camp", "shore", "valley", "hill", "square",
)
SCENES = (
    "chase", "duel", "feast", "storm", "escape", "ambush", "rescue", "trial",
    "parade", "meeting", "search", "vigil", "race", "bargain", "fire",
    "wedding", "funeral", "festival", "siege", "return",
)
WORDS = (
    "well", "now", "look", "at", "the", "sky", "we", "go", "again", "stay",
    "close", "fine", "then", "hold", "on", "quiet", "run", "wait", "here",
    "never", "this", "way", "come", "back", "soon", "why", "not", "yes",
)
_VOWELS = set("aeiou")


@dataclass(frozen=True)
class StoryShape:
    panels: int
    panels_per_event: int
    events_per_macro: int
    actions_per_panel: int
    dialogues_per_panel: int
    action_vocab: int  # exact number of distinct action surface labels
    event_vocab: int  # distinct event labels (macro labels come on top)
    inflection_rate: float  # share of the vocabulary that is an inflected form
    compound_rate: float  # share of base concepts that are verb_noun compounds
    synonym_rate: float  # share of the vocabulary taken from lexicon synonyms
    drift: float  # storytime swaps per panel
    entities: int = 12


@dataclass(frozen=True)
class Story:
    doc: dict
    gold: dict
    truth: dict

    def doc_bytes(self) -> bytes:
        return _dump(self.doc)

    def gold_bytes(self) -> bytes:
        return _dump(self.gold)


def _dump(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def inflect(verb: str, form: str) -> str:
    """Regular inflection; doubles a consonant-vowel-consonant tail."""
    if form == "s":
        return verb + ("es" if verb.endswith(("s", "x", "z", "ch", "sh")) else "s")
    if (
        len(verb) >= 3
        and verb[-1] not in _VOWELS
        and verb[-1] not in "wxy"
        and verb[-2] in _VOWELS
        and verb[-3] not in _VOWELS
    ):
        verb += verb[-1]
    return verb + form


def _variants(verb: str, noun: str | None) -> list[str]:
    tail = f"_{noun}" if noun else ""
    # a silent e takes only -s: the lemmatizer folds "striking", not "strikeing"
    forms = ("s",) if verb.endswith("e") else ("s", "ing", "ed")
    return [inflect(verb, form) + tail for form in forms]


def _vocabulary(shape: StoryShape, rng: random.Random):
    """(label -> concept canonical) with exactly shape.action_vocab labels."""
    vocab = shape.action_vocab
    synonym_pool = []  # (canonical, surface)
    for canonical, synonyms, irregular in LEXICON_CONCEPTS:
        for word in synonyms:
            synonym_pool += [(canonical, word)] + [(canonical, v) for v in _variants(word, None)]
        synonym_pool += [(canonical, word) for word in irregular]
    n_syn = min(round(shape.synonym_rate * vocab), len(synonym_pool))
    n_infl = round(shape.inflection_rate * vocab)
    n_base = vocab - n_syn - n_infl
    if n_base < len(LEXICON_CONCEPTS) or n_infl > 3 * n_base:
        raise ValueError(f"vocabulary of {vocab} cannot hold the requested rates")

    singles = [c for c, _, _ in LEXICON_CONCEPTS] + list(VERBS)
    n_comp = max(round(shape.compound_rate * n_base), n_base - len(singles))
    compounds = [(v, n) for v in VERBS for n in NOUNS]
    if n_comp > len(compounds):
        raise ValueError(f"vocabulary of {vocab} needs more than {len(compounds)} compounds")
    # lexicon canonicals are always bases, so their synonyms have a concept
    single_bases = singles[: len(LEXICON_CONCEPTS)] + rng.sample(
        singles[len(LEXICON_CONCEPTS):], n_base - n_comp - len(LEXICON_CONCEPTS)
    )
    bases = [(v, None) for v in single_bases] + rng.sample(compounds, n_comp)

    concept_of = {(f"{v}_{n}" if n else v): (f"{v}_{n}" if n else v) for v, n in bases}
    inflected = [
        (variant, f"{v}_{n}" if n else v) for v, n in bases for variant in _variants(v, n)
    ]
    inflected = [pair for pair in inflected if pair[0] not in concept_of]
    for label, concept in rng.sample(inflected, n_infl):
        concept_of[label] = concept
    for concept, label in rng.sample(synonym_pool, n_syn):
        concept_of[label] = concept
    if len(concept_of) != vocab:
        raise ValueError(f"vocabulary collision: {len(concept_of)} labels, wanted {vocab}")
    return concept_of


def _spread(labels: list[str], count: int, rng: random.Random) -> list[str]:
    """`count` draws that use every label at least once, in shuffled order."""
    if count < len(labels):
        raise ValueError(f"{count} slots cannot show {len(labels)} labels")
    sequence = labels + [rng.choice(labels) for _ in range(count - len(labels))]
    rng.shuffle(sequence)
    return sequence


def _event_labels(shape: StoryShape, rng: random.Random) -> list[str]:
    combos = [f"{scene} at the {place}" for scene in SCENES for place in PLACES]
    return rng.sample(combos, min(shape.event_vocab, len(combos)))


def generate(shape: StoryShape, seed: int) -> Story:
    rng = random.Random(seed)
    concept_of = _vocabulary(shape, rng)
    labels = sorted(concept_of)
    sequence = iter(_spread(labels, shape.panels * shape.actions_per_panel, rng))
    n_events = -(-shape.panels // shape.panels_per_event)
    event_labels = _spread(_event_labels(shape, rng), n_events, rng)
    entities = [f"ent{i}" for i in range(shape.entities)]

    macros: list[dict] = []
    for n in range(shape.panels):
        mi, rest = divmod(n, shape.panels_per_event * shape.events_per_macro)
        ei, pi = divmod(rest, shape.panels_per_event)
        if rest == 0:
            macros.append({"id": f"m{mi}", "label": f"{rng.choice(SCENES)} arc {mi}",
                           "events": []})
        if pi == 0:
            macros[-1]["events"].append({"id": f"e{mi}_{ei}",
                                         "label": event_labels[n // shape.panels_per_event],
                                         "panels": []})
        pid = f"{mi}_{ei}_{pi}"
        chars = rng.sample(entities, rng.randint(1, 3))
        char_ids = [f"c:{ent}:{pid}" for ent in chars]
        objects = []
        if rng.random() < 0.3:
            noun = rng.choice(NOUNS)
            objects.append({"instance_id": f"o:{noun}:{pid}", "label": noun})
        targets = char_ids + [o["instance_id"] for o in objects] + [None]
        macros[-1]["events"][-1]["panels"].append({
            "id": pid,
            "characters": [
                {"instance_id": cid, "entity_id": ent, "name": f"Entity {ent[3:]}"}
                for ent, cid in zip(chars, char_ids)
            ],
            "objects": objects,
            "actions": [
                {
                    "instance_id": f"a:{pid}:{k}",
                    "label": next(sequence),
                    "agent": rng.choice(char_ids),
                    "target": rng.choice(targets),
                }
                for k in range(shape.actions_per_panel)
            ],
            "dialogues": [
                {
                    "instance_id": f"d:{pid}:{k}",
                    "speaker": rng.choice(char_ids + [None]),
                    "text": " ".join(rng.choice(WORDS) for _ in range(rng.randint(2, 6))),
                }
                for k in range(shape.dialogues_per_panel)
            ],
            "captions": ["..."] if rng.random() < 0.1 else [],
            "reading_order": n,
            "storytime_order": n,
        })

    storytime = list(range(shape.panels))
    for _ in range(int(shape.drift * shape.panels)):
        i, j = rng.randrange(shape.panels), rng.randrange(shape.panels)
        storytime[i], storytime[j] = storytime[j], storytime[i]
    for macro in macros:
        for event in macro["events"]:
            for panel in event["panels"]:
                panel["storytime_order"] = storytime[panel["reading_order"]]

    doc = {"schema_version": 1, "story_id": f"scaled{seed}", "macro_events": macros}
    members: dict[str, list[str]] = {}
    for label in labels:
        members.setdefault(concept_of[label], []).append(label)
    gold = {"action_clusters": members}
    return Story(doc, gold, _truth(doc, concept_of))


def _truth(doc: dict, concept_of: dict[str, str]) -> dict:
    """What the queries must return, derived from the annotations alone."""
    actions: dict[str, list[str]] = {}
    entity_panels: dict[str, list[str]] = {}
    scopes: dict[str, list[dict]] = {"story": []}
    for macro in doc["macro_events"]:
        scopes[macro["id"]] = []
        for event in macro["events"]:
            scopes[event["id"]] = list(event["panels"])
            scopes[macro["id"]] += event["panels"]
            scopes["story"] += event["panels"]
            for panel in event["panels"]:
                # generation order is reading order, and instance ids sort by slot
                for action in panel["actions"]:
                    actions.setdefault(action["label"], []).append(action["instance_id"])
                for char in panel["characters"]:
                    entity_panels.setdefault(char["entity_id"], []).append(panel["id"])
    return {
        "actions_by_label": actions,
        "concept_of": concept_of,
        "panels_by_entity": entity_panels,
        "reading_order": {
            s: [p["id"] for p in sorted(ps, key=lambda p: p["reading_order"])]
            for s, ps in scopes.items()
        },
        "storytime_order": {
            s: [p["id"] for p in sorted(ps, key=lambda p: p["storytime_order"])]
            for s, ps in scopes.items()
        },
        "panels": sum(len(e["panels"]) for m in doc["macro_events"] for e in m["events"]),
    }
