"""Synthetic story fixtures.

Three generators stand in for the non-redistributable source corpus:

- battle: a 28-panel adventure story with seven macro-events, consistent
  action labels, and a known monster-introduction scene. Used as the
  perfect-information reference.
- romance: an 11-panel domestic story whose "Think of family" macro-event
  carries an engineered insert / insert_into label mismatch, so label
  merging visibly degrades retrieval on it.
- noise: a randomized story; `variance` controls how often action labels
  are inflected and how far storytime order drifts from reading order.

All generators return validated AnnotationDocs and are deterministic for a
given kind and seed.
"""

from __future__ import annotations

import random
from dataclasses import replace

from .annotations import (
    ActionAnn,
    AnnotationDoc,
    CharacterAnn,
    DialogueAnn,
    EventAnn,
    MacroEventAnn,
    ObjectAnn,
    PanelAnn,
)

FIXTURE_KINDS = ("battle", "romance", "noise")

# regular verbs only: the rule lemmatizer must invert every generated inflection
_NOISE_VERBS = (
    "walk", "run", "jump", "hit", "kick", "push", "pull",
    "lift", "bow", "shout", "look", "nod", "sit", "point", "grab",
)
_NOISE_WORDS = (
    "well", "now", "look", "at", "the", "sky", "we", "go", "again",
    "stay", "close", "fine", "then", "hold", "on", "quiet", "run",
)
_NOISE_OBJECTS = ("rock", "tree", "lamp", "cart", "door")
_VOWELS = set("aeiou")


def generate_fixture(kind: str, seed: int = 0, variance: float = 0.0) -> AnnotationDoc:
    """Build one of the shipped story fixtures; see module docstring."""
    if kind == "battle":
        return _battle()
    if kind == "romance":
        return _romance()
    if kind == "noise":
        if not 0.0 <= variance <= 1.0:
            raise ValueError(f"variance must be in [0, 1], got {variance}")
        return _noise(seed, variance)
    raise ValueError(f"unknown fixture kind {kind!r}, expected one of {FIXTURE_KINDS}")


# --- deterministic stories ---------------------------------------------------


class _Builder:
    """Assembles panels with position-derived ids and auto-numbered orders."""

    def __init__(self, story_id: str):
        self.story_id = story_id
        self.macros: list[MacroEventAnn] = []
        self._events: list[EventAnn] = []
        self._panels: list[PanelAnn] = []
        self._order = 0

    def panel(self, chars=(), objs=(), acts=(), dlgs=(), caps=()):
        """chars: (entity_id, name); objs: label; acts: (label, agent_entity,
        target_entity_or_object_label); dlgs: (speaker_entity_or_None, text)."""
        mi = len(self.macros)
        ei = len(self._events)
        pid = f"{mi}_{ei}_{len(self._panels)}"
        characters = tuple(
            CharacterAnn(f"c:{ent}:{pid}", ent, name) for ent, name in chars
        )
        objects = tuple(ObjectAnn(f"o:{label}:{pid}", label) for label in objs)
        by_entity = {ent: f"c:{ent}:{pid}" for ent, _ in chars}
        by_object = {label: f"o:{label}:{pid}" for label in objs}

        def ref(name):
            if name is None:
                return None
            return by_entity.get(name) or by_object[name]

        actions = tuple(
            ActionAnn(f"a:{pid}:{k}", label, agent=ref(agent), target=ref(target))
            for k, (label, agent, target) in enumerate(acts)
        )
        dialogues = tuple(
            DialogueAnn(f"d:{pid}:{k}", text, speaker=ref(spk))
            for k, (spk, text) in enumerate(dlgs)
        )
        self._panels.append(
            PanelAnn(
                id=pid,
                reading_order=self._order,
                storytime_order=self._order,
                characters=characters,
                objects=objects,
                actions=actions,
                dialogues=dialogues,
                captions=tuple(caps),
            )
        )
        self._order += 1

    def event(self, label: str):
        mi = len(self.macros)
        self._events.append(EventAnn(f"e{mi}_{len(self._events)}", label, tuple(self._panels)))
        self._panels = []

    def macro(self, label: str):
        self.macros.append(MacroEventAnn(f"m{len(self.macros)}", label, tuple(self._events)))
        self._events = []

    def doc(self) -> AnnotationDoc:
        return AnnotationDoc(story_id=self.story_id, macro_events=tuple(self.macros))


def _battle() -> AnnotationDoc:
    A = ("charA", "Arin")
    B = ("charB", "Beni")
    M = ("monster", "Monster")
    b = _Builder("battle")

    b.panel([B], acts=[("walk", "charB", None)],
            dlgs=[("charB", "A quiet morning in the village.")])
    b.panel([B], caps=["Dawn."])
    b.event("Village dawn")
    b.panel([B], dlgs=[("charB", "The market opens early today.")])
    b.panel([B])
    b.event("Road to market")
    b.panel([B], objs=["banner"], dlgs=[("charB", "Banners already, for the festival.")])
    b.panel([B])
    b.panel([B])
    b.panel([B], caps=["The long road bends north."])
    b.event("Along the river")
    b.macro("Intro to timeline")

    b.panel([A], acts=[("fight", "charA", None)], dlgs=[("charA", "Again. Faster this time.")])
    b.panel([A])
    b.panel([A])
    b.event("Training grounds")
    b.panel([A], acts=[("walk", "charA", None)], dlgs=[("charA", "Enough for one day.")])
    b.panel([A])
    b.panel([A], caps=["Dusk settles."])
    b.event("Walk home")
    b.macro("Intro main character")

    b.panel([B], acts=[("bow", "charB", None)], dlgs=[("charB", "An honor to meet you all.")])
    b.panel([B])
    b.event("Courtyard greeting")
    b.macro("Intro second character")

    b.panel([A], dlgs=[("charA", "What is that thing?")])
    b.panel([A, M], dlgs=[("monster", "Who dares enter my woods?")])
    b.panel([A, M], dlgs=[("charA", "Stay behind me!"), ("monster", "You cannot run.")])
    b.event("Monster intro")
    b.panel([A], dlgs=[("charA", "Come on, then!")])
    b.panel([A], acts=[("strike", "charA", None)])
    b.panel([A])
    b.event("First clash")
    b.macro("Monster intro")

    b.panel([B], objs=["cart"], acts=[("hit", "charB", "cart")],
            dlgs=[("charB", "Look out for the cart!")])
    b.panel([B], caps=["Too late."])
    b.event("Cart crash")
    b.macro("Street accident")

    b.panel([B, M], acts=[("meet", "charB", "monster")], dlgs=[("charB", "We meet at last.")])
    b.panel([B, M], dlgs=[("monster", "So it seems.")])
    b.event("Uneasy truce")
    b.macro("Meet characters")

    b.panel([M, B], acts=[("shout", "monster", None)],
            dlgs=[("monster", "Hear my name and tremble!")])
    b.panel([M, B])
    b.event("Terms of battle")
    b.macro("Formal monster intro")

    return b.doc()


def _romance() -> AnnotationDoc:
    H = ("heroine", "Hana")
    F = ("friend", "Saki")
    b = _Builder("romance")

    b.panel([H], objs=["letter"], acts=[("read", "heroine", "letter")],
            dlgs=[("heroine", "A letter from home.")])
    b.panel([H], caps=["Her hands would not stay still."])
    b.event("Letter arrives")
    b.macro("Message from family")

    b.panel([H, F], acts=[("cry", "heroine", None)], dlgs=[("heroine", "I can't believe it...")])
    b.panel([H, F], dlgs=[("friend", "What does it say?")])
    b.event("Tears with a friend")
    b.macro("Shock by message")

    b.panel([H], acts=[("sit", "heroine", None)], dlgs=[("heroine", "Maybe cooking will help.")])
    b.event("Intro")
    b.panel([H], objs=["rice_cooker"], acts=[("insert", "heroine", "rice_cooker")],
            dlgs=[("heroine", "The new cooker arrived.")])
    b.panel([H])
    b.event("Get new rice cooker")
    b.panel([H], objs=["rice_cooker"], acts=[("insert_into", "heroine", "rice_cooker")],
            dlgs=[("heroine", "In it goes.")])
    b.panel([H], acts=[("taste", "heroine", None)])
    b.event("Test new rice cooker")
    b.panel([H], objs=["bowl"], acts=[("eat", "heroine", "bowl")],
            dlgs=[("heroine", "It tastes like home.")])
    b.panel([H], acts=[("think", "heroine", None)],
            caps=["Far away, the table is set for one fewer."])
    b.event("Eat and think of family")
    b.macro("Think of family")

    return b.doc()


# --- randomized story --------------------------------------------------------


def _inflect(verb: str, rng: random.Random) -> str:
    form = rng.choice(("s", "ing", "ed"))
    if form == "s":
        if verb.endswith(("s", "x", "z", "ch", "sh")):
            return verb + "es"
        return verb + "s"
    stem = verb
    # double a short consonant-vowel-consonant tail (hit -> hitting)
    if (
        len(verb) >= 3
        and verb[-1] not in _VOWELS
        and verb[-1] not in "wxy"
        and verb[-2] in _VOWELS
        and verb[-3] not in _VOWELS
    ):
        stem = verb + verb[-1]
    return stem + form


def _noise(seed: int, variance: float) -> AnnotationDoc:
    rng = random.Random(seed)
    entities = [(f"ent{i}", f"Entity {i}") for i in range(rng.randint(2, 4))]
    b = _Builder(f"noise{seed}")

    for mi in range(rng.randint(2, 4)):
        for ei in range(rng.randint(1, 3)):
            for pi in range(rng.randint(1, 3)):
                chars = rng.sample(entities, rng.randint(1, min(2, len(entities))))
                char_ids = [ent for ent, _ in chars]
                objs = [rng.choice(_NOISE_OBJECTS)] if rng.random() < 0.3 else []
                acts = []
                for _ in range(rng.randint(0, 2)):
                    label = rng.choice(_NOISE_VERBS)
                    if rng.random() < variance:
                        label = _inflect(label, rng)
                    target = rng.choice(char_ids + objs + [None])
                    acts.append((label, rng.choice(char_ids), target))
                dlgs = []
                for _ in range(rng.randint(1, 2) if pi == 0 else rng.randint(0, 2)):
                    text = " ".join(
                        rng.choice(_NOISE_WORDS) for _ in range(rng.randint(2, 5))
                    )
                    dlgs.append((rng.choice(char_ids + [None]), text))
                b.panel(chars, objs=objs, acts=acts, dlgs=dlgs,
                        caps=["..."] if rng.random() < 0.2 else ())
            b.event(f"scene {mi}.{ei}")
        b.macro(f"arc {mi}")

    doc = b.doc()
    return _permute_storytime(doc, rng, variance)


def _permute_storytime(doc: AnnotationDoc, rng: random.Random, variance: float) -> AnnotationDoc:
    n = doc.panel_count()
    storytime = list(range(n))
    for _ in range(int(variance * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        storytime[i], storytime[j] = storytime[j], storytime[i]
    macros = tuple(
        replace(
            m,
            events=tuple(
                replace(
                    e,
                    panels=tuple(
                        replace(p, storytime_order=storytime[p.reading_order]) for p in e.panels
                    ),
                )
                for e in m.events
            ),
        )
        for m in doc.macro_events
    )
    return replace(doc, macro_events=macros)
