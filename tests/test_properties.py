"""Property tests on generated annotation documents.

Documents are small (at most 3 macro-events x 3 events x 3 panels) with
permuted reading and storytime orders and random characters, objects, actions, dialogue
and captions, so the round-trip and idempotence guarantees are checked
beyond the packaged fixtures.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from nkg.annotations import (
    ActionAnn,
    AnnotationDoc,
    CharacterAnn,
    DialogueAnn,
    EventAnn,
    MacroEventAnn,
    ObjectAnn,
    PanelAnn,
    parse_annotations,
    validate_annotations,
)
from nkg.builder import build_all
from nkg.embedding import HashedNgramProvider
from nkg.graph import PANEL_ORDERS, NodeKind, deserialize
from nkg.normalize import apply_normalization, build_normalization_map
from nkg.reasoner import reconstruct_timeline
from nkg.resources import default_lexicon

# small and derandomized so the suite stays fast and every run sees the same documents
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
HASHED = HashedNgramProvider()
LEXICON = default_lexicon()

# inflections, case and separator variants and lexicon synonyms, so that
# clusters form; free labels add ones no rule or lexicon group knows
ACTION_LABELS = (
    "walk", "walked", "Walking", "hit", "strike", "fight", "attack",
    "insert", "insert_into", "Insert-Into", "pick up", "pick_up", "look at",
)
EVENT_LABELS = ("Intro", "intro", "Monster intro", "First clash", "first-clash", "Meet")
labels = st.one_of(
    st.sampled_from(ACTION_LABELS),
    st.builds(str.__add__, st.sampled_from("aBz"), st.text("aeknrtBZ _-", max_size=8)),
)
# quotes, backslashes, newlines and non-ASCII exercise the JSON escaping
texts = st.text('ab "\\\né✓', min_size=1, max_size=8)


@st.composite
def panels(draw, panel_id: str, reading_order: int, storytime_order: int) -> PanelAnn:
    characters = tuple(
        CharacterAnn(f"c:{panel_id}:{k}", entity, draw(st.sampled_from(("", entity.title()))))
        for k, entity in enumerate(
            draw(st.lists(st.sampled_from(("ann", "bob", "cat", "dog")), max_size=3))
        )
    )
    objects = tuple(
        ObjectAnn(f"o:{panel_id}:{k}", label)
        for k, label in enumerate(draw(st.lists(labels, max_size=2)))
    )
    local_characters = [None] + [c.instance_id for c in characters]
    targets = local_characters + [o.instance_id for o in objects]
    actions = tuple(
        ActionAnn(
            f"a:{panel_id}:{k}",
            draw(labels),
            agent=draw(st.sampled_from(local_characters)),
            target=draw(st.sampled_from(targets)),
        )
        for k in range(draw(st.integers(0, 3)))
    )
    dialogues = tuple(
        DialogueAnn(f"d:{panel_id}:{k}", draw(texts), draw(st.sampled_from(local_characters)))
        for k in range(draw(st.integers(0, 2)))
    )
    return PanelAnn(
        panel_id,
        reading_order,
        storytime_order,
        characters=characters,
        objects=objects,
        actions=actions,
        dialogues=dialogues,
        captions=tuple(draw(st.lists(texts, max_size=1))),
    )


@st.composite
def documents(draw) -> AnnotationDoc:
    shape = draw(
        st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3), min_size=1, max_size=3)
    )
    reading = draw(st.permutations(range(sum(map(sum, shape)))))
    storytime = draw(st.permutations(range(sum(map(sum, shape)))))
    position = 0
    macros = []
    for mi, event_sizes in enumerate(shape):
        events = []
        for ei, size in enumerate(event_sizes):
            event_panels = []
            for pi in range(size):
                event_panels.append(draw(panels(f"{mi}_{ei}_{pi}", reading[position], storytime[position])))
                position += 1
            events.append(
                EventAnn(f"e{mi}_{ei}", draw(st.sampled_from(EVENT_LABELS)), tuple(event_panels))
            )
        macros.append(MacroEventAnn(f"m{mi}", draw(st.sampled_from(EVENT_LABELS)), tuple(events)))
    return AnnotationDoc(draw(st.sampled_from(("gen", "générée"))), tuple(macros))


@PROPERTY_SETTINGS
@given(documents())
def test_annotation_round_trip(doc):
    assert validate_annotations(doc) == []
    assert parse_annotations(doc.to_json_bytes()) == doc


@PROPERTY_SETTINGS
@given(documents())
def test_built_graph_bytes_survive_deserialization(doc):
    built = build_all(doc).to_json_bytes()
    assert deserialize(built).to_json_bytes() == built


@PROPERTY_SETTINGS
@given(documents())
def test_normalization_is_idempotent(doc):
    norm_map = build_normalization_map(doc, HASHED, LEXICON, 0.75)
    normalized = apply_normalization(build_all(doc), norm_map).to_json_bytes()
    thawed = json.loads(normalized)
    thawed["normalized"] = False
    again = apply_normalization(deserialize(json.dumps(thawed).encode()), norm_map)
    assert again.to_json_bytes() == normalized


def chain_walk(graph, edge_kind, scope):
    """Reference timeline: walk one chain from its single head, keep the scope's panels."""
    panels = {node.id for node in graph.nodes(NodeKind.PANEL)}
    heads = [p for p in panels if not graph.neighbors(p, edge_kind, "in")]
    assert len(heads) == 1
    walked = [heads[0]]
    while successors := graph.neighbors(walked[-1], edge_kind):
        assert len(successors) == 1
        walked.append(successors[0])
    assert sorted(walked) == sorted(panels)
    return [p for p in walked if p in scope]


@PROPERTY_SETTINGS
@given(documents())
def test_timeline_equals_chain_walk(doc):
    graph = build_all(doc)
    scopes = {"story": {p.id for _, _, p in doc.iter_panels()}}
    for macro in doc.macro_events:
        scopes[macro.id] = {p.id for e in macro.events for p in e.panels}
        for event in macro.events:
            scopes[event.id] = {p.id for p in event.panels}
    for order_kind, (_, edge_kind) in PANEL_ORDERS.items():
        for scope_id, scope in scopes.items():
            timeline = reconstruct_timeline(graph, scope_id, order_kind)
            assert list(timeline.panel_ids) == chain_walk(graph, edge_kind, scope)
