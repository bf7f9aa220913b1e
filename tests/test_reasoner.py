import json
import random

import pytest

from nkg.annotations import parse_annotations
from nkg.builder import build_all
from nkg.embedding import HashedNgramProvider, VectorFileProvider
from nkg.errors import (
    BrokenChain,
    EmptyLabel,
    NotAnEventNode,
    NotNormalized,
    UnknownEntity,
    UnknownEvent,
    UnknownNode,
    UnknownScope,
)
from nkg.fixtures import generate_fixture
from nkg.graph import EdgeKind, NodeKind, deserialize
from nkg.lexicon import SynonymLexicon, fold_label
from nkg.normalize import (
    EVENT_POOL,
    NormalizationMap,
    LabelCluster,
    apply_normalization,
    build_normalization_map,
)
from nkg.reasoner import (
    character_trajectory,
    reconstruct_timeline,
    retrieve_actions,
    summarize_event,
    trace_dialogue,
)

HASHED = HashedNgramProvider()
COMBAT = SynonymLexicon.build([["attack", "strike", "fight", "hit"]], {})
BATTLE_GOLD = {"attack", "walk", "bow", "meet", "shout"}


def battle_pair():
    doc = generate_fixture("battle")
    raw = build_all(doc)
    norm_map = build_normalization_map(doc, HASHED, COMBAT, 0.75, gold_labels=BATTLE_GOLD)
    return doc, raw, apply_normalization(raw, norm_map), norm_map


BATTLE_DOC, BATTLE_RAW, BATTLE_NORM, BATTLE_MAP = battle_pair()


def all_fixture_docs():
    yield generate_fixture("battle")
    yield generate_fixture("romance")
    for seed in range(4):
        yield generate_fixture("noise", seed=seed, variance=0.5)


# --- action retrieval -------------------------------------------------------


def test_attack_query_finds_all_variants():
    hits = retrieve_actions(BATTLE_NORM, "attack", "normalized", norm_map=BATTLE_MAP)
    assert [h.panel_id for h in hits] == ["1_0_0", "3_1_1", "4_0_0"]
    assert {h.surface_label for h in hits} == {"fight", "strike", "hit"}
    assert {h.canonical_label for h in hits} == {"attack"}


def test_raw_query_is_literal():
    hits = retrieve_actions(BATTLE_RAW, "fight", "raw")
    assert [(h.panel_id, h.surface_label) for h in hits] == [("1_0_0", "fight")]
    assert retrieve_actions(BATTLE_RAW, "Fight ", "raw") == hits
    assert retrieve_actions(BATTLE_RAW, "attack", "raw") == []


def test_absent_label_returns_nothing():
    assert retrieve_actions(BATTLE_RAW, "somersault", "raw") == []
    assert (
        retrieve_actions(BATTLE_NORM, "somersault", "normalized", norm_map=BATTLE_MAP)
        == []
    )


def test_mode_and_query_validation():
    with pytest.raises(ValueError):
        retrieve_actions(BATTLE_RAW, "fight", "fuzzy")
    with pytest.raises(EmptyLabel):
        retrieve_actions(BATTLE_RAW, "  ", "raw")
    with pytest.raises(NotNormalized):
        retrieve_actions(BATTLE_RAW, "fight", "normalized")


def test_raw_hits_subset_of_normalized_everywhere():
    for doc in all_fixture_docs():
        raw = build_all(doc)
        norm_map = build_normalization_map(doc, HASHED, COMBAT, 0.75)
        norm = apply_normalization(raw, norm_map)
        surfaces = {a.label for _, _, p in doc.iter_panels() for a in p.actions}
        for query in sorted(surfaces):
            raw_ids = {h.action_instance_id for h in retrieve_actions(raw, query, "raw")}
            norm_ids = {
                h.action_instance_id
                for h in retrieve_actions(norm, query, "normalized", norm_map=norm_map)
            }
            assert raw_ids <= norm_ids, (doc.story_id, query)


def test_normalized_query_resolution_without_map():
    # the graph's own surface/canonical pairs are enough for member queries
    by_surface = retrieve_actions(BATTLE_NORM, "strike", "normalized")
    by_canonical = retrieve_actions(BATTLE_NORM, "attack", "normalized")
    assert {h.panel_id for h in by_surface} == {"1_0_0", "3_1_1", "4_0_0"}
    assert by_surface == by_canonical


def test_query_resolution_fold_and_lemma_tolerance():
    assert retrieve_actions(
        BATTLE_NORM, "Strike", "normalized", norm_map=BATTLE_MAP
    ) == retrieve_actions(BATTLE_NORM, "attack", "normalized", norm_map=BATTLE_MAP)
    assert retrieve_actions(
        BATTLE_NORM, "attacking", "normalized", norm_map=BATTLE_MAP
    ) == retrieve_actions(BATTLE_NORM, "attack", "normalized", norm_map=BATTLE_MAP)


def test_query_resolution_by_embedding_link():
    # a controlled vector file makes the nearest-cluster rule observable
    provider = VectorFileProvider(
        {"fight": [1.0, 0.0], "zzz": [1.0, 0.0], "walk": [0.0, 1.0]}, 2, source="t"
    )
    norm_map = NormalizationMap(
        [LabelCluster(("fight",), "fight"), LabelCluster(("walk",), "walk")],
        0.9,
        "file:t",
    )
    graph = apply_normalization(BATTLE_RAW, norm_map)
    hits = retrieve_actions(
        graph, "zzz", "normalized", norm_map=norm_map, provider=provider
    )
    assert {h.surface_label for h in hits} == {"fight"}
    # a query the provider has never seen links nowhere and falls back
    assert (
        retrieve_actions(
            graph, "qqq", "normalized", norm_map=norm_map, provider=provider
        )
        == []
    )


def test_hits_ordered_by_reading_order():
    for doc in all_fixture_docs():
        graph = build_all(doc)
        order = {p.id: p.reading_order for _, _, p in doc.iter_panels()}
        for query in sorted({a.label for _, _, p in doc.iter_panels() for a in p.actions}):
            hits = retrieve_actions(graph, query, "raw")
            keys = [order[h.panel_id] for h in hits]
            assert keys == sorted(keys)


# --- dialogue tracing -------------------------------------------------------


def test_monster_intro_trace():
    trace = trace_dialogue(BATTLE_RAW, "e3_0")
    assert len(trace.entries) == 4
    assert len({panel for panel, _, _, _ in trace.entries}) == 3
    assert {speaker for _, _, speaker, _ in trace.entries} == {"charA", "monster"}
    panels = [panel for panel, _, _, _ in trace.entries]
    assert panels == sorted(panels)


def test_trace_rejects_unknown_and_non_events():
    with pytest.raises(UnknownEvent):
        trace_dialogue(BATTLE_RAW, "e9_9")
    with pytest.raises(UnknownEvent):
        trace_dialogue(BATTLE_RAW, "m0")


def test_trace_counts_match_annotation_scan():
    for doc in all_fixture_docs():
        graph = build_all(doc)
        for macro in doc.macro_events:
            for event in macro.events:
                trace = trace_dialogue(graph, event.id)
                want = [
                    (panel.id, dlg.text)
                    for panel in event.panels
                    for dlg in panel.dialogues
                ]
                assert [(p, t) for p, _, _, t in trace.entries] == want


def test_trace_resolves_speakers_and_none():
    doc = generate_fixture("noise", seed=1, variance=0.0)
    graph = build_all(doc)
    speakers_seen = set()
    for macro in doc.macro_events:
        for event in macro.events:
            trace = trace_dialogue(graph, event.id)
            by_id = {d.instance_id: d for p in event.panels for d in p.dialogues}
            instance_entity = {
                c.instance_id: c.entity_id
                for p in event.panels
                for c in p.characters
            }
            for _, dialogue_id, speaker, _ in trace.entries:
                ann = by_id[dialogue_id]
                want = instance_entity[ann.speaker] if ann.speaker else None
                assert speaker == want
                speakers_seen.add(speaker)
    assert None in speakers_seen and len(speakers_seen) > 1


# --- character trajectories -------------------------------------------------


def test_charA_trajectory_shape():
    traj = character_trajectory(BATTLE_RAW, "charA")
    assert len(traj.panel_ids) == 12
    assert len(traj.event_ids) == 4
    assert len(traj.macro_event_ids) == 2


def test_trajectory_matches_annotation_scan():
    for doc in all_fixture_docs():
        graph = build_all(doc)
        entities = {c.entity_id for _, _, p in doc.iter_panels() for c in p.characters}
        for entity in sorted(entities):
            traj = character_trajectory(graph, entity)
            want_panels = {
                p.id
                for _, _, p in doc.iter_panels()
                if any(c.entity_id == entity for c in p.characters)
            }
            assert set(traj.panel_ids) == want_panels
            order = {p.id: p.reading_order for _, _, p in doc.iter_panels()}
            assert list(traj.panel_ids) == sorted(traj.panel_ids, key=order.get)
            want_events = {
                e.id
                for m in doc.macro_events
                for e in m.events
                if any(p.id in want_panels for p in e.panels)
            }
            assert set(traj.event_ids) == want_events


def test_single_appearance_entity():
    doc = parse_annotations(
        json.dumps(
            {
                "schema_version": 1,
                "story_id": "s",
                "macro_events": [
                    {
                        "id": "m0",
                        "label": "Only",
                        "events": [
                            {
                                "id": "e0_0",
                                "label": "One",
                                "panels": [
                                    {
                                        "id": "0_0_0",
                                        "reading_order": 0,
                                        "storytime_order": 0,
                                        "characters": [
                                            {
                                                "instance_id": "c:x:0_0_0",
                                                "entity_id": "x",
                                                "name": "X",
                                            }
                                        ],
                                    }
                                ],
                            }
                        ],
                    }
                ],
            }
        )
    )
    traj = character_trajectory(build_all(doc), "x")
    assert traj.panel_ids == ("0_0_0",)
    assert traj.event_ids == ("e0_0",)
    assert traj.macro_event_ids == ("m0",)


def test_unknown_entity_rejected():
    with pytest.raises(UnknownEntity):
        character_trajectory(BATTLE_RAW, "nobody")


# --- timeline reconstruction ------------------------------------------------


def test_first_macro_reading_timeline():
    timeline = reconstruct_timeline(BATTLE_RAW, "m0", "reading")
    want = [p.id for e in BATTLE_DOC.macro_events[0].events for p in e.panels]
    assert list(timeline.panel_ids) == want
    assert timeline.panel_ids[0] == "0_0_0"
    assert timeline.panel_ids[-1] == "0_2_3"


def test_story_scope_and_event_scope():
    story = reconstruct_timeline(BATTLE_RAW, "story", "reading")
    assert list(story.panel_ids) == [p.id for _, _, p in BATTLE_DOC.iter_panels()]
    event = reconstruct_timeline(BATTLE_RAW, "e3_0", "reading")
    assert list(event.panel_ids) == ["3_0_0", "3_0_1", "3_0_2"]


def test_storytime_matches_sort_oracle():
    for seed in range(5):
        doc = generate_fixture("noise", seed=seed, variance=0.8)
        graph = build_all(doc)
        timeline = reconstruct_timeline(graph, "story", "storytime")
        want = [
            p.id
            for _, _, p in sorted(doc.iter_panels(), key=lambda t: t[2].storytime_order)
        ]
        assert list(timeline.panel_ids) == want


def test_timeline_permutation_and_chain_invariants():
    doc = generate_fixture("noise", seed=2, variance=0.9)
    graph = build_all(doc)
    scopes = ["story"] + [m.id for m in doc.macro_events] + [
        e.id for m in doc.macro_events for e in m.events
    ]
    for scope in scopes:
        for order_kind, edge_kind in (
            ("reading", EdgeKind.PRECEDES_READING),
            ("storytime", EdgeKind.PRECEDES_STORYTIME),
        ):
            timeline = reconstruct_timeline(graph, scope, order_kind)
            if scope == "story":
                want = {n.id for n in graph.nodes(NodeKind.PANEL)}
            elif scope.startswith("m"):
                macro = next(m for m in doc.macro_events if m.id == scope)
                want = {p.id for e in macro.events for p in e.panels}
            else:
                event = next(
                    e for m in doc.macro_events for e in m.events if e.id == scope
                )
                want = {p.id for p in event.panels}
            assert set(timeline.panel_ids) == want
            assert len(timeline.panel_ids) == len(want)


def test_single_panel_scope():
    doc = generate_fixture("romance")
    graph = build_all(doc)
    singles = [
        e for m in doc.macro_events for e in m.events if len(e.panels) == 1
    ]
    assert singles
    timeline = reconstruct_timeline(graph, singles[0].id, "storytime")
    assert timeline.panel_ids == (singles[0].panels[0].id,)


def test_unknown_scope_and_order_kind():
    with pytest.raises(UnknownScope):
        reconstruct_timeline(BATTLE_RAW, "nope", "reading")
    with pytest.raises(UnknownScope):
        reconstruct_timeline(BATTLE_RAW, "0_0_0", "reading")
    with pytest.raises(ValueError):
        reconstruct_timeline(BATTLE_RAW, "story", "sideways")


def test_broken_chain_detected():
    # with the reading chain stripped, every panel heads its own chain
    obj = json.loads(build_all(generate_fixture("romance")).to_json_bytes())
    obj["edges"] = [e for e in obj["edges"] if e["kind"] != EdgeKind.PRECEDES_READING.value]
    graph = deserialize(json.dumps(obj).encode())
    assert reconstruct_timeline(graph, "story", "storytime").panel_ids
    with pytest.raises(BrokenChain):
        reconstruct_timeline(graph, "story", "reading")


# --- event summarization ----------------------------------------------------


def test_think_of_family_summary():
    doc = generate_fixture("romance")
    graph = build_all(doc)
    macro = next(m for m in doc.macro_events if m.label == "Think of family")
    summary = summarize_event(graph, macro.id)
    assert [label for _, label in summary.children] == [
        "Intro",
        "Get new rice cooker",
        "Test new rice cooker",
        "Eat and think of family",
    ]


def test_event_summary_lists_panels_in_reading_order():
    for doc in all_fixture_docs():
        graph = build_all(doc)
        for macro in doc.macro_events:
            for event in macro.events:
                summary = summarize_event(graph, event.id)
                assert [cid for cid, _ in summary.children] == [
                    p.id for p in event.panels
                ]
                # panels have no label of their own; the id stands in
                assert all(cid == label for cid, label in summary.children)


def test_macro_summary_matches_edge_scan():
    for doc in all_fixture_docs():
        graph = build_all(doc)
        for macro in doc.macro_events:
            summary = summarize_event(graph, macro.id)
            want = set(graph.neighbors(macro.id, EdgeKind.SUBEVENT_OF, "in"))
            assert {cid for cid, _ in summary.children} == want
            assert [cid for cid, _ in summary.children] == [e.id for e in macro.events]


def test_normalized_summary_uses_canonical_labels():
    summary = summarize_event(BATTLE_NORM, "m0")
    for child_id, label in summary.children:
        raw_label = BATTLE_RAW.node(child_id).label()
        assert label == BATTLE_MAP.lookup(raw_label, EVENT_POOL)


def test_summary_rejections():
    with pytest.raises(UnknownNode):
        summarize_event(BATTLE_RAW, "missing")
    with pytest.raises(NotAnEventNode):
        summarize_event(BATTLE_RAW, "0_0_0")


# --- global properties ------------------------------------------------------


def test_queries_leave_graph_untouched():
    doc = generate_fixture("battle")
    graph = build_all(doc)
    before = graph.to_json_bytes()
    retrieve_actions(graph, "fight", "raw")
    trace_dialogue(graph, "e3_0")
    character_trajectory(graph, "charA")
    reconstruct_timeline(graph, "story", "storytime")
    summarize_event(graph, "m0")
    assert graph.to_json_bytes() == before
