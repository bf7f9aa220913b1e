import json
import random
from collections import Counter

import pytest

from nkg import embedding, normalize
from nkg.annotations import parse_annotations
from nkg.builder import build_all
from nkg.embedding import HashedNgramProvider, VectorFileProvider
from nkg.errors import (
    EmptyLabel,
    NotAnEventNode,
    NotNormalized,
    SchemaViolation,
    UnknownEntity,
    UnknownEvent,
    UnknownNode,
    UnknownScope,
)
from nkg.fixtures import generate_fixture
from nkg.graph import EdgeKind, NarrativeGraph, NodeKind, deserialize
from nkg.lexicon import SynonymLexicon, fold_label, lexical_key
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


# "shout_out" is in no cluster and links to "shout" only by hashed cosine
# (0.87); "strikes" links to the attack cluster by its lexicon group
FALLBACK_CASES = {
    # an explicit provider wins over the map's provider id
    "explicit_provider": (
        BATTLE_MAP,
        VectorFileProvider({"shout_out": [1.0, 0.0], "walk": [1.0, 0.0]}, 2, source="t"),
        {"walk"},
    ),
    # the hashed provider is rebuilt from the map's provider id
    "hashed_provider_id": (BATTLE_MAP, None, {"shout"}),
    # no provider can be rebuilt: lexical links only
    "other_provider_id": (
        NormalizationMap(BATTLE_MAP.clusters, BATTLE_MAP.threshold, "file:elsewhere"),
        None,
        set(),
    ),
    # a hashed id naming no positive dimension rebuilds no provider either
    "zero_dim_provider_id": (
        NormalizationMap(BATTLE_MAP.clusters, BATTLE_MAP.threshold, "hashed:fnv1a-trigram:0"),
        None,
        set(),
    ),
    "negative_dim_provider_id": (
        NormalizationMap(BATTLE_MAP.clusters, BATTLE_MAP.threshold, "hashed:fnv1a-trigram:-3"),
        None,
        set(),
    ),
}


@pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
def test_unseen_label_resolves_to_nearest_cluster(case):
    norm_map, provider, shout_out = FALLBACK_CASES[case]
    assert not norm_map.has_label("shout_out") and not norm_map.has_label("strikes")

    def canonicals(query):
        hits = retrieve_actions(
            BATTLE_NORM, query, "normalized", norm_map=norm_map, lexicon=COMBAT, provider=provider
        )
        return {h.canonical_label for h in hits}

    assert canonicals("shout_out") == shout_out
    assert canonicals("strikes") == {"attack"}


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
            # events and macro-events in the order the trajectory first reaches them
            event_of = {p.id: e.id for m in doc.macro_events for e in m.events for p in e.panels}
            macro_of = {e.id: m.id for m in doc.macro_events for e in m.events}
            first_events, first_macros = [], []
            for panel_id in traj.panel_ids:
                if event_of[panel_id] not in first_events:
                    first_events.append(event_of[panel_id])
                if macro_of[event_of[panel_id]] not in first_macros:
                    first_macros.append(macro_of[event_of[panel_id]])
            assert list(traj.event_ids) == first_events
            assert list(traj.macro_event_ids) == first_macros


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


def first_two_panels(obj):
    panels = [n for n in obj["nodes"] if n["kind"] == "panel"]
    return sorted(panels, key=lambda n: int(n["attrs"]["reading_order"]))[:2]


def strip_reading_chain(obj):
    obj["edges"] = [e for e in obj["edges"] if e["kind"] != EdgeKind.PRECEDES_READING.value]


def swap_first_reading_orders(obj):
    a, b = first_two_panels(obj)
    a["attrs"]["reading_order"], b["attrs"]["reading_order"] = (
        b["attrs"]["reading_order"],
        a["attrs"]["reading_order"],
    )


def drop_a_reading_order(obj):
    del first_two_panels(obj)[1]["attrs"]["reading_order"]


def test_broken_chain_detected():
    # timelines sort by the order attributes, so a graph whose chain disagrees
    # with them, or whose panels lack one, must fail when it is read
    built = build_all(generate_fixture("romance")).to_json_bytes()
    assert deserialize(built).to_json_bytes() == built
    for change, message in (
        (strip_reading_chain, "precedes_reading chain: lacks edge"),
        (swap_first_reading_orders, "precedes_reading chain: has an extra edge"),
        (drop_a_reading_order, "reading_order must be an integer, got None"),
    ):
        obj = json.loads(built)
        change(obj)
        with pytest.raises(SchemaViolation, match=message):
            deserialize(json.dumps(obj).encode())


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


@pytest.fixture
def memo_builds(monkeypatch):
    """Keys of the graph memos built while a test runs, in build order."""
    built = []
    memo = NarrativeGraph.memo

    def spy(self, key, build):
        return memo(self, key, lambda: built.append(key) or build())

    monkeypatch.setattr(NarrativeGraph, "memo", spy)
    return built


def test_action_index_is_built_on_the_first_query_only(memo_builds):
    data = build_all(generate_fixture("battle")).to_json_bytes()
    memo_builds.clear()
    graph = deserialize(data)
    graph.finalize()
    assert memo_builds == []  # neither deserialize nor finalize() builds an index
    first = retrieve_actions(graph, "fight", "raw")
    assert ("actions_by", "surface_fold") in memo_builds
    built = list(memo_builds)
    assert retrieve_actions(graph, "fight", "raw") == first
    assert retrieve_actions(graph, "Fight", "raw") == first
    assert memo_builds == built  # later queries read the index


def test_queries_on_an_unfrozen_graph_cache_nothing(memo_builds):
    frozen = build_all(generate_fixture("battle"))
    graph = NarrativeGraph(frozen.story_id)
    for node in frozen.nodes():
        graph.add_node(node)
    for edge in frozen.edges():
        graph.add_edge(edge.src, edge.dst, edge.kind)
    want = retrieve_actions(frozen, "fight", "raw")
    memo_builds.clear()
    assert retrieve_actions(graph, "fight", "raw") == want
    assert retrieve_actions(graph, "fight", "raw") == want
    assert memo_builds.count(("actions_by", "surface_fold")) == 2
    graph.finalize()
    memo_builds.clear()
    assert retrieve_actions(graph, "fight", "raw") == want
    assert retrieve_actions(graph, "fight", "raw") == want
    assert memo_builds.count(("actions_by", "surface_fold")) == 1


def test_fallback_buckets_map_members_once_per_lexicon(monkeypatch):
    doc = generate_fixture("noise", seed=3, variance=0.6)
    norm_map = build_normalization_map(doc, HASHED, SynonymLexicon.empty(), 0.75)
    graph = apply_normalization(build_all(doc), norm_map)
    members = norm_map.pool_labels("action")
    keyed = Counter()

    def counting_key(label, lexicon):
        keyed[label] += 1
        return lexical_key(label, lexicon)

    monkeypatch.setattr(normalize, "lexical_key", counting_key)
    for query in ("shoved", "jumpin", "grabbers"):  # none is a map member
        retrieve_actions(graph, query, "normalized", norm_map=norm_map)
    for query in ("shoved", "jumpin"):
        retrieve_actions(graph, query, "normalized", norm_map=norm_map, lexicon=COMBAT)
    # lexicon=None is the shared empty lexicon: one table for the first three
    # queries and one for COMBAT; each query is keyed once per call
    assert {m: keyed[m] for m in members} == dict.fromkeys(members, 2)
    assert keyed - Counter(dict.fromkeys(members, 2)) == Counter(shoved=2, jumpin=2, grabbers=1)


def test_fallback_without_provider_embeds_each_member_once(monkeypatch):
    embedded = Counter()
    hashed_rows = embedding._hashed_rows

    def counting_rows(labels, dim):
        embedded.update(labels)
        return hashed_rows(labels, dim)

    monkeypatch.setattr(embedding, "_hashed_rows", counting_rows)
    norm_map = NormalizationMap.from_json_bytes(BATTLE_MAP.to_json_bytes())
    for query in ("shout_out", "somersault"):  # no member, no fold-equal member
        retrieve_actions(BATTLE_NORM, query, "normalized", norm_map=norm_map)
    members = norm_map.pool_labels("action")
    assert embedded == Counter(members) + Counter(["shout_out", "somersault"])


def test_fallback_query_the_provider_cannot_embed_links_lexically():
    # the vector file covers every member but not the queries
    vectors = {m: [1.0, float(i)] for i, m in enumerate(sorted(BATTLE_MAP.pool_labels("action")))}
    provider = VectorFileProvider(vectors, 2, source="members")

    def canonicals(query):
        hits = retrieve_actions(
            BATTLE_NORM, query, "normalized", norm_map=BATTLE_MAP, lexicon=COMBAT,
            provider=provider,
        )
        return {h.canonical_label for h in hits}

    assert canonicals("strikes") == {"attack"}  # lexicon group, similarity 1.0
    assert canonicals("shout_out") == set()  # would need a cosine link
