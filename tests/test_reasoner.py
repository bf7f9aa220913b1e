import itertools
import json
import random
from collections import Counter
from dataclasses import replace

import pytest

from nkg import embedding, normalize, reasoner
from nkg.annotations import parse_annotations
from nkg.builder import build_all, entity_node_id
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
from nkg.graph import PANEL_ORDERS, EdgeKind, NarrativeGraph, NodeKind, deserialize
from nkg.lexicon import SynonymLexicon, fold_label, lexical_key
from nkg.normalize import (
    EVENT_POOL,
    NormalizationMap,
    LabelCluster,
    apply_normalization,
    build_normalization_map,
)
from nkg.reasoner import (
    ORDER_KINDS,
    STORY_SCOPE,
    DialogueTrace,
    EventSummary,
    Timeline,
    Trajectory,
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
    graph = deserialize(BATTLE_RAW.to_json_bytes())
    for _ in range(2):  # before and after the summary index is built
        for node_id, error, message in (
            ("missing", UnknownNode, "missing"),
            ("0_0_0", NotAnEventNode, "not an event node: 0_0_0 (panel)"),
            ("entity:charA", NotAnEventNode, "not an event node: entity:charA (character)"),
        ):
            with pytest.raises(error) as info:
                summarize_event(graph, node_id)
            assert str(info.value) == message


def test_summaries_are_read_from_the_index(monkeypatch):
    graph = deserialize(build_all(generate_fixture("battle")).to_json_bytes())
    node_ids = ids_of(graph, NodeKind.EVENT, NodeKind.MACRO_EVENT)
    want = [summarize_event(graph, node_id) for node_id in node_ids]
    calls = []
    node = NarrativeGraph.node
    monkeypatch.setattr(
        NarrativeGraph, "node", lambda self, node_id: calls.append(node_id) or node(self, node_id)
    )
    assert [summarize_event(graph, node_id) for node_id in node_ids] == want
    assert calls == []


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

    def spy(self, key, build, shared=False):
        return memo(self, key, lambda: built.append(key) or build(), shared)

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


def test_trajectory_index_is_built_on_the_first_query_only(memo_builds):
    data = build_all(generate_fixture("battle")).to_json_bytes()
    memo_builds.clear()
    graph = deserialize(data)
    assert memo_builds == []  # loading builds no index
    first = character_trajectory(graph, "charA")
    assert ("scopes", "reading") in memo_builds
    assert "trajectories" in memo_builds
    assert ("scopes", "storytime") not in memo_builds
    built = list(memo_builds)
    assert character_trajectory(graph, "charA") is first
    assert character_trajectory(graph, "charB").entity_id == "charB"
    assert memo_builds == built  # a repeat, or another character, reads the index
    reconstruct_timeline(graph, "story", "storytime")
    assert memo_builds[len(built):] == [("scopes", "storytime")]


def unfrozen_copy(graph, keep=lambda edge: True):
    """A graph with the nodes of `graph` and the edges keep() accepts, unfrozen."""
    copy = NarrativeGraph(graph.story_id)
    for node in graph.nodes():
        copy.add_node(node)
    for edge in filter(keep, graph.edges()):
        copy.add_edge(edge.src, edge.dst, edge.kind)
    return copy


def test_scope_index_is_built_once_per_order(memo_builds):
    frozen = build_all(generate_fixture("battle"))
    data = frozen.to_json_bytes()
    queries = [  # each query with the order whose scope index it reads
        (lambda g: reconstruct_timeline(g, "m0", "storytime"), "storytime"),
        (lambda g: summarize_event(g, "e0_0"), "reading"),
        (lambda g: trace_dialogue(g, "e3_0"), "reading"),
        (lambda g: reconstruct_timeline(g, STORY_SCOPE, "reading"), "reading"),
    ]

    def scope_builds():
        return [key for key in memo_builds if key[0] == "scopes"]

    for query, order in queries:
        memo_builds.clear()
        graph = deserialize(data)
        assert memo_builds == []  # loading builds no index
        query(graph)
        assert scope_builds() == [("scopes", order)]
    memo_builds.clear()
    graph = deserialize(data)
    want = [query(graph) for query, _ in queries]
    assert scope_builds() == [("scopes", "storytime"), ("scopes", "reading")]
    memo_builds.clear()
    assert [query(graph) for query, _ in queries] == want
    assert memo_builds == []  # a repeat reads the index

    unfrozen = unfrozen_copy(frozen)
    memo_builds.clear()
    assert [query(unfrozen) for query, _ in queries] == want
    assert [query(unfrozen) for query, _ in queries] == want
    assert len(scope_builds()) == 2 * len(queries)  # nothing kept


def test_queries_on_an_unfrozen_graph_cache_nothing(memo_builds):
    frozen = build_all(generate_fixture("battle"))
    graph = NarrativeGraph(frozen.story_id)
    for node in frozen.nodes():
        graph.add_node(node)
    for edge in frozen.edges():
        graph.add_edge(edge.src, edge.dst, edge.kind)
    want = retrieve_actions(frozen, "fight", "raw")
    want_trajectory = character_trajectory(frozen, "charA")
    memo_builds.clear()
    assert retrieve_actions(graph, "fight", "raw") == want
    assert retrieve_actions(graph, "fight", "raw") == want
    assert memo_builds.count(("actions_by", "surface_fold")) == 2
    memo_builds.clear()
    assert character_trajectory(graph, "charA") == want_trajectory
    assert character_trajectory(graph, "charA") == want_trajectory
    assert memo_builds.count("trajectories") == 2
    assert memo_builds.count(("scopes", "reading")) == 2
    graph.finalize()
    memo_builds.clear()
    assert retrieve_actions(graph, "fight", "raw") == want
    assert retrieve_actions(graph, "fight", "raw") == want
    assert memo_builds.count(("actions_by", "surface_fold")) == 1


@pytest.mark.parametrize(
    "key,query,first,other",
    [
        ("dialogues", trace_dialogue, "e3_0", "e5_0"),
        ("summaries", summarize_event, "m0", "m3"),
    ],
)
def test_dialogue_and_summary_indexes_are_built_on_the_first_query_only(
    memo_builds, key, query, first, other
):
    frozen = build_all(generate_fixture("battle"))
    data = frozen.to_json_bytes()
    want = [query(frozen, first), query(frozen, other)]
    memo_builds.clear()
    graph = deserialize(data)
    assert memo_builds == []  # loading builds no index
    assert query(graph, first) == want[0]
    assert memo_builds.count(key) == 1
    built = list(memo_builds)
    assert [query(graph, first), query(graph, other)] == want
    assert memo_builds == built  # later queries read the index

    unfrozen = unfrozen_copy(frozen)
    memo_builds.clear()
    assert [query(unfrozen, first), query(unfrozen, first)] == [want[0], want[0]]
    assert memo_builds.count(key) == 2  # nothing kept


class CountingTable(dict):
    """An edge table that counts the keys looked up in it."""

    def __init__(self, table, calls):
        super().__init__(table)
        self.calls = calls

    def get(self, key, default=None):
        self.calls[key] += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.calls[key] += 1
        return super().__getitem__(key)


def test_scope_index_looks_up_each_events_parents_once(monkeypatch):
    graph = deserialize(build_all(generate_fixture("battle")).to_json_bytes())
    calls = Counter()
    table = NarrativeGraph.table

    def counting(self, kind, direction="out"):
        found = table(self, kind, direction)
        return CountingTable(found, calls) if kind is EdgeKind.SUBEVENT_OF else found

    monkeypatch.setattr(NarrativeGraph, "table", counting)
    reconstruct_timeline(graph, STORY_SCOPE, "reading")
    events = ids_of(graph, NodeKind.EVENT)
    assert len(events) == 11 and len(graph.nodes(NodeKind.PANEL)) > len(events)
    assert calls == Counter(events)


def test_normalized_retrieval_folds_the_query_once(monkeypatch):
    folds = []
    monkeypatch.setattr(reasoner, "fold_label", lambda l: folds.append(l) or fold_label(l))
    for query in ("Fight", "kick_cart"):  # a fold-equal member and a fallback
        folds.clear()
        retrieve_actions(BATTLE_NORM, query, "normalized", norm_map=BATTLE_MAP)
        assert folds == [query]


def test_fallback_query_is_folded_once(monkeypatch):
    from nkg import lexicon

    folds = Counter()

    def counting_fold(label):
        folds[label] += 1
        return fold_label(label)

    # none is a member or folds to one, so each falls back to the nearest cluster
    warm, *queries = ("cartwheel", "kick_cart", "Shout Out", "somersaults")
    members = {fold_label(m) for m in BATTLE_MAP.pool_labels("action")}
    assert not members & {fold_label(q) for q in (warm, *queries)}
    retrieve_actions(BATTLE_NORM, warm, "normalized", norm_map=BATTLE_MAP)  # the map's tables
    monkeypatch.setattr(lexicon, "fold_label", counting_fold)
    monkeypatch.setattr(reasoner, "fold_label", counting_fold)
    for query in queries:
        retrieve_actions(BATTLE_NORM, query, "normalized", norm_map=BATTLE_MAP)
    assert folds == Counter(queries)  # by retrieve_actions; lexical_key reuses its fold


def test_fallback_buckets_map_members_once_per_lexicon(monkeypatch):
    doc = generate_fixture("noise", seed=3, variance=0.6)
    norm_map = build_normalization_map(doc, HASHED, SynonymLexicon.empty(), 0.75)
    graph = apply_normalization(build_all(doc), norm_map)
    members = norm_map.pool_labels("action")
    keyed = Counter()

    def counting_key(label, lexicon, folded=None):
        keyed[label] += 1
        return lexical_key(label, lexicon, folded)

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


# --- the indexed queries against the per-call reference ----------------------
#
# The reference reads each panel's position from its attribute on every call,
# rescans a character's instances on every trajectory query, and gathers and
# sorts a scope's panels on every timeline, summary and dialogue query, as the
# reasoner did before its position, trajectory and scope indexes.


def _position(graph, panel_id, order_kind="reading"):
    return int(graph.node(panel_id).attrs[PANEL_ORDERS[order_kind][0]])


def oracle_trace_dialogue(graph, event_id):
    keyed = []
    for panel_id in graph.neighbors(event_id, EdgeKind.INSTANTIATES, "in"):
        for dialogue_id in graph.neighbors(panel_id, EdgeKind.GROUNDED_IN, "in"):
            node = graph.node(dialogue_id)
            if node.kind is not NodeKind.DIALOGUE:
                continue
            speaker = None
            instance = node.attrs.get("speaker")
            if instance:
                (entity,) = graph.neighbors(instance, EdgeKind.REFERS_TO, "out")
                speaker = graph.node(entity).attrs["entity_id"]
            keyed.append(
                (
                    _position(graph, panel_id),
                    int(node.attrs["order"]),
                    (panel_id, dialogue_id, speaker, node.attrs["text"]),
                )
            )
    keyed.sort(key=lambda item: item[:2])
    return DialogueTrace(event_id, tuple(entry for _, _, entry in keyed))


def oracle_character_trajectory(graph, entity_id):
    node_id = entity_node_id(entity_id)
    panel_ids = {
        graph.node(instance).attrs["panel"]
        for instance in graph.neighbors(node_id, EdgeKind.REFERS_TO, "in")
    }
    ordered_panels = sorted(panel_ids, key=lambda p: _position(graph, p))
    event_ids = dict.fromkeys(
        event_id
        for panel_id in ordered_panels
        for event_id in graph.neighbors(panel_id, EdgeKind.INSTANTIATES, "out")
    )
    macro_ids = dict.fromkeys(
        macro_id
        for event_id in event_ids
        for macro_id in graph.neighbors(event_id, EdgeKind.SUBEVENT_OF, "out")
    )
    return Trajectory(entity_id, tuple(ordered_panels), tuple(event_ids), tuple(macro_ids))


def _scope_panels(graph, scope_id):
    if scope_id == STORY_SCOPE:
        return [node.id for node in graph.nodes(NodeKind.PANEL)]
    if not graph.has_node(scope_id):
        raise UnknownScope(f"unknown scope: {scope_id}")
    node = graph.node(scope_id)
    if node.kind is NodeKind.EVENT:
        return list(graph.neighbors(scope_id, EdgeKind.INSTANTIATES, "in"))
    if node.kind is NodeKind.MACRO_EVENT:
        panels = []
        for event_id in graph.neighbors(scope_id, EdgeKind.SUBEVENT_OF, "in"):
            panels.extend(graph.neighbors(event_id, EdgeKind.INSTANTIATES, "in"))
        return panels
    raise UnknownScope(f"scope must be an event, macro-event, or {STORY_SCOPE!r}: {scope_id}")


def oracle_reconstruct_timeline(graph, scope_id, order_kind):
    scope = set(_scope_panels(graph, scope_id))
    ordered = sorted(scope, key=lambda panel_id: _position(graph, panel_id, order_kind))
    return Timeline(scope_id, order_kind, tuple(ordered))


def _sibling_order(graph, children):
    """Order siblings by the precedes chain among them; ids break any ties:
    the least child none of whose predecessors is left, again and again."""
    remaining = set(children)
    ordered = []
    while remaining:
        first = min(
            child
            for child in remaining
            if remaining.isdisjoint(graph.neighbors(child, EdgeKind.PRECEDES, "in"))
        )
        ordered.append(first)
        remaining.remove(first)
    return ordered


def oracle_summarize_event(graph, node_id):
    node = graph.node(node_id)
    if node.kind is NodeKind.MACRO_EVENT:
        children = _sibling_order(
            graph, list(graph.neighbors(node_id, EdgeKind.SUBEVENT_OF, "in"))
        )
    else:
        children = sorted(
            graph.neighbors(node_id, EdgeKind.INSTANTIATES, "in"),
            key=lambda p: _position(graph, p),
        )
    return EventSummary(node_id, tuple((cid, graph.node(cid).label() or cid) for cid in children))


def shuffled_orders(doc, seed):
    """The document with both panel orders drawn at random, with gaps, so that
    neither follows the panel ids."""
    rng = random.Random(seed)
    n = doc.panel_count()
    reading, storytime = iter(rng.sample(range(3 * n), n)), iter(rng.sample(range(3 * n), n))

    def panel(p):
        return replace(p, reading_order=next(reading), storytime_order=next(storytime))

    def event(e):
        return replace(e, panels=tuple(map(panel, e.panels)))

    def macro(m):
        return replace(m, events=tuple(map(event, m.events)))

    return replace(doc, macro_events=tuple(map(macro, doc.macro_events)))


def story_named(doc, tier):
    """The document with its first event or first macro-event given the id
    of the story scope."""
    first, *rest = doc.macro_events
    if tier == "macro_event":
        first = replace(first, id=STORY_SCOPE)
    else:
        event, *events = first.events
        first = replace(first, events=(replace(event, id=STORY_SCOPE), *events))
    return replace(doc, macro_events=(first, *rest))


ORACLE_DOCS = {
    "battle": lambda: generate_fixture("battle"),
    "romance": lambda: generate_fixture("romance"),
    "noise": lambda: generate_fixture("noise", seed=3, variance=0.6),
    **{
        f"shuffled-noise-{seed}": (
            lambda seed=seed: shuffled_orders(generate_fixture("noise", seed=seed), seed)
        )
        for seed in range(3)
    },
    "shuffled-romance": lambda: shuffled_orders(generate_fixture("romance"), 7),
    # a node id equal to the story scope names that node, except to a timeline
    **{
        f"story-id-{tier}": lambda tier=tier: story_named(generate_fixture("battle"), tier)
        for tier in ("event", "macro_event")
    },
}


@pytest.fixture(scope="module", params=sorted(ORACLE_DOCS))
def oracle_graphs(request):
    """The raw and the normalized graph of one document."""
    doc = ORACLE_DOCS[request.param]()
    raw = build_all(doc)
    norm_map = build_normalization_map(doc, HASHED, COMBAT, 0.75)
    return raw, apply_normalization(raw, norm_map)


def ids_of(graph, *kinds):
    return [node.id for kind in kinds for node in graph.nodes(kind)]


def test_reasoner_oracle_trajectories(oracle_graphs):
    for graph in oracle_graphs:
        entities = [node.attrs["entity_id"] for node in graph.nodes(NodeKind.CHARACTER)]
        assert entities
        for entity in entities:
            want = oracle_character_trajectory(graph, entity)
            assert character_trajectory(graph, entity) == want
            assert character_trajectory(graph, entity) == want  # read from the index


def test_reasoner_oracle_timelines(oracle_graphs):
    for graph in oracle_graphs:
        scopes = [STORY_SCOPE, *ids_of(graph, NodeKind.EVENT, NodeKind.MACRO_EVENT)]
        for scope, order in itertools.product(scopes, ORDER_KINDS):
            want = oracle_reconstruct_timeline(graph, scope, order)
            assert reconstruct_timeline(graph, scope, order) == want


def test_reasoner_oracle_dialogue_traces(oracle_graphs):
    for graph in oracle_graphs:
        for event_id in ids_of(graph, NodeKind.EVENT):
            assert trace_dialogue(graph, event_id) == oracle_trace_dialogue(graph, event_id)


def test_reasoner_oracle_summaries(oracle_graphs):
    for graph in oracle_graphs:
        for node_id in ids_of(graph, NodeKind.EVENT, NodeKind.MACRO_EVENT):
            assert summarize_event(graph, node_id) == oracle_summarize_event(graph, node_id)


def test_reasoner_oracle_on_a_graph_no_annotation_makes():
    """An event under an event rather than a macro-event, and an event with
    no panels: neither lends panels to a scope it does not instantiate."""
    graph = unfrozen_copy(
        build_all(generate_fixture("battle")),
        lambda edge: (edge.src, edge.kind) != ("e0_1", EdgeKind.SUBEVENT_OF)
        and (edge.dst, edge.kind) != ("e0_2", EdgeKind.INSTANTIATES),
    )
    graph.add_edge("e0_1", "e0_0", EdgeKind.SUBEVENT_OF)
    graph.finalize()
    assert reconstruct_timeline(graph, "e0_2").panel_ids == ()
    scopes = [STORY_SCOPE, *ids_of(graph, NodeKind.EVENT, NodeKind.MACRO_EVENT)]
    for scope, order in itertools.product(scopes, ORDER_KINDS):
        want = oracle_reconstruct_timeline(graph, scope, order)
        assert reconstruct_timeline(graph, scope, order) == want
    for node_id in ids_of(graph, NodeKind.EVENT, NodeKind.MACRO_EVENT):
        assert summarize_event(graph, node_id) == oracle_summarize_event(graph, node_id)
    for event_id in ids_of(graph, NodeKind.EVENT):
        assert trace_dialogue(graph, event_id) == oracle_trace_dialogue(graph, event_id)


def test_reasoner_oracle_orders_differ_from_id_order():
    """The shuffled documents give the oracle something to catch: an order
    that differs from id order in every one of them."""
    for name in ORACLE_DOCS:
        if name.startswith("shuffled"):
            graph = build_all(ORACLE_DOCS[name]())
            panels = ids_of(graph, NodeKind.PANEL)
            for order in ORDER_KINDS:
                assert list(reconstruct_timeline(graph, STORY_SCOPE, order).panel_ids) != panels


# --- record shapes ----------------------------------------------------------


def test_record_dicts_have_their_wire_shapes():
    assert [hit.as_dict() for hit in retrieve_actions(BATTLE_RAW, "walk")] == [
        {"panel_id": "0_0_0", "action_instance_id": "a:0_0_0:0",
         "surface_label": "walk", "canonical_label": "walk"},
        {"panel_id": "1_1_0", "action_instance_id": "a:1_1_0:0",
         "surface_label": "walk", "canonical_label": "walk"},
    ]
    assert trace_dialogue(BATTLE_RAW, "e0_0").as_dict() == {
        "event_id": "e0_0",
        "entries": [{"panel_id": "0_0_0", "dialogue_id": "d:0_0_0:0", "speaker": "charB",
                     "text": "A quiet morning in the village."}],
    }
    assert character_trajectory(BATTLE_RAW, "charA").as_dict() == {
        "entity_id": "charA",
        "panel_ids": ["1_0_0", "1_0_1", "1_0_2", "1_1_0", "1_1_1", "1_1_2",
                      "3_0_0", "3_0_1", "3_0_2", "3_1_0", "3_1_1", "3_1_2"],
        "event_ids": ["e1_0", "e1_1", "e3_0", "e3_1"],
        "macro_event_ids": ["m1", "m3"],
    }
    assert reconstruct_timeline(BATTLE_RAW, "m0").as_dict() == {
        "scope_id": "m0",
        "order_kind": "reading",
        "panel_ids": ["0_0_0", "0_0_1", "0_1_0", "0_1_1", "0_2_0", "0_2_1", "0_2_2", "0_2_3"],
    }
    assert summarize_event(BATTLE_RAW, "m0").as_dict() == {
        "node_id": "m0",
        "children": [{"id": "e0_0", "label": "Village dawn"},
                     {"id": "e0_1", "label": "Road to market"},
                     {"id": "e0_2", "label": "Along the river"}],
    }
