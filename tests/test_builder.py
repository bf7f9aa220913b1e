import gc
import hashlib
import itertools

import pytest

from nkg.annotations import (
    ActionAnn,
    AnnotationDoc,
    CharacterAnn,
    EventAnn,
    MacroEventAnn,
    PanelAnn,
    validate_annotations,
)
from nkg.builder import build_all, entity_node_id
from nkg.cli import main
from nkg.errors import DuplicateNode
from nkg.fixtures import generate_fixture
from nkg.graph import EdgeKind, NodeKind

# SHA-256 of build_all(doc).to_json_bytes(), recorded before the builder
# became one pass; built bytes must not change without a reason on record
FIXTURE_DIGESTS = {
    ("battle", 0, 0.0): "51daccb038cfb2ceb58c90406eebb215fb3361918b9d315545d175f7fccfce87",
    ("romance", 0, 0.0): "5925e5ea212f0d4be907487c2d47fd59de1a9a4e012d0474217dd658dc1de2f5",
    ("noise", 0, 0.0): "619c8f2feeebd3a6a0a2a059596339d4fb39a24f27fafa85a476a6c4b9df6acb",
    ("noise", 0, 0.6): "cd2af14ba3fd27c7918d8d6cf9b2042bc9201800085f469056a620af796cedfe",
    ("noise", 1, 0.0): "2e9364ce67176f5ef93a83cc27a9fe2b78b8ea4f389784fe8e111b46ac4582b2",
    ("noise", 1, 0.6): "57ccd7182d5d7cee1d627a10e02505c45b858578d9d7a3cf60d2f45802650fa1",
    ("noise", 2, 0.0): "0b49724a4025652bde0a7fc1d0c270cee4fb2a8ad6394b35e13490fc5baa52f4",
    ("noise", 2, 0.6): "a2d959f857d2375cb41286fe244f39c1406dabc7b9de3e546a6e2a828daba089",
    ("noise", 3, 0.0): "cc9de0a2368ce6c3c3da73f117fe5c9797c7592789dfb6ef25a1fe6eb453c51d",
    ("noise", 3, 0.6): "4eb5bbe817759e423dcfbedf3ee9b6a7688ed90d7cc84f7de522f5a28325090b",
}


def minimal_doc(macro_id="m0", event_id="e0", **panel_overrides):
    panel = PanelAnn(id="0_0_0", reading_order=0, storytime_order=0, **panel_overrides)
    event = EventAnn(event_id, "beat", (panel,))
    return AnnotationDoc("min", (MacroEventAnn(macro_id, "arc", (event,)),))


# annotations whose ids collide across tiers, with the id they share
CROSS_TIER_COLLISIONS = {
    "event_is_action": (
        "a0", minimal_doc(event_id="a0", actions=(ActionAnn("a0", "wave"),))
    ),
    "macro_is_entity": (
        "entity:hero",
        minimal_doc(macro_id="entity:hero", characters=(CharacterAnn("i0", "hero"),)),
    ),
    "event_is_panel": ("0_0_0", minimal_doc(event_id="0_0_0")),
}


def expected_counts(doc):
    """Tally node/edge kinds straight off the annotations, bypassing the builder."""
    nodes = dict.fromkeys((k.value for k in NodeKind), 0)
    edges = dict.fromkeys((k.value for k in EdgeKind), 0)
    entities = set()
    n_panels = 0
    for macro, event, panel in doc.iter_panels():
        n_panels += 1
        nodes["panel"] += 1
        nodes["character_instance"] += len(panel.characters)
        nodes["object"] += len(panel.objects)
        nodes["action"] += len(panel.actions)
        nodes["dialogue"] += len(panel.dialogues)
        entities.update(c.entity_id for c in panel.characters)
        edges["refers_to"] += len(panel.characters)
        edges["co_occurs_with"] += len(panel.characters) * (len(panel.characters) - 1) // 2
        edges["has_agent"] += sum(1 for a in panel.actions if a.agent is not None)
        edges["acts_on"] += sum(1 for a in panel.actions if a.target is not None)
        edges["grounded_in"] += len(panel.dialogues)
    nodes["character"] = len(entities)
    nodes["macro_event"] = len(doc.macro_events)
    nodes["event"] = sum(len(m.events) for m in doc.macro_events)
    edges["precedes_reading"] = max(n_panels - 1, 0)
    edges["precedes_storytime"] = max(n_panels - 1, 0)
    edges["instantiates"] = n_panels
    edges["subevent_of"] = nodes["event"]
    edges["precedes"] = sum(max(len(m.events) - 1, 0) for m in doc.macro_events) + max(
        len(doc.macro_events) - 1, 0
    )
    return nodes, edges


def count_by_kind(graph):
    nodes = dict.fromkeys((k.value for k in NodeKind), 0)
    edges = dict.fromkeys((k.value for k in EdgeKind), 0)
    for node in graph.nodes():
        nodes[node.kind.value] += 1
    for edge in graph.edges():
        edges[edge.kind.value] += 1
    return nodes, edges


def walk_chain(graph, kind):
    panels = [n.id for n in graph.nodes(NodeKind.PANEL)]
    heads = [p for p in panels if not graph.neighbors(p, kind, "in")]
    if not panels:
        return []
    assert len(heads) == 1
    chain = [heads[0]]
    while True:
        nxt = graph.neighbors(chain[-1], kind)
        if not nxt:
            return chain
        assert len(nxt) == 1
        chain.append(nxt[0])


def test_minimal_doc_shape():
    g = build_all(minimal_doc())
    assert g.node_count() == 3  # panel + event + macro-event
    assert [e.kind for e in g.edges()] == [EdgeKind.INSTANTIATES, EdgeKind.SUBEVENT_OF]
    assert g.neighbors("0_0_0", EdgeKind.INSTANTIATES) == ["e0"]


def test_single_character_panel():
    doc = minimal_doc(characters=(CharacterAnn("i0", "hero", "Hero"),))
    g = build_all(doc)
    nodes, edges = count_by_kind(g)
    assert nodes["panel"] == 1
    assert nodes["character_instance"] == 1
    assert nodes["character"] == 1
    assert edges["refers_to"] == 1
    assert edges["co_occurs_with"] == 0
    assert g.neighbors("i0", EdgeKind.REFERS_TO) == [entity_node_id("hero")]


def test_co_occurrence_pairs_directed_by_id():
    chars = tuple(CharacterAnn(f"i{k}", f"ent{k}") for k in (2, 0, 1))
    g = build_all(minimal_doc(characters=chars))
    pairs = [(e.src, e.dst) for e in g.edges(EdgeKind.CO_OCCURS_WITH)]
    assert pairs == [("i0", "i1"), ("i0", "i2"), ("i1", "i2")]


def test_action_edges():
    doc = minimal_doc(
        characters=(CharacterAnn("i0", "hero"),),
        actions=(ActionAnn("a0", "wave", agent="i0"), ActionAnn("a1", "rain")),
    )
    g = build_all(doc)
    assert g.neighbors("a0", EdgeKind.HAS_AGENT) == ["i0"]
    assert g.neighbors("a1", EdgeKind.HAS_AGENT) == []
    assert g.node("a0").label() == "wave"


def test_has_agent_count_matches_annotation_scan():
    doc = generate_fixture("battle")
    g = build_all(doc)
    annotated = sum(
        1 for _, _, p in doc.iter_panels() for a in p.actions if a.agent is not None
    )
    assert sum(1 for _ in g.edges(EdgeKind.HAS_AGENT)) == annotated == 8


def test_reading_chain_follows_declaration():
    doc = generate_fixture("battle")
    g = build_all(doc)
    chain = walk_chain(g, EdgeKind.PRECEDES_READING)
    assert chain == [p.id for _, _, p in doc.iter_panels()]
    assert len(chain) == 28


def test_storytime_chain_matches_sort_oracle():
    for seed in range(6):
        doc = generate_fixture("noise", seed=seed, variance=0.8)
        g = build_all(doc)
        chain = walk_chain(g, EdgeKind.PRECEDES_STORYTIME)
        oracle = [
            p.id
            for _, _, p in sorted(doc.iter_panels(), key=lambda t: t[2].storytime_order)
        ]
        assert chain == oracle


def test_event_layer_hierarchy():
    doc = generate_fixture("romance")
    g = build_all(doc)
    think = next(n.id for n in g.nodes(NodeKind.MACRO_EVENT) if n.label() == "Think of family")
    assert len(g.neighbors(think, EdgeKind.SUBEVENT_OF, "in")) == 4
    for macro in doc.macro_events:
        chain_edges = [
            e
            for e in g.edges(EdgeKind.PRECEDES)
            if e.src in {ev.id for ev in macro.events}
        ]
        assert len(chain_edges) == len(macro.events) - 1
    macro_chain = [
        e for e in g.edges(EdgeKind.PRECEDES) if g.node(e.src).kind is NodeKind.MACRO_EVENT
    ]
    assert len(macro_chain) == len(doc.macro_events) - 1


def test_every_panel_instantiates_exactly_one_event():
    g = build_all(generate_fixture("battle"))
    for node in g.nodes(NodeKind.PANEL):
        assert len(g.neighbors(node.id, EdgeKind.INSTANTIATES)) == 1


def test_build_deterministic():
    doc = generate_fixture("romance")
    assert build_all(doc).to_json_bytes() == build_all(doc).to_json_bytes()


def test_counts_match_annotation_tally_on_all_fixtures():
    docs = [generate_fixture("battle"), generate_fixture("romance")]
    docs += [generate_fixture("noise", seed=s, variance=v)
             for s, v in itertools.product(range(4), (0.0, 0.6))]
    for doc in docs:
        g = build_all(doc)
        want_nodes, want_edges = expected_counts(doc)
        got_nodes, got_edges = count_by_kind(g)
        assert got_nodes == want_nodes, doc.story_id
        assert got_edges == want_edges, doc.story_id
        assert g.frozen and not g.normalized


@pytest.mark.parametrize("kind,seed,variance", sorted(FIXTURE_DIGESTS))
def test_built_bytes_match_pinned_digest(kind, seed, variance):
    doc = generate_fixture(kind, seed=seed, variance=variance)
    digest = hashlib.sha256(build_all(doc).to_json_bytes()).hexdigest()
    assert digest == FIXTURE_DIGESTS[(kind, seed, variance)]


@pytest.mark.parametrize("case", sorted(CROSS_TIER_COLLISIONS))
def test_cross_tier_id_collision_raises_duplicate_node(case):
    shared_id, doc = CROSS_TIER_COLLISIONS[case]
    assert [v.message for v in validate_annotations(doc)] == [f"duplicate id: {shared_id}"]
    # the builder still refuses the unvalidated document
    with pytest.raises(DuplicateNode):
        build_all(doc)


@pytest.mark.parametrize("enabled", [True, False])
def test_build_all_restores_the_callers_collector_setting(enabled):
    try:
        if not enabled:
            gc.disable()
        assert build_all(generate_fixture("battle")).frozen
        assert gc.isenabled() is enabled
        with pytest.raises(DuplicateNode):
            build_all(CROSS_TIER_COLLISIONS["event_is_action"][1])
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_build_cli_exits_2_on_cross_tier_collision(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_bytes(CROSS_TIER_COLLISIONS["event_is_panel"][1].to_json_bytes())
    out = tmp_path / "graph.json"
    assert main(["build", "--input", str(doc), "--output", str(out)]) == 2
    assert not out.exists()
