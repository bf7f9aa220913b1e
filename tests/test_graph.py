import json
import random

import pytest

from nkg.errors import (
    CycleIntroduced,
    DuplicateEdge,
    DuplicateNode,
    ForestViolation,
    GraphFrozen,
    MalformedJson,
    SchemaViolation,
    UnknownEndpoint,
    UnknownNode,
)
from nkg.graph import (
    ACYCLIC_KINDS,
    KIND_LAYER,
    PANEL_ORDERS,
    Edge,
    EdgeKind,
    Layer,
    NarrativeGraph,
    Node,
    NodeKind,
    deserialize,
    serialize,
)


def panel(node_id, reading=0, storytime=0):
    return Node(
        node_id,
        NodeKind.PANEL,
        {"reading_order": str(reading), "storytime_order": str(storytime)},
    )


def small_parts():
    """Nodes and edges of a three-panel graph that passes finalize()."""
    nodes = [
        panel("p0", 0, 0),
        panel("p1", 1, 1),
        panel("p2", 2, 2),
        Node("act", NodeKind.ACTION, {"label": "wave", "panel": "p0"}),
        Node("ent", NodeKind.CHARACTER, {"entity_id": "n", "name": "N"}),
        Node("inst", NodeKind.CHARACTER_INSTANCE, {"panel": "p0"}),
    ]
    edges = [
        Edge("inst", "ent", EdgeKind.REFERS_TO),
        Edge("act", "inst", EdgeKind.HAS_AGENT),
        Edge("p0", "p1", EdgeKind.PRECEDES_READING),
        Edge("p1", "p2", EdgeKind.PRECEDES_READING),
        Edge("p0", "p1", EdgeKind.PRECEDES_STORYTIME),
        Edge("p1", "p2", EdgeKind.PRECEDES_STORYTIME),
    ]
    return nodes, edges


def small_graph(change=None):
    """The small_parts() graph, after change(nodes by id, edges) edits them."""
    nodes, edges = small_parts()
    nodes = {node.id: node for node in nodes}
    if change is not None:
        change(nodes, edges)
    g = NarrativeGraph("tiny")
    for node in nodes.values():
        g.add_node(node)
    for edge in edges:
        g.add_edge(edge)
    return g


def test_empty_graph_serialization():
    obj = json.loads(NarrativeGraph().to_json_bytes())
    assert obj == {"story_id": "", "normalized": False, "nodes": [], "edges": []}


def test_duplicate_node_rejected():
    g = NarrativeGraph("s")
    g.add_node(panel("p0"))
    with pytest.raises(DuplicateNode):
        g.add_node(panel("p0"))


def test_duplicate_edge_and_unknown_endpoint():
    g = NarrativeGraph("s")
    g.add_node(panel("p0"))
    g.add_node(panel("p1"))
    g.add_edge(Edge("p0", "p1", EdgeKind.PRECEDES_READING))
    with pytest.raises(DuplicateEdge):
        g.add_edge(Edge("p0", "p1", EdgeKind.PRECEDES_READING))
    # same endpoints under another kind is a different edge
    g.add_edge(Edge("p0", "p1", EdgeKind.PRECEDES_STORYTIME))
    with pytest.raises(UnknownEndpoint):
        g.add_edge(Edge("p0", "ghost", EdgeKind.PRECEDES_READING))
    with pytest.raises(UnknownEndpoint):
        g.add_edge(Edge("ghost", "p1", EdgeKind.PRECEDES_READING))


def test_cycles_rejected_per_order_kind():
    for kind in ACYCLIC_KINDS:
        g = NarrativeGraph("s")
        for pid in ("a", "b", "c"):
            g.add_node(panel(pid))
        g.add_edge(Edge("a", "b", kind))
        if kind is not EdgeKind.SUBEVENT_OF:  # forest rule would trip first on b
            g.add_edge(Edge("b", "c", kind))
            with pytest.raises(CycleIntroduced):
                g.add_edge(Edge("c", "a", kind))
        with pytest.raises(CycleIntroduced):
            g.add_edge(Edge("b", "a", kind))
        with pytest.raises(CycleIntroduced):
            g.add_edge(Edge("c", "c", kind))


def test_cycles_allowed_elsewhere():
    g = NarrativeGraph("s")
    g.add_node(panel("a"))
    g.add_node(panel("b"))
    g.add_edge(Edge("a", "b", EdgeKind.CO_OCCURS_WITH))
    g.add_edge(Edge("b", "a", EdgeKind.CO_OCCURS_WITH))  # no error


def test_subevent_parent_is_unique():
    g = NarrativeGraph("s")
    for nid in ("e", "m1", "m2"):
        g.add_node(Node(nid, NodeKind.EVENT, {"label": nid}))
    g.add_edge(Edge("e", "m1", EdgeKind.SUBEVENT_OF))
    with pytest.raises(ForestViolation):
        g.add_edge(Edge("e", "m2", EdgeKind.SUBEVENT_OF))


def test_neighbors_filtering_and_order():
    g = small_graph()
    g.add_edge(Edge("p0", "p2", EdgeKind.PRECEDES_STORYTIME))
    assert g.neighbors("p0") == ["p1", "p2"]
    assert g.neighbors("p0", EdgeKind.PRECEDES_READING) == ["p1"]
    assert g.neighbors("p1", EdgeKind.PRECEDES_READING, "in") == ["p0"]
    assert g.neighbors("p2", direction="in") == ["p0", "p1"]
    assert g.neighbors("act") == ["inst"]
    assert g.neighbors("act", direction="in") == []
    with pytest.raises(UnknownNode):
        g.neighbors("ghost")
    with pytest.raises(ValueError):
        g.neighbors("p0", direction="sideways")


def test_neighbors_matches_edge_scan():
    rng = random.Random(7)
    g = NarrativeGraph("rand")
    ids = [f"n{i}" for i in range(12)]
    for nid in ids:
        g.add_node(panel(nid))
    edges = set()
    while len(edges) < 30:
        src, dst = rng.choice(ids), rng.choice(ids)
        kind = rng.choice([EdgeKind.CO_OCCURS_WITH, EdgeKind.GROUNDED_IN, EdgeKind.ACTS_ON])
        if (src, dst, kind) not in edges:
            edges.add((src, dst, kind))
            g.add_edge(Edge(src, dst, kind))
    for nid in ids:
        for kind in (None, EdgeKind.CO_OCCURS_WITH):
            scan = sorted(
                {d for s, d, k in edges if s == nid and kind in (None, k)}
            )
            assert g.neighbors(nid, kind) == scan
            scan_in = sorted(
                {s for s, d, k in edges if d == nid and kind in (None, k)}
            )
            assert g.neighbors(nid, kind, "in") == scan_in


def test_finalize_freezes():
    g = small_graph().finalize()
    assert g.frozen
    with pytest.raises(GraphFrozen):
        g.add_node(panel("p9"))
    with pytest.raises(GraphFrozen):
        g.add_edge(Edge("p0", "p2", EdgeKind.PRECEDES_STORYTIME))


def test_frozen_graph_keeps_its_ordered_views():
    g = small_graph()
    assert g.nodes() == g.nodes() and g.nodes() is not g.nodes()
    assert [n.id for n in g.nodes()] == sorted(n.id for n in g.nodes())
    assert [e.key() for e in g.edges()] == sorted(e.key() for e in g.edges())
    unfrozen = (g.nodes(), g.nodes(NodeKind.PANEL), g.edges(), g.edges(EdgeKind.REFERS_TO))
    g.finalize()
    frozen = (g.nodes(), g.nodes(NodeKind.PANEL), g.edges(), g.edges(EdgeKind.REFERS_TO))
    assert frozen == unfrozen
    assert all(view is again for view, again in zip(frozen, (
        g.nodes(), g.nodes(NodeKind.PANEL), g.edges(), g.edges(EdgeKind.REFERS_TO)
    )))
    assert [n.id for n in g.nodes(NodeKind.PANEL)] == ["p0", "p1", "p2"]


def test_memo_builds_once_only_when_frozen():
    g = small_graph()
    calls = []
    build = lambda: calls.append(1) or len(calls)
    assert (g.memo("k", build), g.memo("k", build)) == (1, 2)
    g.finalize()
    assert (g.memo("k", build), g.memo("k", build)) == (3, 3)
    assert g.memo("other", build) == 4


def test_finalize_requires_labels():
    g = NarrativeGraph("s")
    g.add_node(Node("act", NodeKind.ACTION))
    with pytest.raises(SchemaViolation, match="requires a label"):
        g.finalize()


def test_finalize_requires_one_refers_to():
    g = NarrativeGraph("s")
    g.add_node(Node("inst", NodeKind.CHARACTER_INSTANCE))
    with pytest.raises(SchemaViolation, match="exactly one refers_to edge, has 0"):
        g.finalize()
    g.add_node(Node("e1", NodeKind.CHARACTER))
    g.add_node(Node("e2", NodeKind.CHARACTER))
    g.add_edge(Edge("inst", "e1", EdgeKind.REFERS_TO))
    g.add_edge(Edge("inst", "e2", EdgeKind.REFERS_TO))
    with pytest.raises(SchemaViolation, match="exactly one refers_to edge, has 2"):
        g.finalize()


def test_round_trip_identity_and_stability():
    g = small_graph().finalize()
    data = serialize(g)
    again = deserialize(data)
    assert again == g
    assert serialize(again) == data


def test_serialization_ignores_construction_order():
    a = small_graph()
    b = NarrativeGraph("tiny")
    nodes, edges = small_parts()
    for node in reversed(nodes):
        b.add_node(node)
    for edge in reversed(edges):
        b.add_edge(edge)
    assert a.to_json_bytes() == b.to_json_bytes()
    assert a == b


def test_deserialize_rejects_bad_input():
    with pytest.raises(MalformedJson):
        deserialize(b"{nope")
    with pytest.raises(SchemaViolation):
        deserialize(b"[]")
    with pytest.raises(SchemaViolation):
        deserialize(json.dumps({"story_id": "s", "normalized": False, "nodes": []}).encode())
    obj = json.loads(small_graph().finalize().to_json_bytes())
    obj["nodes"][0]["kind"] = "hologram"
    with pytest.raises(SchemaViolation):
        deserialize(json.dumps(obj).encode())
    obj = json.loads(small_graph().finalize().to_json_bytes())
    obj["edges"].append({"src": "p0", "dst": "p0", "kind": "sideways"})
    with pytest.raises(SchemaViolation):
        deserialize(json.dumps(obj).encode())


def test_layer_follows_kind():
    assert set(KIND_LAYER) == set(NodeKind)
    assert panel("p0").layer is Layer.TEMPORAL
    assert Node("act", NodeKind.ACTION, {"label": "wave"}).layer is Layer.PANEL
    assert Node("m", NodeKind.MACRO_EVENT, {"label": "arc"}).layer is Layer.EVENT
    obj = json.loads(small_graph().finalize().to_json_bytes())
    assert {n["id"]: n["layer"] for n in obj["nodes"]} == {
        "act": "panel", "ent": "panel", "inst": "panel",
        "p0": "temporal", "p1": "temporal", "p2": "temporal",
    }


def test_deserialize_rejects_layer_that_disagrees_with_kind():
    obj = json.loads(small_graph().finalize().to_json_bytes())
    act = next(n for n in obj["nodes"] if n["id"] == "act")
    act["layer"] = "event"
    with pytest.raises(SchemaViolation, match="action node must be on layer panel"):
        deserialize(json.dumps(obj).encode())


def test_deserialize_enforces_graph_invariants():
    obj = json.loads(small_graph().finalize().to_json_bytes())
    obj["edges"].append({"src": "p2", "dst": "p0", "kind": "precedes_reading"})
    with pytest.raises(CycleIntroduced):
        deserialize(json.dumps(obj).encode())


def test_random_chain_round_trips():
    rng = random.Random(23)
    for _ in range(20):
        g = NarrativeGraph(f"s{rng.randint(0, 99)}", normalized=bool(rng.random() < 0.5))
        n = rng.randint(1, 15)
        storytime = list(range(n))
        rng.shuffle(storytime)
        for i in range(n):
            g.add_node(panel(f"p{i}", i, storytime[i]))
        for attr, kind in PANEL_ORDERS.values():
            chain = sorted(g.nodes(NodeKind.PANEL), key=lambda p: int(p.attrs[attr]))
            for a, b in zip(chain, chain[1:]):
                g.add_edge(Edge(a.id, b.id, kind))
        data = g.finalize().to_json_bytes()
        assert deserialize(data).to_json_bytes() == data


def set_attr(nodes, node_id, key, value):
    attrs = dict(nodes[node_id].attrs)
    if value is None:
        attrs.pop(key, None)
    else:
        attrs[key] = value
    nodes[node_id] = Node(node_id, nodes[node_id].kind, attrs)


def swap_reading_orders(nodes, edges):
    set_attr(nodes, "p0", "reading_order", "1")
    set_attr(nodes, "p1", "reading_order", "0")


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda n, e: set_attr(n, "p1", "reading_order", None), "reading_order must be an int"),
        (lambda n, e: set_attr(n, "p1", "storytime_order", "x"), "storytime_order must be an int"),
        (lambda n, e: set_attr(n, "p1", "reading_order", "0"), "share reading_order 0"),
        (lambda n, e: e.remove(Edge("p1", "p2", EdgeKind.PRECEDES_STORYTIME)), "lacks edge p1"),
        (lambda n, e: e.append(Edge("p0", "p2", EdgeKind.PRECEDES_READING)), "extra edge p0"),
        (swap_reading_orders, "precedes_reading chain: has an extra edge p0 -> p1 by"),
    ],
    ids=["missing", "not-a-number", "shared", "stripped-edge", "extra-edge", "swapped"],
)
def test_finalize_checks_each_order_against_its_chain(change, message):
    with pytest.raises(SchemaViolation, match=message):
        small_graph(change).finalize()


def test_order_positions_need_not_be_consecutive():
    g = small_graph(lambda n, e: set_attr(n, "p2", "storytime_order", "7"))
    assert g.finalize().frozen


def add_dialogue(nodes, edges, **changes):
    nodes["dlg"] = Node("dlg", NodeKind.DIALOGUE, {"panel": "p0", "order": "0", "text": "hi"})
    for key, value in changes.items():
        set_attr(nodes, "dlg", key, value)
    edges.append(Edge("dlg", "p0", EdgeKind.GROUNDED_IN))


def refer_to_action(nodes, edges):
    edges.remove(Edge("inst", "ent", EdgeKind.REFERS_TO))
    edges.append(Edge("inst", "act", EdgeKind.REFERS_TO))


def action_instantiates_event(nodes, edges):
    nodes["ev"] = Node("ev", NodeKind.EVENT, {"label": "x"})
    edges.append(Edge("act", "ev", EdgeKind.INSTANTIATES))


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda n, e: set_attr(n, "act", "panel", None), "panel None names no panel"),
        (lambda n, e: set_attr(n, "act", "panel", "ent"), "panel 'ent' names no panel"),
        (lambda n, e: set_attr(n, "inst", "panel", "ghost"), "panel 'ghost' names no panel"),
        (lambda n, e: set_attr(n, "ent", "entity_id", None), "character requires an entity_id"),
        (lambda n, e: add_dialogue(n, e, order="first"), "order must be an integer"),
        (lambda n, e: add_dialogue(n, e, text=None), "dialogue requires a text"),
        (lambda n, e: add_dialogue(n, e, speaker="ghost"), "speaker 'ghost' names no character"),
        (lambda n, e: add_dialogue(n, e, speaker="act"), "speaker 'act' names no character"),
        (refer_to_action, "refers_to must run from character_instance to character"),
        (action_instantiates_event, "instantiates must run from panel to event"),
    ],
    ids=[
        "action-without-panel", "action-panel-not-a-panel", "instance-panel-unknown",
        "character-without-entity-id", "dialogue-order-not-integer", "dialogue-without-text",
        "speaker-unknown", "speaker-not-an-instance", "refers-to-non-character",
        "instantiates-from-non-panel",
    ],
)
def test_finalize_checks_attributes_the_queries_read(change, message):
    with pytest.raises(SchemaViolation, match=message):
        small_graph(change).finalize()


def test_finalize_accepts_dialogue_with_and_without_speaker():
    assert small_graph(lambda n, e: add_dialogue(n, e, speaker="inst")).finalize().frozen
    assert small_graph(add_dialogue).finalize().frozen
