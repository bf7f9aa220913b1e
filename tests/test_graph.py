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
    Edge,
    EdgeKind,
    Layer,
    NarrativeGraph,
    Node,
    NodeKind,
    deserialize,
    serialize,
)


def panel(node_id):
    return Node(node_id, NodeKind.PANEL, {"label": node_id})


def small_graph():
    g = NarrativeGraph("tiny")
    for pid in ("p0", "p1", "p2"):
        g.add_node(panel(pid))
    g.add_node(Node("act", NodeKind.ACTION, {"label": "wave"}))
    g.add_node(Node("ent", NodeKind.CHARACTER, {"name": "N"}))
    g.add_node(Node("inst", NodeKind.CHARACTER_INSTANCE, {"panel": "p0"}))
    g.add_edge(Edge("inst", "ent", EdgeKind.REFERS_TO))
    g.add_edge(Edge("act", "inst", EdgeKind.HAS_AGENT))
    g.add_edge(Edge("p0", "p1", EdgeKind.PRECEDES_READING))
    g.add_edge(Edge("p1", "p2", EdgeKind.PRECEDES_READING))
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


def test_finalize_requires_labels():
    g = NarrativeGraph("s")
    g.add_node(Node("act", NodeKind.ACTION))
    with pytest.raises(SchemaViolation):
        g.finalize()


def test_finalize_requires_one_refers_to():
    g = NarrativeGraph("s")
    g.add_node(Node("inst", NodeKind.CHARACTER_INSTANCE))
    with pytest.raises(SchemaViolation):
        g.finalize()
    g.add_node(Node("e1", NodeKind.CHARACTER))
    g.add_node(Node("e2", NodeKind.CHARACTER))
    g.add_edge(Edge("inst", "e1", EdgeKind.REFERS_TO))
    g.add_edge(Edge("inst", "e2", EdgeKind.REFERS_TO))
    with pytest.raises(SchemaViolation):
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
    b.add_node(Node("inst", NodeKind.CHARACTER_INSTANCE, {"panel": "p0"}))
    b.add_node(Node("ent", NodeKind.CHARACTER, {"name": "N"}))
    b.add_node(Node("act", NodeKind.ACTION, {"label": "wave"}))
    for pid in ("p2", "p1", "p0"):
        b.add_node(panel(pid))
    b.add_edge(Edge("p1", "p2", EdgeKind.PRECEDES_READING))
    b.add_edge(Edge("p0", "p1", EdgeKind.PRECEDES_READING))
    b.add_edge(Edge("act", "inst", EdgeKind.HAS_AGENT))
    b.add_edge(Edge("inst", "ent", EdgeKind.REFERS_TO))
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
        order = [f"p{i}" for i in range(n)]
        for pid in order:
            g.add_node(panel(pid))
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            g.add_edge(Edge(a, b, EdgeKind.PRECEDES_STORYTIME))
        data = g.finalize().to_json_bytes()
        assert deserialize(data).to_json_bytes() == data
