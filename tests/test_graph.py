import copy
import dataclasses
import gc
import inspect
import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nkg import annotations
from nkg import graph as graph_module
from nkg.builder import build_all
from nkg.errors import (
    CycleIntroduced,
    DuplicateEdge,
    DuplicateNode,
    ForestViolation,
    GraphFrozen,
    MalformedJson,
    NkgError,
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
from nkg.fixtures import generate_fixture
from nkg.reasoner import ActionHit


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
        g.add_edge(edge.src, edge.dst, edge.kind)
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
    g.add_edge("p0", "p1", EdgeKind.PRECEDES_READING)
    with pytest.raises(DuplicateEdge):
        g.add_edge("p0", "p1", EdgeKind.PRECEDES_READING)
    # same endpoints under another kind is a different edge
    g.add_edge("p0", "p1", EdgeKind.PRECEDES_STORYTIME)
    with pytest.raises(UnknownEndpoint):
        g.add_edge("p0", "ghost", EdgeKind.PRECEDES_READING)
    with pytest.raises(UnknownEndpoint):
        g.add_edge("ghost", "p1", EdgeKind.PRECEDES_READING)


def test_cycles_rejected_per_order_kind():
    for kind in ACYCLIC_KINDS:
        g = NarrativeGraph("s")
        for pid in ("a", "b", "c"):
            g.add_node(panel(pid))
        g.add_edge("a", "b", kind)
        if kind is not EdgeKind.SUBEVENT_OF:  # forest rule would trip first on b
            g.add_edge("b", "c", kind)
            with pytest.raises(CycleIntroduced):
                g.add_edge("c", "a", kind)
        with pytest.raises(CycleIntroduced):
            g.add_edge("b", "a", kind)
        with pytest.raises(CycleIntroduced):
            g.add_edge("c", "c", kind)


def test_cycles_allowed_elsewhere():
    g = NarrativeGraph("s")
    g.add_node(panel("a"))
    g.add_node(panel("b"))
    g.add_edge("a", "b", EdgeKind.CO_OCCURS_WITH)
    g.add_edge("b", "a", EdgeKind.CO_OCCURS_WITH)  # no error


def test_subevent_parent_is_unique():
    g = NarrativeGraph("s")
    for nid in ("e", "m1", "m2"):
        g.add_node(Node(nid, NodeKind.EVENT, {"label": nid}))
    g.add_edge("e", "m1", EdgeKind.SUBEVENT_OF)
    with pytest.raises(ForestViolation):
        g.add_edge("e", "m2", EdgeKind.SUBEVENT_OF)


def test_neighbors_filtering_and_order():
    g = small_graph()
    g.add_edge("p0", "p2", EdgeKind.PRECEDES_STORYTIME)
    assert g.neighbors("p0", EdgeKind.PRECEDES_READING) == ["p1"]
    assert g.neighbors("p0", EdgeKind.PRECEDES_STORYTIME) == ["p1", "p2"]
    assert g.neighbors("p1", EdgeKind.PRECEDES_READING, "in") == ["p0"]
    assert g.neighbors("p2", EdgeKind.PRECEDES_READING, "in") == ["p1"]
    assert g.neighbors("p2", EdgeKind.PRECEDES_STORYTIME, "in") == ["p0", "p1"]
    assert g.neighbors("act", EdgeKind.HAS_AGENT) == ["inst"]
    assert all(g.neighbors("act", kind, "in") == [] for kind in EdgeKind)
    with pytest.raises(UnknownNode):
        g.neighbors("ghost", EdgeKind.PRECEDES_READING)
    with pytest.raises(ValueError):
        g.neighbors("p0", EdgeKind.PRECEDES_READING, direction="sideways")


@pytest.mark.parametrize("frozen", [False, True], ids=["building", "frozen"])
def test_table_and_neighbors_reject_an_unknown_direction_alike(frozen):
    g = small_graph()
    if frozen:
        g.finalize()
    message = "direction must be 'out' or 'in', got 'sideways'"
    for read in (
        lambda: g.table(EdgeKind.PRECEDES_READING, "sideways"),
        lambda: g.neighbors("p0", EdgeKind.PRECEDES_READING, "sideways"),
    ):
        with pytest.raises(ValueError) as raised:
            read()
        assert str(raised.value) == message


def test_node_lookup_of_a_missing_id_raises_unknown_node():
    g = small_graph().finalize()
    assert g.node("p0").id == "p0"
    with pytest.raises(UnknownNode):
        g.node("ghost")


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
            g.add_edge(src, dst, kind)
    for nid in ids:
        for kind in EdgeKind:
            scan = sorted(d for s, d, k in edges if s == nid and k is kind)
            assert g.neighbors(nid, kind) == scan
            scan_in = sorted(s for s, d, k in edges if d == nid and k is kind)
            assert g.neighbors(nid, kind, "in") == scan_in
    keys = sorted((s, d, k.value) for s, d, k in edges)
    assert [e.key() for e in g.edges()] == keys
    for kind in EdgeKind:
        assert [e.key() for e in g.edges(kind)] == [key for key in keys if key[2] == kind.value]
        assert all(e.kind is kind for e in g.edges(kind))
    assert g.edge_count() == len(edges)


def test_finalize_freezes():
    g = small_graph().finalize()
    assert g.frozen
    with pytest.raises(GraphFrozen):
        g.add_node(panel("p9"))
    with pytest.raises(GraphFrozen):
        g.add_edge("p0", "p2", EdgeKind.PRECEDES_STORYTIME)


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


def test_relabeled_replaces_nodes_and_keeps_the_topology():
    g = small_graph().finalize()
    out = g.relabeled({"act": "greet"})
    assert out.frozen and out.normalized and not g.normalized
    waved = {"label": "greet", "surface_label": "wave", "panel": "p0"}
    assert out.node("act") == Node("act", NodeKind.ACTION, waved)
    assert g.node("act").label() == "wave"
    assert out.nodes(NodeKind.PANEL) == g.nodes(NodeKind.PANEL)
    assert out.edges() == g.edges()
    with pytest.raises(GraphFrozen):
        out.add_edge("p0", "p2", EdgeKind.CO_OCCURS_WITH)
    assert g.edge_count() == out.edge_count() == 6
    # a node that already has a surface label keeps it
    again = out.relabeled({"act": "salute"})
    assert again.node("act").attrs == {**waved, "label": "salute"}
    with pytest.raises(UnknownNode):
        g.relabeled({"ghost": "x"})
    with pytest.raises(SchemaViolation, match="string→string"):
        g.relabeled({"act": 5})
    with pytest.raises(SchemaViolation, match="action requires a label"):
        g.relabeled({"act": ""})
    with pytest.raises(ValueError, match="must be finalized"):
        small_graph().relabeled({})


def test_memo_builds_once_only_when_frozen():
    g = small_graph()
    calls = []
    build = lambda: calls.append(1) or len(calls)
    assert (g.memo("k", build), g.memo("k", build)) == (1, 2)
    g.finalize()
    assert (g.memo("k", build), g.memo("k", build)) == (3, 3)
    assert g.memo("other", build) == 4


@pytest.mark.parametrize("frozen", [True, False])
def test_nodes_of_a_kind_are_the_sorted_filter(battle_bytes, frozen):
    graph = deserialize(battle_bytes)
    if not frozen:
        unfrozen = NarrativeGraph(graph.story_id)
        for node in reversed(graph.nodes()):  # insertion order unlike id order
            unfrozen.add_node(node)
        graph = unfrozen
    nodes = graph._nodes
    for kind in NodeKind:
        want = tuple(nodes[i] for i in sorted(nodes) if nodes[i].kind is kind)
        assert graph.nodes(kind) == want
        assert graph.nodes(kind) == want  # the same from the memo, when frozen
    assert graph.nodes() == tuple(nodes[i] for i in sorted(nodes))


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
    g.add_edge("inst", "e1", EdgeKind.REFERS_TO)
    g.add_edge("inst", "e2", EdgeKind.REFERS_TO)
    with pytest.raises(SchemaViolation, match="exactly one refers_to edge, has 2"):
        g.finalize()


def json_dumps_oracle(g):
    """The canonical bytes as the pure-Python json encoder writes them; the
    graph writer must give exactly these."""
    obj = {
        "story_id": g.story_id,
        "normalized": g.normalized,
        "nodes": [
            {"id": n.id, "kind": n.kind.value, "layer": n.layer.value, "attrs": n.attrs}
            for n in g.nodes()
        ],
        "edges": [{"src": e.src, "dst": e.dst, "kind": e.kind.value} for e in g.edges()],
    }
    return (json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n").encode()


# quotes, backslashes, control characters, line and paragraph separators,
# non-BMP characters, the braces and percent sign of format templates; empty
# strings come from min_size=0
HOSTILE = [
    '"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\u2028", "\u2029", "\U0001f600", "é", "/",
    "{", "}", "%",
]
hostile_text = st.text(
    st.one_of(st.sampled_from(HOSTILE), st.characters(blacklist_categories=("Cs",))),
    max_size=6,
)
# kinds that allow cycles and a second parent, so any generated edge set is valid
FREE_EDGE_KINDS = sorted(set(EdgeKind) - ACYCLIC_KINDS, key=lambda kind: kind.value)


@st.composite
def hostile_graphs(draw):
    g = NarrativeGraph(draw(hostile_text), normalized=draw(st.booleans()))
    ids = draw(st.lists(hostile_text, unique=True, max_size=6))
    for node_id in ids:
        attrs = draw(st.dictionaries(hostile_text, hostile_text, max_size=3))
        g.add_node(Node(node_id, draw(st.sampled_from(list(NodeKind))), attrs))
    if ids:
        ends = st.sampled_from(ids)
        edges = st.tuples(ends, ends, st.sampled_from(FREE_EDGE_KINDS))
        for src, dst, kind in draw(st.lists(edges, unique=True, max_size=8)):
            g.add_edge(src, dst, kind)
    return g


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(hostile_graphs())
@example(NarrativeGraph())
@example(NarrativeGraph("", normalized=True))
def test_writer_bytes_equal_json_dumps(g):
    assert g.to_json_bytes() == json_dumps_oracle(g)


def test_writer_bytes_equal_json_dumps_on_a_built_story():
    g = build_all(generate_fixture("battle"))
    assert g.to_json_bytes() == json_dumps_oracle(g)


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
        b.add_edge(edge.src, edge.dst, edge.kind)
    assert a.to_json_bytes() == b.to_json_bytes()
    assert a == b
    b.add_edge("p0", "p2", EdgeKind.CO_OCCURS_WITH)
    assert a != b


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


def battle_node(obj, node_id):
    return next(n for n in obj["nodes"] if n["id"] == node_id)


DELETE = object()


def set_field(node_id, key, value, attr=False):
    """An edit that sets (or, with DELETE, drops) a node field or attribute."""
    def edit(obj):
        record = battle_node(obj, node_id)
        record = record["attrs"] if attr else record
        if value is DELETE:
            del record[key]
        else:
            record[key] = value
    return edit


def set_edge_field(key, value, index=0):
    def edit(obj):
        if value is DELETE:
            del obj["edges"][index][key]
        else:
            obj["edges"][index][key] = value
    return edit


def in_turn(*edits):
    """One edit that makes each of these, in order."""
    def edit(obj):
        for each in edits:
            each(obj)
    return edit


def append_edge(src, dst, kind):
    return lambda obj: obj["edges"].append({"src": src, "dst": dst, "kind": kind})


def strip_battle_storytime_chain(obj):
    obj["edges"] = [e for e in obj["edges"] if e["kind"] != "precedes_storytime"]


def swap_battle_reading_orders(obj):
    set_field("0_0_0", "reading_order", "1", attr=True)(obj)
    set_field("0_0_1", "reading_order", "0", attr=True)(obj)


# corrupted battle graph files and the exception class the reader raised for
# each before its per-record lookups were replaced; every class must hold
CORRUPT_GRAPH_FILES = {
    "document-is-a-list": (lambda obj: obj.clear(), SchemaViolation),
    "story-id-number": (lambda obj: obj.update(story_id=7), SchemaViolation),
    "normalized-string": (lambda obj: obj.update(normalized="false"), SchemaViolation),
    "nodes-missing": (lambda obj: obj.pop("nodes"), SchemaViolation),
    "edges-object": (lambda obj: obj.update(edges={}), SchemaViolation),
    "node-not-object": (lambda obj: obj["nodes"].append("0_0_0"), SchemaViolation),
    "node-kind-list": (set_field("0_0_0", "kind", ["panel"]), SchemaViolation),
    "node-kind-dict": (set_field("0_0_0", "kind", {"panel": "temporal"}), SchemaViolation),
    "node-kind-number": (set_field("0_0_0", "kind", 3), SchemaViolation),
    "node-kind-bool": (set_field("0_0_0", "kind", True), SchemaViolation),
    "node-kind-null": (set_field("0_0_0", "kind", None), SchemaViolation),
    "node-kind-unknown": (set_field("0_0_0", "kind", "hologram"), SchemaViolation),
    "node-kind-missing": (set_field("0_0_0", "kind", DELETE), SchemaViolation),
    "node-layer-list": (set_field("0_0_0", "layer", ["temporal"]), SchemaViolation),
    "node-layer-dict": (set_field("0_0_0", "layer", {"temporal": 1}), SchemaViolation),
    "node-layer-unknown": (set_field("0_0_0", "layer", "astral"), SchemaViolation),
    "node-layer-missing": (set_field("0_0_0", "layer", DELETE), SchemaViolation),
    "node-layer-disagrees": (set_field("a:0_0_0:0", "layer", "event"), SchemaViolation),
    "node-id-number": (set_field("e0_0", "id", 5), SchemaViolation),
    "node-id-list": (set_field("e0_0", "id", ["e0_0"]), SchemaViolation),
    "node-id-missing": (set_field("e0_0", "id", DELETE), SchemaViolation),
    "node-attrs-list": (set_field("e0_0", "attrs", []), SchemaViolation),
    "attr-value-number": (set_field("e0_0", "label", 5, attr=True), SchemaViolation),
    "attr-value-null": (set_field("e0_0", "label", None, attr=True), SchemaViolation),
    "attr-value-list": (set_field("e0_0", "label", ["Village dawn"], attr=True), SchemaViolation),
    "duplicate-node": (
        lambda obj: obj["nodes"].append(copy.deepcopy(battle_node(obj, "e0_0"))), DuplicateNode
    ),
    "edge-not-object": (lambda obj: obj["edges"].append(["0_0_0", "0_0_1"]), SchemaViolation),
    "edge-kind-list": (set_edge_field("kind", ["co_occurs_with"]), SchemaViolation),
    "edge-kind-dict": (set_edge_field("kind", {"co_occurs_with": 1}), SchemaViolation),
    "edge-kind-number": (set_edge_field("kind", 1), SchemaViolation),
    "edge-kind-unknown": (set_edge_field("kind", "sideways"), SchemaViolation),
    "edge-kind-missing": (set_edge_field("kind", DELETE), SchemaViolation),
    "edge-src-number": (set_edge_field("src", 1), SchemaViolation),
    "edge-dst-missing": (set_edge_field("dst", DELETE), SchemaViolation),
    "duplicate-edge": (lambda obj: obj["edges"].append(dict(obj["edges"][0])), DuplicateEdge),
    "unknown-src": (append_edge("ghost", "0_0_0", "co_occurs_with"), UnknownEndpoint),
    # faults that meet in the reader's one edge loop: the first edge's is named
    "unknown-src-then-kind-unknown": (
        in_turn(set_edge_field("src", "ghost"), set_edge_field("kind", "sideways", -1)),
        UnknownEndpoint,
    ),
    "duplicate-edge-then-not-object": (
        in_turn(lambda obj: obj["edges"].append(dict(obj["edges"][0])),
                lambda obj: obj["edges"].append(["0_0_0", "0_0_1"])),
        DuplicateEdge,
    ),
    "unknown-dst-then-kind-unhashable": (
        in_turn(append_edge("0_0_0", "ghost", "co_occurs_with"),
                append_edge("0_0_0", "0_0_1", ["co_occurs_with"])),
        UnknownEndpoint,
    ),
    "edge-kind-unhashable-last": (set_edge_field("kind", {"precedes": 1}, -1), SchemaViolation),
    "edge-src-unhashable-then-duplicate": (
        in_turn(set_edge_field("src", ["0_0_0"], 1),
                lambda obj: obj["edges"].append(dict(obj["edges"][0]))),
        SchemaViolation,
    ),
    "unknown-dst": (append_edge("0_0_0", "ghost", "precedes_reading"), UnknownEndpoint),
    "second-subevent-parent": (append_edge("e0_0", "m1", "subevent_of"), ForestViolation),
    "cycle-precedes-reading": (append_edge("0_0_1", "0_0_0", "precedes_reading"), CycleIntroduced),
    "cycle-precedes-storytime": (
        append_edge("0_0_1", "0_0_0", "precedes_storytime"), CycleIntroduced
    ),
    "cycle-precedes": (append_edge("e0_1", "e0_0", "precedes"), CycleIntroduced),
    "cycle-subevent-of": (append_edge("m0", "e0_0", "subevent_of"), CycleIntroduced),
    "self-loop-precedes": (append_edge("e0_0", "e0_0", "precedes"), CycleIntroduced),
    "chain-swapped-orders": (swap_battle_reading_orders, SchemaViolation),
    "chain-stripped": (strip_battle_storytime_chain, SchemaViolation),
    "chain-extra-edge": (append_edge("0_0_0", "0_1_0", "precedes_reading"), SchemaViolation),
    "chain-missing-order": (
        set_field("0_0_1", "storytime_order", DELETE, attr=True), SchemaViolation
    ),
    "chain-shared-order": (set_field("0_0_1", "reading_order", "0", attr=True), SchemaViolation),
    "chain-order-not-integer": (
        set_field("0_0_1", "reading_order", "one", attr=True), SchemaViolation
    ),
}


@pytest.fixture(scope="module")
def battle_bytes():
    return build_all(generate_fixture("battle")).to_json_bytes()


def corrupt_battle_file(battle_bytes, case):
    edit, _ = CORRUPT_GRAPH_FILES[case]
    obj = json.loads(battle_bytes)
    edit(obj)
    return json.dumps(obj if obj else []).encode()  # an emptied document stands for a list


@pytest.mark.parametrize("case", sorted(CORRUPT_GRAPH_FILES))
def test_reader_rejects_corrupt_file_with_its_class(battle_bytes, case):
    error = CORRUPT_GRAPH_FILES[case][1]
    with pytest.raises(error) as raised:
        deserialize(corrupt_battle_file(battle_bytes, case))
    assert type(raised.value) is error


def read_item_by_item(raw):
    """deserialize with its whole-table passes switched off, so that every
    item goes through add_node and add_edge: the reader's error path, and the
    reference for its passes."""
    fill_tables = NarrativeGraph._fill_tables
    NarrativeGraph._fill_tables = lambda self, nodes, edges: False
    try:
        return deserialize(raw)
    finally:
        NarrativeGraph._fill_tables = fill_tables


def read_outcome(read, raw):
    """The graph a reader returns and its bytes, or the class and message it raised."""
    try:
        g = read(raw)
    except NkgError as exc:
        return type(exc), str(exc)
    return g, g.to_json_bytes()


def wide_graph():
    """An object with three co-occurring objects and an event that precedes
    three others: table entries grown to a set of three ends."""
    g = NarrativeGraph("wide")
    for i in range(4):
        g.add_node(Node(f"o{i}", NodeKind.OBJECT, {"label": "rock"}))
        g.add_node(Node(f"e{i}", NodeKind.EVENT, {"label": "fight"}))
    for i in (1, 2, 3):
        g.add_edge("o0", f"o{i}", EdgeKind.CO_OCCURS_WITH)
        g.add_edge("e0", f"e{i}", EdgeKind.PRECEDES)
    return g


def test_reader_paths_agree_on_entries_of_three_ends():
    built = wide_graph().finalize()
    raw = built.to_json_bytes()
    assert read_outcome(deserialize, raw) == read_outcome(read_item_by_item, raw) == (built, raw)
    # the same file with an edge of a three-end entry repeated
    doc = json.loads(raw)
    doc["edges"].append({"dst": "o2", "kind": "co_occurs_with", "src": "o0"})
    repeated = json.dumps(doc).encode()
    with pytest.raises(DuplicateEdge) as want:
        wide_graph().add_edge("o0", "o2", EdgeKind.CO_OCCURS_WITH)
    for read in (deserialize, read_item_by_item):
        assert read_outcome(read, repeated) == (DuplicateEdge, str(want.value))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde")), max_size=12))
@example([("a", "c"), ("b", "c")])  # a node with two predecessors and no cycle
def test_kahn_pass_finds_a_cycle_exactly_when_a_search_does(pairs):
    out = {}
    for src, dst in pairs:
        graph_module._attach(out, src, dst)

    def reaches(start, goal):
        seen, frontier = {start}, [start]
        while frontier:
            for nxt in graph_module.ends(out.get(frontier.pop())):
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    assert graph_module._acyclic(out) is not any(reaches(dst, src) for src, dst in pairs)


@pytest.mark.parametrize("case", sorted(CORRUPT_GRAPH_FILES))
def test_reader_paths_raise_alike_on_corrupt_files(battle_bytes, case):
    raw = corrupt_battle_file(battle_bytes, case)
    want = read_outcome(read_item_by_item, raw)
    assert want[0] is CORRUPT_GRAPH_FILES[case][1]
    assert read_outcome(deserialize, raw) == want


MUTATIONS = ("drop-node", "duplicate-edge", "close-cycle", "second-parent", "shuffle")


@st.composite
def mutated_graph_files(draw):
    """The file of a hostile graph with a chain of each order-bearing kind
    added, after up to three mutations: a node dropped, an edge duplicated, a
    chain closed into a cycle, a second subevent_of parent, the nodes and
    edges shuffled."""
    obj = json.loads(draw(hostile_graphs()).to_json_bytes())
    ids = [n["id"] for n in obj["nodes"]]
    chains = []
    for kind in ORDER_KINDS:
        chain = draw(st.lists(st.sampled_from(ids), unique=True, max_size=4)) if ids else []
        chains.append((kind.value, chain))
        obj["edges"] += [{"src": a, "dst": b, "kind": kind.value} for a, b in zip(chain, chain[1:])]
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        nodes, edges = obj["nodes"], obj["edges"]
        if mutation == "drop-node" and nodes:
            del nodes[draw(st.integers(0, len(nodes) - 1))]
        elif mutation == "duplicate-edge" and edges:
            edges.append(dict(draw(st.sampled_from(edges))))
        elif mutation == "close-cycle":
            kind, chain = draw(st.sampled_from(chains))
            if chain:
                edges.append({"src": chain[-1], "dst": chain[0], "kind": kind})
        elif mutation == "second-parent":
            kind, chain = chains[ORDER_KINDS.index(EdgeKind.SUBEVENT_OF)]
            if len(chain) > 1:
                edges.append({"src": chain[0], "dst": draw(st.sampled_from(ids)), "kind": kind})
        elif mutation == "shuffle":
            obj["nodes"], obj["edges"] = draw(st.permutations(nodes)), draw(st.permutations(edges))
    return json.dumps(obj, ensure_ascii=False).encode()


def small_file(edges):
    """The file of objects a, b and c with these (src, dst, kind value) edges."""
    nodes = [{"attrs": {"label": i}, "id": i, "kind": "object", "layer": "panel"} for i in "abc"]
    edges = [{"src": s, "dst": d, "kind": k} for s, d, k in edges]
    return json.dumps({"edges": edges, "nodes": nodes, "normalized": False, "story_id": ""}).encode()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_graph_files())
# a duplicate of an edge whose source already has two neighbours of its kind
@example(small_file([("a", "b", "acts_on"), ("a", "c", "acts_on"), ("a", "b", "acts_on")]))
@example(small_file([("a", "b", "precedes"), ("b", "c", "precedes"), ("c", "a", "precedes")]))
def test_reader_paths_agree_on_mutated_files(raw):
    assert read_outcome(deserialize, raw) == read_outcome(read_item_by_item, raw)
    # below finalize(): the passes find a fault exactly when the item path
    # raises one, and otherwise fill the tables the item path fills
    obj, tables = json.loads(raw), NarrativeGraph()
    filled = tables._fill_tables(obj["nodes"], obj["edges"])
    obj, items = json.loads(raw), NarrativeGraph()
    try:
        items._add_items(obj["nodes"], obj["edges"])
    except NkgError:
        assert not filled
    else:
        assert filled
        assert tables == items and tables.to_json_bytes() == items.to_json_bytes()
        assert_edge_tables_hold_node_ids(tables)


@pytest.mark.parametrize("enabled", [True, False])
def test_reader_restores_the_callers_collector_setting(battle_bytes, enabled):
    edit, error = CORRUPT_GRAPH_FILES["cycle-precedes"]
    obj = json.loads(battle_bytes)
    edit(obj)
    try:
        if not enabled:
            gc.disable()
        assert deserialize(battle_bytes).frozen
        assert gc.isenabled() is enabled
        with pytest.raises(error):
            deserialize(json.dumps(obj).encode())
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_writer_pauses_and_restores_the_callers_collector_setting(
    battle_bytes, enabled, monkeypatch
):
    during = []
    dump_list = graph_module.dump_list

    def spy(items, indent):
        during.append(gc.isenabled())
        return dump_list(items, indent)

    graph = deserialize(battle_bytes)
    monkeypatch.setattr(graph_module, "dump_list", spy)
    try:
        if not enabled:
            gc.disable()
        assert graph.to_json_bytes() == battle_bytes
        assert gc.isenabled() is enabled
        assert small_graph().to_json_bytes() == small_graph().finalize().to_json_bytes()
        assert gc.isenabled() is enabled
        assert during == [False] * 6  # edges, then nodes, of each write
    finally:
        gc.enable()


@pytest.mark.parametrize("enum", [NodeKind, EdgeKind, Layer])
def test_kind_enums_hash_by_identity(enum):
    assert all(hash(member) == object.__hash__(member) for member in enum)


@pytest.mark.parametrize("raw", [b"{nope", b'{"story_id": "\xff"}', b"\xff\xfe"])
def test_reader_rejects_bytes_that_are_not_json(raw):
    with pytest.raises(MalformedJson):
        deserialize(raw)


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
                g.add_edge(a.id, b.id, kind)
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
    g = small_graph(lambda n, e: set_attr(n, "p0", "reading_order", "-1"))
    assert g.finalize().frozen


# int() takes all of these, and "1_0" reads as 10, but the builder writes str(int)
NON_CANONICAL_INTEGERS = [" 1", "1 ", "+1", "01", "1_0", "\u0661", "-0", "1.0", ""]


@pytest.mark.parametrize("value", NON_CANONICAL_INTEGERS)
@pytest.mark.parametrize("node_id, attr", [
    ("p1", "reading_order"), ("p1", "storytime_order"), ("dlg", "order"),
])
def test_finalize_rejects_non_canonical_integers(node_id, attr, value):
    def change(nodes, edges):
        add_dialogue(nodes, edges)
        set_attr(nodes, node_id, attr, value)

    with pytest.raises(SchemaViolation, match=f"node {node_id}: {attr} must be an integer"):
        small_graph(change).finalize()


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


class AlwaysSearchGraph(NarrativeGraph):
    """add_edge as it was before the cycle-check shortcut: a reachability
    search for every edge of an acyclic kind. The oracle for add_edge."""

    def add_edge(self, src, dst, kind):
        if self._frozen:
            raise GraphFrozen()
        if src not in self._nodes or dst not in self._nodes:
            raise UnknownEndpoint(src if src not in self._nodes else dst)
        out = self._out[kind]
        if dst in out.get(src, ()):
            raise DuplicateEdge(str((src, dst, kind._value_)))
        if kind is EdgeKind.SUBEVENT_OF and out.get(src):
            raise ForestViolation(src)
        if kind in ACYCLIC_KINDS and self.always_search(kind, dst, src):
            raise CycleIntroduced(kind.value, f"{src} -> {dst}")
        out.setdefault(src, set()).add(dst)

    def always_search(self, kind, start, goal):
        if start == goal:
            return True
        adjacency = self._out[kind]
        queue, seen = [start], {start}
        while queue:
            for nxt in adjacency.get(queue.pop(), ()):
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False


# sorted, since a set of identity-hashed members iterates in no fixed order
ORDER_KINDS = sorted(ACYCLIC_KINDS, key=lambda kind: kind.value)


def table_triples(table):
    """An edge table as sorted (kind, key, neighbour) triples, whether an
    entry is a bare id or a set of ids."""
    return sorted(
        (kind.value, key, end)
        for kind, entries in table.items()
        for key, entry in entries.items()
        for end in ((entry,) if isinstance(entry, str) else entry)
    )


def in_tables(graph):
    """The graph's in-tables by kind, as table(kind, "in") gives them."""
    return {kind: graph.table(kind, "in") for kind in EdgeKind}


def add_edge_outcomes(graph, edges):
    """Each add_edge's result, None or the class and message it raised, and
    the graph's edge tables after the last."""
    for pid in "abcdef":
        graph.add_node(panel(pid))
    outcomes = []
    for src, dst, kind in edges:
        try:
            graph.add_edge(src, dst, kind)
            outcomes.append(None)
        except (CycleIntroduced, DuplicateEdge, ForestViolation) as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes, table_triples(graph._out), table_triples(in_tables(graph))


def assert_add_edge_matches_the_oracle(edges):
    assert add_edge_outcomes(NarrativeGraph("s"), edges) == add_edge_outcomes(
        AlwaysSearchGraph("s"), edges
    )


@pytest.mark.parametrize("kind", ORDER_KINDS, ids=lambda kind: kind.value)
def test_cycle_shortcut_matches_the_oracle_on_chains(kind):
    chain = list("abcdef")
    forward = [(a, b, kind) for a, b in zip(chain, chain[1:])]
    closing = [("f", "a", kind), ("d", "b", kind), ("c", "c", kind), ("a", "f", kind)]
    for edges in (forward, forward[::-1], forward[::2] + forward[1::2]):
        assert_add_edge_matches_the_oracle(edges + closing)
    outcomes, _, _ = add_edge_outcomes(NarrativeGraph("s"), forward[::-1] + closing)
    assert outcomes[len(forward)] == (
        CycleIntroduced, f"cycle introduced in {kind.value} subgraph: f -> a"
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from("abcdef"), st.sampled_from("abcdef"), st.sampled_from(ORDER_KINDS)
        ),
        max_size=30,
    )
)
def test_cycle_shortcut_matches_the_oracle_on_random_edges(edges):
    assert_add_edge_matches_the_oracle(edges)


def test_building_and_reading_skip_searches_that_cannot_find_a_cycle(monkeypatch):
    searches = []
    reaches = NarrativeGraph._reaches
    monkeypatch.setattr(
        NarrativeGraph,
        "_reaches",
        lambda self, kind, start, goal: searches.append(kind) or reaches(self, kind, start, goal),
    )
    # the builder adds each chain in order, so no edge's dst has an out-edge yet
    graph = build_all(generate_fixture("noise", seed=3))
    assert searches == []
    # a valid file is read in whole-table passes, with no search at all
    deserialize(graph.to_json_bytes())
    assert searches == []
    read_item_by_item(graph.to_json_bytes())
    assert len(searches) < sum(1 for edge in graph.edges() if edge.kind in ACYCLIC_KINDS)


def model_add_edge(triples, src, dst, kind):
    """add_edge on a plain set of (src, dst, kind) triples: the error it
    raises, in add_edge's order of checks, or None after adding the edge."""
    if (src, dst, kind) in triples:
        return DuplicateEdge(str((src, dst, kind.value)))
    if kind is EdgeKind.SUBEVENT_OF and any(s == src and k is kind for s, _, k in triples):
        return ForestViolation(src)
    if kind in ACYCLIC_KINDS:
        reached, frontier = {dst}, [dst]
        while frontier:
            node = frontier.pop()
            for s, d, k in triples:
                if s == node and k is kind and d not in reached:
                    reached.add(d)
                    frontier.append(d)
        if src in reached:
            return CycleIntroduced(kind.value, f"{src} -> {dst}")
    triples.add((src, dst, kind))
    return None


ALL_EDGE_KINDS = sorted(EdgeKind, key=lambda kind: kind.value)
# ids that are substrings of one another, and the empty id, a falsy entry
TABLE_IDS = ("", "a", "ab", "b", "ba", "c")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(TABLE_IDS), st.sampled_from(TABLE_IDS), st.sampled_from(ALL_EDGE_KINDS)
        ),
        max_size=40,
    )
)
@example([("a", "", EdgeKind.SUBEVENT_OF), ("a", "b", EdgeKind.SUBEVENT_OF)])
@example([("a", "ab", EdgeKind.ACTS_ON), ("a", "b", EdgeKind.ACTS_ON)] * 2)
@example([("ab", "a", EdgeKind.PRECEDES), ("a", "", EdgeKind.PRECEDES), ("", "ab", EdgeKind.PRECEDES)])
def test_edge_tables_match_a_set_of_triples_model(edges):
    g, triples = NarrativeGraph("s"), set()
    for node_id in TABLE_IDS:
        g.add_node(panel(node_id))
    for src, dst, kind in edges:
        want = model_add_edge(triples, src, dst, kind)
        try:
            g.add_edge(src, dst, kind)
            got = None
        except (CycleIntroduced, DuplicateEdge, ForestViolation) as exc:
            got = exc
        assert (type(got), str(got)) == (type(want), str(want))
    for table in (g._out, in_tables(g)):
        for entries in table.values():
            for entry in entries.values():
                assert isinstance(entry, str) or (type(entry) is set and len(entry) >= 2)
    for node_id in TABLE_IDS:
        for kind in EdgeKind:
            assert g.neighbors(node_id, kind, "out") == sorted(
                d for s, d, k in triples if s == node_id and k is kind
            )
            assert g.neighbors(node_id, kind, "in") == sorted(
                s for s, d, k in triples if d == node_id and k is kind
            )
    ordered = sorted(triples, key=lambda t: (t[0], t[1], t[2].value))
    assert g.edge_count() == len(triples)
    assert g.edges() == tuple(Edge(s, d, k) for s, d, k in ordered)
    # the same edges added in another order give an equal graph and the same bytes
    other = NarrativeGraph("s")
    for node_id in reversed(TABLE_IDS):
        other.add_node(panel(node_id))
    for s, d, k in reversed(ordered):
        other.add_edge(s, d, k)
    assert g == other
    assert g.to_json_bytes() == other.to_json_bytes() == json_dumps_oracle(g)


def assert_edge_tables_hold_node_ids(g, named_attrs=()):
    """Every end in the edge tables, and every attribute under one of the
    named_attrs keys, is the node's own id string; returns how many such
    attributes there are."""
    for table in (g._out, in_tables(g)):
        for _, key, end in table_triples(table):
            assert key is g.node(key).id and end is g.node(end).id
    named = [(n.id, k, n.attrs[k]) for n in g.nodes() for k in named_attrs if k in n.attrs]
    for node_id, key, value in named:
        assert value is g.node(value).id, (node_id, key)
    return len(named)


def test_edge_tables_hold_the_node_id_strings_after_build_and_read():
    built = build_all(generate_fixture("battle"))
    # build_all takes each panel attribute from the panel node it adds
    assert assert_edge_tables_hold_node_ids(built, ("panel",))
    read = deserialize(built.to_json_bytes())
    speakers = sum("speaker" in n.attrs for n in read.nodes(NodeKind.DIALOGUE))
    assert speakers and assert_edge_tables_hold_node_ids(read, ("panel", "speaker")) == sum(
        "panel" in n.attrs for n in read.nodes()
    ) + speakers


def test_writer_peak_stays_below_three_times_its_output():
    g = build_all(generate_fixture("battle"))
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        data = g.to_json_bytes()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak < 3.0 * len(data)


RECORD_CLASSES = [
    Node,
    annotations.CharacterAnn,
    annotations.ObjectAnn,
    annotations.ActionAnn,
    annotations.DialogueAnn,
    annotations.PanelAnn,
    annotations.EventAnn,
    annotations.MacroEventAnn,
    annotations.AnnotationDoc,
    ActionHit,
]


def dataclass_twin(cls):
    """The class as dataclass would make it with its own __init__."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [
            (f.name, f.type, dataclasses.field(default=f.default, default_factory=f.default_factory))
            for f in dataclasses.fields(cls)
        ],
        frozen=True,
        slots=True,
    )


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_slot_init_matches_the_dataclass_init(cls):
    twin = dataclass_twin(cls)
    assert "__dict__" not in dir(cls)
    assert cls.__doc__ != f"{cls.__name__}()"
    assert inspect.signature(cls.__init__) == inspect.signature(twin.__init__)
    fields = dataclasses.fields(cls)
    for given in (
        {f.name: f"{f.name}-{i}" for i, f in enumerate(fields) if f.init and f.default is
         dataclasses.MISSING and f.default_factory is dataclasses.MISSING},
        {f.name: f"{f.name}-{i}" for i, f in enumerate(fields)},
    ):
        record, reference = cls(*given.values()), twin(**given)
        assert record == cls(**given)
        assert repr(record) == repr(reference)
        assert dataclasses.asdict(record) == dataclasses.asdict(reference)
        first = fields[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, first, "changed")
        changed = dataclasses.replace(record, **{first: "changed"})
        assert changed == cls(**{**given, first: "changed"}) and record == cls(**given)


def test_slot_init_gives_each_record_a_fresh_default():
    a, b = Node("a", NodeKind.PANEL), Node("b", NodeKind.PANEL)
    assert a.attrs == b.attrs == {} and a.attrs is not b.attrs
    panel = annotations.PanelAnn("0_0_0", 1, 2, captions=("hi",))
    assert panel == annotations.PanelAnn("0_0_0", 1, 2, (), (), (), (), ("hi",))
    assert panel == annotations.PanelAnn(
        captions=("hi",), storytime_order=2, reading_order=1, id="0_0_0"
    )


def test_slot_init_refuses_fields_it_cannot_set_positionally():
    @dataclasses.dataclass(frozen=True, slots=True, init=False)
    class KeywordOnly:
        name: str = dataclasses.field(kw_only=True)

    with pytest.raises(TypeError, match="positional init fields only"):
        graph_module.slot_init(KeywordOnly)
