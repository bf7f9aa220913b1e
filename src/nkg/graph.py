"""Typed multi-layer directed graph with canonical JSON serialization.

Each node kind belongs to one of three layers (panel content, temporal
sequence, event hierarchy); nodes carry string attributes and edges are
(src, dst, kind) triples, each stored once, in the adjacency tables _out and
_in; edges(), edge_count(), equality and the writer derive from them. Node
and Edge are slotted frozen dataclasses: a graph holds a Node per node, and
edges() makes an Edge per edge.
The four order-bearing edge kinds must stay acyclic, and subevent_of must
stay a forest; both are enforced on every add_edge. An edge closes a cycle
exactly when dst reaches src, and a dst with no out-edge of its kind, or a
src with no in-edge, leaves src == dst as the only way; so add_edge searches
only when both ends already have edges of the kind. finalize() checks each
panel order attribute against its chain and every attribute the reasoning
tasks read; after it the graph is immutable and safe to share. A frozen
graph keeps its read-only views (nodes and edges in order, the reasoner's
indexes) once built, each on its first read; memo() holds that rule. The
nodes of one kind filter the id-sorted nodes(), so a frozen graph sorts
its ids once.
relabeled() takes new labels by node id and swaps them in on a copy of a
frozen graph; it can change no attribute but label and surface_label, and
no kind or edge, so of what finalize() checked only the labels are checked.

The reader and the writer, like build_all and parse_annotations, run with
Python's cyclic collector paused (collector_paused): what they allocate
stays alive to the end of the call, so the passes their allocations trigger
would free nothing.

Serialization is canonical: nodes sorted by id, edges by (src, dst, kind),
keys sorted. Equal graphs produce identical bytes regardless of how they
were assembled. The writer fills a template of the graph's fixed shape; its
bytes are those of json.dumps(indent=2, sort_keys=True, ensure_ascii=False).
"""

from __future__ import annotations

import gc
import json
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring
from typing import Callable, Iterator, Mapping, TypeVar

from .errors import (
    CycleIntroduced,
    DuplicateEdge,
    DuplicateNode,
    ForestViolation,
    GraphFrozen,
    SchemaViolation,
    UnknownEndpoint,
    UnknownNode,
)
from .jsonio import dump_list, load_object, require

T = TypeVar("T")


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the block, then restore the
    caller's setting, also when the block raises. Usable as a decorator.

    The setting is process-wide: if the collector was on at entry, it is on
    at exit, even if another thread switched it off in between."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# The three kind enums hash by identity: Enum.__hash__ is a Python-level call,
# made on every kind-keyed lookup. Iteration order over a set of members then
# follows memory addresses, so no code may iterate such a set; ACYCLIC_KINDS
# and LABELED_KINDS serve membership tests only, and kind-keyed dicts keep
# insertion order.
class NodeKind(Enum):
    __hash__ = object.__hash__

    PANEL = "panel"
    CHARACTER = "character"  # story-level entity
    CHARACTER_INSTANCE = "character_instance"
    OBJECT = "object"
    ACTION = "action"
    DIALOGUE = "dialogue"
    EVENT = "event"
    MACRO_EVENT = "macro_event"


class EdgeKind(Enum):
    __hash__ = object.__hash__

    CO_OCCURS_WITH = "co_occurs_with"
    HAS_AGENT = "has_agent"
    ACTS_ON = "acts_on"
    GROUNDED_IN = "grounded_in"
    REFERS_TO = "refers_to"
    PRECEDES_READING = "precedes_reading"
    PRECEDES_STORYTIME = "precedes_storytime"
    INSTANTIATES = "instantiates"
    SUBEVENT_OF = "subevent_of"
    PRECEDES = "precedes"


class Layer(Enum):
    __hash__ = object.__hash__

    PANEL = "panel"
    TEMPORAL = "temporal"
    EVENT = "event"


# The members that the per-node and per-edge loops test against, as module
# globals: on Python 3.10 and 3.11 every NodeKind.X read runs through
# EnumType's attribute hook and costs about 15 times a global read.
_PANEL = NodeKind.PANEL
_CHARACTER = NodeKind.CHARACTER
_CHARACTER_INSTANCE = NodeKind.CHARACTER_INSTANCE
_ACTION = NodeKind.ACTION
_DIALOGUE = NodeKind.DIALOGUE
_SUBEVENT_OF = EdgeKind.SUBEVENT_OF

# value -> member, for the reader: a dict lookup costs less than an Enum call
_NODE_KINDS = {kind.value: kind for kind in NodeKind}
_EDGE_KINDS = {kind.value: kind for kind in EdgeKind}
_LAYERS = {layer.value: layer for layer in Layer}

# every node kind lives on exactly one layer; Node.layer reads it from here
KIND_LAYER = {
    NodeKind.PANEL: Layer.TEMPORAL,
    NodeKind.CHARACTER: Layer.PANEL,
    NodeKind.CHARACTER_INSTANCE: Layer.PANEL,
    NodeKind.OBJECT: Layer.PANEL,
    NodeKind.ACTION: Layer.PANEL,
    NodeKind.DIALOGUE: Layer.PANEL,
    NodeKind.EVENT: Layer.EVENT,
    NodeKind.MACRO_EVENT: Layer.EVENT,
}

# order-bearing kinds; cycles here would make reconstruction ill-defined
ACYCLIC_KINDS = frozenset(
    {
        EdgeKind.PRECEDES_READING,
        EdgeKind.PRECEDES_STORYTIME,
        EdgeKind.PRECEDES,
        EdgeKind.SUBEVENT_OF,
    }
)

# kinds whose nodes must carry a nonempty "label" attribute
LABELED_KINDS = frozenset(
    {NodeKind.ACTION, NodeKind.EVENT, NodeKind.MACRO_EVENT, NodeKind.OBJECT}
)

# each panel order: the attribute with a panel's position, the chain's edge kind
PANEL_ORDERS = {
    "reading": ("reading_order", EdgeKind.PRECEDES_READING),
    "storytime": ("storytime_order", EdgeKind.PRECEDES_STORYTIME),
}

# edges the reasoning tasks follow to read attributes at the far end:
# the node kinds at their source and target
EDGE_ENDPOINTS = {
    EdgeKind.REFERS_TO: (NodeKind.CHARACTER_INSTANCE, NodeKind.CHARACTER),
    EdgeKind.INSTANTIATES: (NodeKind.PANEL, NodeKind.EVENT),
}


@dataclass(frozen=True, slots=True)
class Node:
    id: str
    kind: NodeKind
    attrs: dict[str, str] = field(default_factory=dict)

    @property
    def layer(self) -> Layer:
        return KIND_LAYER[self.kind]

    def label(self) -> str:
        return self.attrs.get("label", "")


@dataclass(frozen=True, slots=True)
class Edge:
    src: str
    dst: str
    kind: EdgeKind

    def key(self) -> tuple[str, str, str]:
        return (self.src, self.dst, self.kind._value_)


class NarrativeGraph:
    def __init__(self, story_id: str = "", normalized: bool = False):
        self.story_id = story_id
        self.normalized = normalized
        self._nodes: dict[str, Node] = {}
        # kind -> src -> dst set, and its mirror; the graph's only record of its edges
        self._out: dict[EdgeKind, dict[str, set[str]]] = {kind: {} for kind in EdgeKind}
        self._in: dict[EdgeKind, dict[str, set[str]]] = {kind: {} for kind in EdgeKind}
        self._frozen = False
        # read-only views of a frozen graph, each built on its first read
        self._memo: dict = {}

    # --- mutation ------------------------------------------------------

    def add_node(self, node: Node) -> None:
        if self._frozen:
            raise GraphFrozen()
        if node.id in self._nodes:
            raise DuplicateNode(node.id)
        for k, v in node.attrs.items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise SchemaViolation(f"node {node.id} attrs", "attributes must be string→string")
        self._nodes[node.id] = node

    def add_edge(self, src: str, dst: str, kind: EdgeKind) -> None:
        if self._frozen:
            raise GraphFrozen()
        if src not in self._nodes or dst not in self._nodes:
            raise UnknownEndpoint(src if src not in self._nodes else dst)
        out = self._out[kind]
        if dst in out.get(src, ()):
            raise DuplicateEdge(str((src, dst, kind._value_)))
        if kind is _SUBEVENT_OF and out.get(src):
            raise ForestViolation(src)
        into = self._in[kind]
        # the edge closes a cycle iff dst reaches src; a dst with no out-edge
        # of this kind reaches only itself, and only src reaches a src with no
        # in-edge, so without both the answer is src == dst and no search runs
        if kind in ACYCLIC_KINDS and (
            src == dst or (dst in out and src in into and self._reaches(kind, dst, src))
        ):
            raise CycleIntroduced(kind.value, f"{src} -> {dst}")
        out.setdefault(src, set()).add(dst)
        into.setdefault(dst, set()).add(src)

    def _reaches(self, kind: EdgeKind, start: str, goal: str) -> bool:
        """Whether a path of one or more `kind` edges leads from start to goal."""
        adjacency = self._out[kind]
        queue, seen = deque([start]), {start}
        while queue:
            for nxt in adjacency.get(queue.popleft(), ()):
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False

    def finalize(self) -> "NarrativeGraph":
        """Validate whole-graph invariants and freeze. Idempotent."""
        nodes = self._nodes
        refers_to = self._out[EdgeKind.REFERS_TO]

        def names(node_id: str | None, kind: NodeKind) -> bool:
            node = nodes.get(node_id)
            return node is not None and node.kind is kind

        # every attribute a reasoning task reads is there and names the right kind
        panels = []
        for node in nodes.values():
            kind, attrs = node.kind, node.attrs
            problem = None
            if kind is _PANEL:
                panels.append(node)
            elif kind is _CHARACTER_INSTANCE:
                refs = refers_to.get(node.id, ())
                if len(refs) != 1:
                    problem = (
                        "character instance must have exactly one refers_to edge, "
                        f"has {len(refs)}"
                    )
            elif kind is _DIALOGUE:
                _int_attr(node, "order")
                speaker = attrs.get("speaker")
                if "text" not in attrs:
                    problem = "dialogue requires a text"
                elif speaker and not names(speaker, _CHARACTER_INSTANCE):
                    problem = f"speaker {speaker!r} names no character instance"
            elif kind is _CHARACTER:
                if not attrs.get("entity_id"):
                    problem = "character requires an entity_id"
            elif kind in LABELED_KINDS and not attrs.get("label"):
                problem = f"{kind.value} requires a label"
            if problem is None and (
                kind is _ACTION or kind is _CHARACTER_INSTANCE
            ) and not names(attrs.get("panel"), _PANEL):
                problem = f"panel {attrs.get('panel')!r} names no panel"
            if problem is not None:
                raise SchemaViolation(f"node {node.id}", problem)
        for edge_kind, (src_kind, dst_kind) in EDGE_ENDPOINTS.items():
            for src, dsts in self._out[edge_kind].items():
                for dst in dsts:
                    if nodes[src].kind is not src_kind or nodes[dst].kind is not dst_kind:
                        raise SchemaViolation(
                            f"edge {src} -> {dst}",
                            f"{edge_kind.value} must run from {src_kind.value} "
                            f"to {dst_kind.value}",
                        )
        # each order's chain edges are exactly the consecutive pairs by attribute
        for attr, edge_kind in PANEL_ORDERS.values():
            keyed = sorted((_int_attr(panel, attr), panel.id) for panel in panels)
            want = set()
            for (a, a_id), (b, b_id) in zip(keyed, keyed[1:]):
                if a == b:
                    raise SchemaViolation(f"panels {a_id} and {b_id}", f"share {attr} {a}")
                want.add((a_id, b_id))
            have = {(s, d) for s, ds in self._out[edge_kind].items() for d in ds}
            if have != want:
                src, dst = min(have ^ want)
                state = "lacks" if (src, dst) in want else "has an extra"
                raise SchemaViolation(
                    f"{edge_kind.value} chain", f"{state} edge {src} -> {dst} by {attr}"
                )
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def relabeled(self, labels: Mapping[str, str]) -> "NarrativeGraph":
        """A frozen, normalized copy of this frozen graph with the new labels
        given by node id; it shares the edge tables, since neither graph can change.

        A relabeled node keeps its id, kind and other attributes, and its old
        label as surface_label unless it has one. Only labels change, so of
        what finalize() checked, only the labels are checked again.
        """
        if not self._frozen:
            raise ValueError(f"graph {self.story_id!r} must be finalized before relabeling")
        nodes = dict(self._nodes)
        for node_id, label in labels.items():
            old = nodes.get(node_id)
            if old is None:
                raise UnknownNode(node_id)
            if not isinstance(label, str):
                raise SchemaViolation(f"node {node_id} attrs", "attributes must be string→string")
            if not label and old.kind in LABELED_KINDS:
                raise SchemaViolation(f"node {node_id}", f"{old.kind.value} requires a label")
            attrs = {**old.attrs, "label": label}
            attrs.setdefault("surface_label", old.label())
            nodes[node_id] = Node(node_id, old.kind, attrs)
        out = NarrativeGraph(self.story_id, normalized=True)
        out._nodes = nodes
        out._out, out._in = self._out, self._in
        out._frozen = True
        return out

    # --- inspection ------------------------------------------------------

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNode(node_id) from None

    def memo(self, key, build: Callable[[], T]) -> T:
        """build() once per frozen graph, kept under `key`; on a graph that
        can still change, build() on every call and nothing kept."""
        if not self._frozen:
            return build()
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def nodes(self, kind: NodeKind | None = None) -> tuple[Node, ...]:
        """Nodes of one kind, or all, in id order; a kind filters all of them."""
        if kind is not None:
            return self.memo(
                ("nodes", kind), lambda: tuple(n for n in self.nodes() if n.kind is kind)
            )
        nodes = self._nodes
        return self.memo(("nodes", None), lambda: tuple(nodes[i] for i in sorted(nodes)))

    def edges(self, kind: EdgeKind | None = None) -> tuple[Edge, ...]:
        """Edges of one kind, or all, in (src, dst, kind) order."""
        return self.memo(
            ("edges", kind),
            lambda: tuple(Edge(s, d, _EDGE_KINDS[k]) for s, d, k in self._edge_keys(kind)),
        )

    def _edge_keys(self, kind: EdgeKind | None = None) -> list[tuple[str, str, str]]:
        """(src, dst, kind value) of the edges of one kind, or all, sorted."""
        out = self._out
        kinds = out if kind is None else (kind,)
        return sorted((s, d, k._value_) for k in kinds for s, ds in out[k].items() for d in ds)

    def node_count(self) -> int:
        return len(self._nodes)

    def edge_count(self) -> int:
        return sum(len(dsts) for table in self._out.values() for dsts in table.values())

    def neighbors(self, node_id: str, kind: EdgeKind, direction: str = "out") -> list[str]:
        """Ids joined to the node by edges of one kind, ascending."""
        if node_id not in self._nodes:
            raise UnknownNode(node_id)
        if direction not in ("out", "in"):
            raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")
        table = self._out if direction == "out" else self._in
        return sorted(table[kind].get(node_id, ()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NarrativeGraph):
            return NotImplemented
        return (
            self.story_id == other.story_id
            and self.normalized == other.normalized
            and self._nodes == other._nodes
            and self._out == other._out
        )

    def __repr__(self) -> str:
        state = "frozen" if self._frozen else "building"
        return (
            f"<NarrativeGraph {self.story_id!r} nodes={len(self._nodes)} "
            f"edges={self.edge_count()} normalized={self.normalized} {state}>"
        )

    # --- serialization ---------------------------------------------------

    @collector_paused()
    def to_json_bytes(self) -> bytes:
        q = encode_basestring  # the quoting json.dumps uses under ensure_ascii=False
        nodes = [
            f'{{\n      "attrs": {_json_object(n.attrs)},\n      "id": {q(n.id)},\n'
            f'      "kind": {q(n.kind._value_)},\n'
            f'      "layer": {q(KIND_LAYER[n.kind]._value_)}\n    }}'
            for n in self.nodes()
        ]
        edges = [
            f'{{\n      "dst": {q(dst)},\n      "kind": {q(kind)},\n'
            f'      "src": {q(src)}\n    }}'
            for src, dst, kind in self._edge_keys()
        ]
        return (
            f'{{\n  "edges": {dump_list(edges, 2)},\n  "nodes": {dump_list(nodes, 2)},\n'
            f'  "normalized": {json.dumps(self.normalized)},\n  "story_id": {q(self.story_id)}\n}}\n'
        ).encode("utf-8")

    @classmethod
    @collector_paused()
    def from_json_bytes(cls, raw: bytes | str) -> "NarrativeGraph":
        obj = load_object(raw, "graph")
        graph = cls(require(obj, "story_id", str, "$"), require(obj, "normalized", bool, "$"))
        nodes, edges = require(obj, "nodes", list, "$"), require(obj, "edges", list, "$")
        # an item's JSON path is spelled out only on the way to raising
        for i, n in enumerate(nodes):
            if not isinstance(n, dict):
                raise SchemaViolation(f"$.nodes[{i}]", "node must be an object")
            try:
                kind, layer = _NODE_KINDS[n["kind"]], _LAYERS[n["layer"]]
            except (KeyError, TypeError) as exc:  # TypeError: an unhashable kind or layer
                raise SchemaViolation(f"$.nodes[{i}]", f"bad node kind/layer: {exc}") from exc
            if layer is not KIND_LAYER[kind]:
                raise SchemaViolation(
                    f"$.nodes[{i}]",
                    f"{kind.value} node must be on layer {KIND_LAYER[kind].value}, "
                    f"not {layer.value}",
                )
            attrs = n.get("attrs", {})
            if not isinstance(attrs, dict):
                raise SchemaViolation(f"$.nodes[{i}]", "attrs must be an object")
            node_id = n.get("id")
            if not isinstance(node_id, str):
                raise SchemaViolation(f"$.nodes[{i}]", "id must be a string")
            graph.add_node(Node(node_id, kind, attrs))
        for i, e in enumerate(edges):
            if not isinstance(e, dict):
                raise SchemaViolation(f"$.edges[{i}]", "edge must be an object")
            try:
                kind = _EDGE_KINDS[e["kind"]]
            except (KeyError, TypeError) as exc:
                raise SchemaViolation(f"$.edges[{i}]", f"bad edge kind: {exc}") from exc
            src, dst = e.get("src"), e.get("dst")
            if not isinstance(src, str) or not isinstance(dst, str):
                raise SchemaViolation(f"$.edges[{i}]", "src and dst must be strings")
            graph.add_edge(src, dst, kind)
        return graph.finalize()


# the writer's parts, laid out as json.dumps(indent=2, sort_keys=True) lays them out
def _json_object(attrs: dict[str, str]) -> str:
    if not attrs:
        return "{}"
    q = encode_basestring
    items = ",\n".join(f"        {q(k)}: {q(v)}" for k, v in sorted(attrs.items()))
    return "{\n" + items + "\n      }"


def _int_attr(node: Node, name: str) -> int:
    """The attribute's integer, written as str(int) writes it: not "+1", "01", "1_0"."""
    value = node.attrs.get(name)
    try:
        if str(int(value)) == value:
            return int(value)
    except (TypeError, ValueError):
        pass
    raise SchemaViolation(f"node {node.id}", f"{name} must be an integer, got {value!r}")


def serialize(graph: NarrativeGraph) -> bytes:
    return graph.to_json_bytes()


def deserialize(raw: bytes | str) -> NarrativeGraph:
    return NarrativeGraph.from_json_bytes(raw)
