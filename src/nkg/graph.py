"""Typed multi-layer directed graph with canonical JSON serialization.

Each node kind belongs to one of three layers (panel content, temporal
sequence, event hierarchy); nodes carry string attributes and edges are
(src, dst, kind) triples.
The four order-bearing edge kinds must stay acyclic, and subevent_of must
stay a forest; both are enforced on every add_edge. After finalize() the
graph is immutable and safe to share.

Serialization is canonical: nodes sorted by id, edges by (src, dst, kind),
keys sorted. Equal graphs produce identical bytes regardless of how they
were assembled.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from .errors import (
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


class NodeKind(Enum):
    PANEL = "panel"
    CHARACTER = "character"  # story-level entity
    CHARACTER_INSTANCE = "character_instance"
    OBJECT = "object"
    ACTION = "action"
    DIALOGUE = "dialogue"
    EVENT = "event"
    MACRO_EVENT = "macro_event"


class EdgeKind(Enum):
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
    PANEL = "panel"
    TEMPORAL = "temporal"
    EVENT = "event"


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


@dataclass(frozen=True)
class Node:
    id: str
    kind: NodeKind
    attrs: dict[str, str] = field(default_factory=dict)

    @property
    def layer(self) -> Layer:
        return KIND_LAYER[self.kind]

    def label(self) -> str:
        return self.attrs.get("label", "")


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    kind: EdgeKind

    def key(self) -> tuple[str, str, str]:
        return (self.src, self.dst, self.kind.value)


class NarrativeGraph:
    def __init__(self, story_id: str = "", normalized: bool = False):
        self.story_id = story_id
        self.normalized = normalized
        self._nodes: dict[str, Node] = {}
        self._edges: dict[tuple[str, str, str], Edge] = {}
        # kind -> src -> dst set, for O(1) duplicate probes and cycle walks
        self._out: dict[EdgeKind, dict[str, set[str]]] = {}
        self._in: dict[EdgeKind, dict[str, set[str]]] = {}
        self._frozen = False

    # --- mutation ------------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise GraphFrozen()

    def add_node(self, node: Node) -> None:
        self._check_mutable()
        if node.id in self._nodes:
            raise DuplicateNode(node.id)
        for k, v in node.attrs.items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise SchemaViolation(f"node {node.id} attrs", "attributes must be string→string")
        self._nodes[node.id] = node

    def add_edge(self, edge: Edge) -> None:
        self._check_mutable()
        if edge.src not in self._nodes or edge.dst not in self._nodes:
            missing = edge.src if edge.src not in self._nodes else edge.dst
            raise UnknownEndpoint(missing)
        if edge.key() in self._edges:
            raise DuplicateEdge(str(edge.key()))
        if edge.kind is EdgeKind.SUBEVENT_OF and self._out.get(edge.kind, {}).get(edge.src):
            raise ForestViolation(edge.src)
        if edge.kind in ACYCLIC_KINDS and self._reaches(edge.kind, edge.dst, edge.src):
            raise CycleIntroduced(edge.kind.value, f"{edge.src} -> {edge.dst}")
        self._edges[edge.key()] = edge
        self._out.setdefault(edge.kind, {}).setdefault(edge.src, set()).add(edge.dst)
        self._in.setdefault(edge.kind, {}).setdefault(edge.dst, set()).add(edge.src)

    def _reaches(self, kind: EdgeKind, start: str, goal: str) -> bool:
        if start == goal:
            return True
        adjacency = self._out.get(kind, {})
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
        for node in self._nodes.values():
            if node.kind in LABELED_KINDS and not node.attrs.get("label"):
                raise SchemaViolation(f"node {node.id}", f"{node.kind.value} requires a label")
            if node.kind is NodeKind.CHARACTER_INSTANCE:
                refs = self._out.get(EdgeKind.REFERS_TO, {}).get(node.id, set())
                if len(refs) != 1:
                    raise SchemaViolation(
                        f"node {node.id}",
                        f"character instance must have exactly one refers_to edge, has {len(refs)}",
                    )
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # --- inspection ------------------------------------------------------

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNode(node_id) from None

    def nodes(self, kind: NodeKind | None = None) -> Iterator[Node]:
        for node_id in sorted(self._nodes):
            node = self._nodes[node_id]
            if kind is None or node.kind is kind:
                yield node

    def edges(self, kind: EdgeKind | None = None) -> Iterator[Edge]:
        for key in sorted(self._edges):
            edge = self._edges[key]
            if kind is None or edge.kind is kind:
                yield edge

    def node_count(self) -> int:
        return len(self._nodes)

    def edge_count(self) -> int:
        return len(self._edges)

    def neighbors(
        self, node_id: str, kind: EdgeKind | None = None, direction: str = "out"
    ) -> list[str]:
        """Adjacent node ids under the filter, ascending."""
        if node_id not in self._nodes:
            raise UnknownNode(node_id)
        if direction not in ("out", "in"):
            raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")
        table = self._out if direction == "out" else self._in
        kinds = [kind] if kind is not None else list(table)
        found: set[str] = set()
        for k in kinds:
            found.update(table.get(k, {}).get(node_id, ()))
        return sorted(found)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NarrativeGraph):
            return NotImplemented
        return (
            self.story_id == other.story_id
            and self.normalized == other.normalized
            and self._nodes == other._nodes
            and self._edges == other._edges
        )

    def __repr__(self) -> str:
        state = "frozen" if self._frozen else "building"
        return (
            f"<NarrativeGraph {self.story_id!r} nodes={len(self._nodes)} "
            f"edges={len(self._edges)} normalized={self.normalized} {state}>"
        )

    # --- serialization ---------------------------------------------------

    def to_json_bytes(self) -> bytes:
        obj = {
            "story_id": self.story_id,
            "normalized": self.normalized,
            "nodes": [
                {
                    "id": n.id,
                    "kind": n.kind.value,
                    "layer": n.layer.value,
                    "attrs": dict(sorted(n.attrs.items())),
                }
                for n in self.nodes()
            ],
            "edges": [
                {"src": e.src, "dst": e.dst, "kind": e.kind.value} for e in self.edges()
            ],
        }
        return (json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n").encode(
            "utf-8"
        )

    @classmethod
    def from_json_bytes(cls, raw: bytes | str) -> "NarrativeGraph":
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedJson(f"graph file is not valid UTF-8: {exc}") from exc
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise MalformedJson(f"invalid graph JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise SchemaViolation("$", "graph document must be an object")
        for key, kind in (("story_id", str), ("normalized", bool), ("nodes", list), ("edges", list)):
            if key not in obj:
                raise SchemaViolation(f"$.{key}", "missing required field")
            if not isinstance(obj[key], kind):
                raise SchemaViolation(f"$.{key}", f"expected {kind.__name__}")
        graph = cls(obj["story_id"], obj["normalized"])
        for i, n in enumerate(obj["nodes"]):
            path = f"$.nodes[{i}]"
            if not isinstance(n, dict):
                raise SchemaViolation(path, "node must be an object")
            try:
                kind = NodeKind(n["kind"])
                layer = Layer(n["layer"])
            except (KeyError, ValueError) as exc:
                raise SchemaViolation(path, f"bad node kind/layer: {exc}") from exc
            if layer is not KIND_LAYER[kind]:
                raise SchemaViolation(
                    path,
                    f"{kind.value} node must be on layer {KIND_LAYER[kind].value}, "
                    f"not {layer.value}",
                )
            attrs = n.get("attrs", {})
            if not isinstance(attrs, dict):
                raise SchemaViolation(path, "attrs must be an object")
            if not isinstance(n.get("id"), str):
                raise SchemaViolation(path, "id must be a string")
            graph.add_node(Node(n["id"], kind, dict(attrs)))
        for i, e in enumerate(obj["edges"]):
            path = f"$.edges[{i}]"
            if not isinstance(e, dict):
                raise SchemaViolation(path, "edge must be an object")
            try:
                kind = EdgeKind(e["kind"])
            except (KeyError, ValueError) as exc:
                raise SchemaViolation(path, f"bad edge kind: {exc}") from exc
            if not isinstance(e.get("src"), str) or not isinstance(e.get("dst"), str):
                raise SchemaViolation(path, "src and dst must be strings")
            graph.add_edge(Edge(e["src"], e["dst"], kind))
        return graph.finalize()


def serialize(graph: NarrativeGraph) -> bytes:
    return graph.to_json_bytes()


def deserialize(raw: bytes | str) -> NarrativeGraph:
    return NarrativeGraph.from_json_bytes(raw)
