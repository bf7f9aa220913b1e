"""Typed multi-layer directed graph with canonical JSON serialization.

Each node kind belongs to one of three layers (panel content, temporal
sequence, event hierarchy); nodes carry string attributes and edges are
(src, dst, kind) triples, each stored once, in the out-tables _out (kind ->
src -> dsts); edges(), edge_count(), equality and the writer read them, and
an in-table (kind -> dst -> srcs) is a view, built from the out-table on
the first read of table(kind, "in"). Node and Edge are slotted frozen
dataclasses: a graph holds a Node per node, and edges() makes an Edge per
edge. Node sets its fields through its slots (slot_init), as do the
annotation records and the reasoner's ActionHit.
An entry of a table is the neighbour's id itself while its node has one
neighbour of that kind, and a set of ids from the second on (_attach).
Most entries have one neighbour, and a one-element set costs 216 bytes
where the bare id costs nothing more, so this more than halves a built
graph's memory; a set, not a tuple, keeps appends and the duplicate check
O(1) at any degree. Every read but the duplicate checks goes through
ends(entry), as must a reader of table(). The shape follows from the degree
alone, so equal graphs have equal tables. Each end is stored as the node's
own id string, and the reader points each panel and speaker attribute that
names a node at that string too, so a read graph keeps no copy of the
file's endpoint strings or of those attributes.
The four order-bearing edge kinds must stay acyclic, and subevent_of must
stay a forest; both are enforced on every add_edge. An edge closes a cycle
exactly when dst reaches src, and a dst with no out-edge of its kind
reaches only itself, so add_edge searches only when dst has one. finalize()
checks each panel order attribute against its chain and every attribute
the reasoning tasks read; after it the graph is immutable and safe to
share. A frozen graph keeps its read-only views (nodes and edges in order,
in-tables, the reasoner's indexes) once built, each on its first read;
memo() holds that rule. The nodes of one kind filter the id-sorted
nodes(), so a frozen graph sorts its ids once. Views that read no label
live in a store of their own. relabeled() takes new labels by node id and
swaps them in on a copy of a frozen graph; it can change no attribute but
label and surface_label, and no kind or edge, so of what finalize()
checked only the labels are checked. The copy shares the out-tables and
the store of label-free views, so a view built on either graph serves both.

The reader and the writer, like build_all and parse_annotations, run with
Python's cyclic collector paused (collector_paused): what they allocate
stays alive to the end of the call, so the passes their allocations trigger
would free nothing.

Serialization is canonical: nodes sorted by id, edges by (src, dst, kind),
keys sorted. Equal graphs produce identical bytes regardless of how they
were assembled. The writer fills a template of the graph's fixed shape, one
per node kind and attribute key sequence; its bytes are those of
json.dumps(indent=2, sort_keys=True, ensure_ascii=False).
The reader checks a valid file in whole-table passes: one per field of the
nodes, one loop over the edges that resolves each edge's kind and ends and
fills the tables, a forest check and a topological pass per order-bearing
kind. At the first sign of a fault it reads the decoded items again one by
one through add_node and add_edge, so the first fault is named as it always
was, by the same class and message.
"""

from __future__ import annotations

import gc
import json
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import _HAS_DEFAULT_FACTORY, MISSING, dataclass, field, fields
from enum import Enum
from itertools import chain
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


def slot_init(cls: type[T]) -> type[T]:
    """Give a frozen slotted dataclass declared with init=False the __init__
    dataclass would have made, with its signature, defaults and default
    factories, but storing each field through the class's slot descriptor:
    a frozen dataclass's own __init__ goes through object.__setattr__, at
    about twice the cost, for records made by the ten thousand. Assignment
    still raises FrozenInstanceError, since that is __setattr__'s.

    Give the class a docstring: without one, dataclass writes one from the
    signature of an __init__ it has not got, which parses object's text
    signature at import and reads "Cls()"."""
    record_fields = fields(cls)
    if any(not f.init or f.kw_only for f in record_fields) or hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__}: slot_init takes positional init fields only")
    scope, params, body = {"_FACTORY": _HAS_DEFAULT_FACTORY}, [], []
    for f in record_fields:
        name, value = f.name, f.name
        scope[f"_set_{name}"] = getattr(cls, name).__set__
        if f.default is not MISSING:
            scope[f"_default_{name}"] = f.default
            params.append(f"{name}=_default_{name}")
        elif f.default_factory is not MISSING:
            scope[f"_factory_{name}"] = f.default_factory
            params.append(f"{name}=_FACTORY")
            value = f"_factory_{name}() if {name} is _FACTORY else {name}"
        else:
            params.append(name)
        body.append(f"  _set_{name}(self, {value})")
    # the helpers reach __init__ as closure cells, as dataclass's own do
    source = (
        f"def make({', '.join(scope)}):\n def __init__(self, {', '.join(params)}):\n"
        + "\n".join(body)
        + "\n return __init__"
    )
    namespace: dict = {}
    exec(source, {"__name__": cls.__module__}, namespace)
    init = namespace["make"](**scope)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in record_fields}, "return": None}
    cls.__init__ = init
    return cls


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


# The members that the per-node and per-edge loops test against, here and in
# builder and reasoner, which import them: as module globals, since on Python
# 3.10 and 3.11 every NodeKind.X read runs through EnumType's attribute hook
# and costs about 15 times a global read.
_PANEL = NodeKind.PANEL
_CHARACTER = NodeKind.CHARACTER
_CHARACTER_INSTANCE = NodeKind.CHARACTER_INSTANCE
_OBJECT = NodeKind.OBJECT
_ACTION = NodeKind.ACTION
_DIALOGUE = NodeKind.DIALOGUE
_EVENT = NodeKind.EVENT
_MACRO_EVENT = NodeKind.MACRO_EVENT
_REFERS_TO = EdgeKind.REFERS_TO
_CO_OCCURS_WITH = EdgeKind.CO_OCCURS_WITH
_HAS_AGENT = EdgeKind.HAS_AGENT
_ACTS_ON = EdgeKind.ACTS_ON
_GROUNDED_IN = EdgeKind.GROUNDED_IN
_SUBEVENT_OF = EdgeKind.SUBEVENT_OF
_INSTANTIATES = EdgeKind.INSTANTIATES
_PRECEDES = EdgeKind.PRECEDES

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

# ACYCLIC_KINDS in a fixed order, for the reader's passes
_ORDER_KINDS = tuple(kind for kind in EdgeKind if kind in ACYCLIC_KINDS)

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


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class Node:
    """A node: its id, its kind and its string attributes."""

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
        # kind -> src -> dst id or set; the graph's only record of its edges
        self._out: dict[EdgeKind, dict[str, str | set[str]]] = {kind: {} for kind in EdgeKind}
        self._frozen = False
        # read-only views of a frozen graph, each built on its first read;
        # those that read no label are kept apart, shared by relabeled copies
        self._memo: dict = {}
        self._shared: dict = {}

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
        nodes = self._nodes
        src_node, dst_node = nodes.get(src), nodes.get(dst)
        if src_node is None or dst_node is None:
            raise UnknownEndpoint(src if src_node is None else dst)
        src, dst = src_node.id, dst_node.id
        out = self._out[kind]
        dsts = out.get(src)
        if dsts is not None and (dst in dsts if dsts.__class__ is set else dst == dsts):
            raise DuplicateEdge(str((src, dst, kind._value_)))
        if kind is _SUBEVENT_OF and dsts is not None:
            raise ForestViolation(src)
        # the edge closes a cycle iff dst reaches src; a dst with no out-edge
        # of this kind reaches only itself, and then no search runs
        if kind in ACYCLIC_KINDS and (src == dst or (dst in out and self._reaches(kind, dst, src))):
            raise CycleIntroduced(kind.value, f"{src} -> {dst}")
        _attach(out, src, dst)

    def _reaches(self, kind: EdgeKind, start: str, goal: str) -> bool:
        """Whether a path of one or more `kind` edges leads from start to goal."""
        adjacency = self._out[kind]
        queue, seen = deque([start]), {start}
        while queue:
            for nxt in ends(adjacency.get(queue.popleft())):
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
                refs = ends(refers_to.get(node.id))
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
                for dst in ends(dsts):
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
            have = {(s, d) for s, ds in self._out[edge_kind].items() for d in ends(ds)}
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
        given by node id; it shares the edge tables and the label-free views,
        since neither graph can change.

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
        out._out, out._shared = self._out, self._shared
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

    def memo(self, key, build: Callable[[], T], shared: bool = False) -> T:
        """build() once per frozen graph, kept under `key`; on a graph that
        can still change, build() on every call and nothing kept. A view
        that reads no label or surface_label may be `shared`: it is then kept
        once for this graph and every relabeled() copy of it."""
        if not self._frozen:
            return build()
        store = self._shared if shared else self._memo
        try:
            return store[key]
        except KeyError:
            value = store[key] = build()
            return value

    def table(self, kind: EdgeKind, direction: str = "out") -> Mapping[str, str | set[str]]:
        """The edge table of one kind, which no caller may change: node id ->
        the entry of its neighbours by `direction`, read with ends(). A node
        with none has no entry, and a set's order follows string hashes. An
        in-table is built from the out-table on its first read and shared
        with relabeled() copies; a graph not yet frozen builds it per read."""
        if direction == "out":
            return self._out[kind]
        if direction == "in":
            return self.memo(("in", kind), lambda: _inverse(self._out[kind]), shared=True)
        raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")

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
        return sorted(
            (s, d, k._value_) for k in kinds for s, ds in out[k].items() for d in ends(ds)
        )

    def node_count(self) -> int:
        return len(self._nodes)

    def edge_count(self) -> int:
        return sum(len(ends(dsts)) for table in self._out.values() for dsts in table.values())

    def neighbors(self, node_id: str, kind: EdgeKind, direction: str = "out") -> list[str]:
        """Ids joined to the node by edges of one kind, ascending."""
        if node_id not in self._nodes:
            raise UnknownNode(node_id)
        return sorted(ends(self.table(kind, direction).get(node_id)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NarrativeGraph):
            return NotImplemented
        return (
            self.story_id == other.story_id
            and self.normalized == other.normalized
            and self._nodes == other._nodes
            and self._out == other._out  # an entry's shape follows from its degree
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
        """The canonical bytes. Each section is joined as soon as its items are
        laid out, and both sections are dropped before encoding, so the items
        are never alive with the document or its bytes. Nodes of one kind
        with one attribute key sequence share a layout (_node_layout), made
        on the first of them in each call."""
        q = encode_basestring  # the quoting json.dumps uses under ensure_ascii=False
        layouts: dict[tuple, tuple[str, list[str]]] = {}
        items = []
        for n in self.nodes():
            attrs = n.attrs
            shape = (n.kind, *attrs)
            layout = layouts.get(shape)
            if layout is None:
                layout = layouts[shape] = _node_layout(n.kind, attrs)
            template, keys = layout
            items.append(template % (*[q(attrs[k]) for k in keys], q(n.id)))
        nodes = dump_list(items, 2)
        del items
        edges = dump_list(
            [
                f'{{\n      "dst": {q(dst)},\n      "kind": {q(kind)},\n'
                f'      "src": {q(src)}\n    }}'
                for src, dst, kind in self._edge_keys()
            ],
            2,
        )
        doc = (
            f'{{\n  "edges": {edges},\n  "nodes": {nodes},\n'
            f'  "normalized": {json.dumps(self.normalized)},\n  "story_id": {q(self.story_id)}\n}}\n'
        )
        del nodes, edges
        return doc.encode("utf-8")

    @classmethod
    @collector_paused()
    def from_json_bytes(cls, raw: bytes | str) -> "NarrativeGraph":
        """The finalized graph a file holds. A valid file is read in
        whole-table passes (_fill_tables); at the first sign of a fault the
        decoded items are read again one by one (_add_items), so that the
        first fault raises what it always has."""
        obj = load_object(raw, "graph")
        story_id = require(obj, "story_id", str, "$")
        normalized = require(obj, "normalized", bool, "$")
        nodes, edges = require(obj, "nodes", list, "$"), require(obj, "edges", list, "$")
        graph = cls(story_id, normalized)
        if not graph._fill_tables(nodes, edges):
            graph = cls(story_id, normalized)
            graph._add_items(nodes, edges)
        return graph.finalize()

    def _fill_tables(self, nodes: list, edges: list) -> bool:
        """Fill this empty graph with a file's decoded nodes and edges, and
        whether they hold no fault that _add_items would raise; after False
        the graph is part-filled and of no use.

        Each node pass reads one field of every node: the ids, kinds, layers
        and attributes, checked as add_node and _add_items check them. A
        `panel` attribute that names a node, and the `speaker` beside it, are
        pointed at the node's own id string, as build_all's panels are. One
        loop over the edges looks up each edge's kind and both ends, as
        nodes, and fills the out-tables through _attach, each end the node's
        own id string; an unknown kind or end, an edge that is no object and
        a duplicate all stop it. Last come one check that subevent_of is a
        forest and, per order-bearing kind, one topological pass in place of
        a search per edge."""
        try:
            # AttributeError: an item that is no object; KeyError: a missing
            # field, or a kind, layer or end that names nothing; TypeError: an
            # unhashable one, or an edge that is no object
            ids = [n.get("id") for n in nodes]
            kinds = [_NODE_KINDS[n["kind"]] for n in nodes]
            layers = [_LAYERS[n["layer"]] for n in nodes]
            attrs = [n.get("attrs", {}) for n in nodes]
            if not (
                list(map(KIND_LAYER.__getitem__, kinds)) == layers
                and _all_of(str, ids)
                and _all_of(dict, attrs)
                and _all_of(str, chain.from_iterable(map(dict.values, attrs)))
            ):
                return False
            table = self._nodes
            table.update(zip(ids, map(Node, ids, kinds, attrs)))
            if len(table) != len(ids):  # a duplicate id
                return False
            for placed in attrs:
                if "panel" in placed:
                    named = table.get(placed["panel"])
                    if named is not None:
                        placed["panel"] = named.id
                    if "speaker" in placed:
                        named = table.get(placed["speaker"])
                        if named is not None:
                            placed["speaker"] = named.id
            out_tables, edge_kinds = self._out, _EDGE_KINDS
            for e in edges:
                out = out_tables[edge_kinds[e["kind"]]]
                if not _attach(out, table[e["src"]].id, table[e["dst"]].id):  # a duplicate edge
                    return False
        except (AttributeError, KeyError, TypeError):
            return False
        if any(entry.__class__ is set for entry in out_tables[_SUBEVENT_OF].values()):
            return False
        return all(_acyclic(out_tables[kind]) for kind in _ORDER_KINDS)

    def _add_items(self, nodes: list, edges: list) -> None:
        """Add a file's decoded nodes, then its edges, one by one through
        add_node and add_edge, raising at the first fault. The reader's
        error path, and the reference its whole-table passes must match."""
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
            self.add_node(Node(node_id, kind, attrs))
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
            self.add_edge(src, dst, kind)


def ends(entry: str | set[str] | None) -> tuple[str, ...] | set[str]:
    """The neighbour ids of an edge-table entry, or of a missing one (None)."""
    if entry is None:
        return ()
    return entry if entry.__class__ is set else (entry,)


def _attach(table: dict[str, str | set[str]], key: str, end: str) -> bool:
    """Add `end` to `key`'s entry, a bare id then a set; False if it holds `end`."""
    entry = table.get(key)
    if entry is None:
        table[key] = end
    elif entry.__class__ is set:
        if end in entry:
            return False
        entry.add(end)
    elif entry == end:
        return False
    else:
        table[key] = {entry, end}
    return True


def _inverse(out: dict[str, str | set[str]]) -> dict[str, str | set[str]]:
    """The in-table of one kind: dst -> its sources, from the out-table."""
    into: dict[str, str | set[str]] = {}
    for src, entry in out.items():
        for dst in ends(entry):
            _attach(into, dst, src)
    return into


def _all_of(cls: type, values) -> bool:
    """Whether every value is exactly a `cls`, as every value JSON decodes
    to a str or a dict is."""
    return set(map(type, values)) <= {cls}


def _acyclic(out: dict[str, str | set[str]]) -> bool:
    """Whether the edges of one kind's out-table close no cycle: Kahn's
    algorithm, which takes every node off exactly when none lies on one."""
    waiting = Counter(chain.from_iterable(map(ends, out.values())))  # node -> in-degree
    ready = [node for node in out if node not in waiting]
    while ready:
        for nxt in ends(out.get(ready.pop())):
            left = waiting[nxt] - 1
            if left:
                waiting[nxt] = left
            else:
                del waiting[nxt]
                ready.append(nxt)
    return not waiting


def _node_layout(kind: NodeKind, keys) -> tuple[str, list[str]]:
    """The writer's %-template for a node of this kind with these attribute
    keys, laid out as json.dumps(indent=2, sort_keys=True) lays it out, and
    the keys in the order its slots take their quoted values; the quoted id
    fills the last slot."""
    q = encode_basestring
    keys = sorted(keys)
    attrs = "{}"
    if keys:
        lines = ",\n".join(f"        {q(k).replace('%', '%%')}: %s" for k in keys)
        attrs = "{\n" + lines + "\n      }"
    template = (
        f'{{\n      "attrs": {attrs},\n      "id": %s,\n'
        f'      "kind": {q(kind._value_)},\n      "layer": {q(KIND_LAYER[kind]._value_)}\n    }}'
    )
    return template, keys


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
