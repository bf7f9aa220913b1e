"""Reasoning tasks over narrative graphs.

Five read-only queries: action retrieval, dialogue tracing, character
trajectories, timeline reconstruction, and event summarization. All of
them work on raw and normalized graphs alike; only action retrieval
changes behaviour with the normalization mode.
On a frozen graph they read indexes built on first use through memo(): the
actions by label, each order's panel positions and scopes, each character's
trajectory, each event's dialogue entries and each macro-event's children.
Every query is then a lookup, except the nearest-cluster fallback of a
normalized action query, which costs one product over the map's member matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .builder import entity_node_id
from .errors import (
    NotAnEventNode,
    NotNormalized,
    UnknownEntity,
    UnknownEvent,
    UnknownNode,
    UnknownScope,
)
from .graph import PANEL_ORDERS, EdgeKind, NarrativeGraph, Node, NodeKind
from .lexicon import SynonymLexicon, fold_label
from .normalize import NormalizationMap

MODES = ("raw", "normalized")
ORDER_KINDS = tuple(PANEL_ORDERS)

STORY_SCOPE = "story"


@dataclass(frozen=True)
class ActionHit:
    panel_id: str
    action_instance_id: str
    surface_label: str
    canonical_label: str

    def as_dict(self) -> dict:
        return {
            "panel_id": self.panel_id,
            "action_instance_id": self.action_instance_id,
            "surface_label": self.surface_label,
            "canonical_label": self.canonical_label,
        }


@dataclass(frozen=True)
class DialogueTrace:
    event_id: str
    # each entry: (panel_id, dialogue_id, speaker_entity_id or None, text)
    entries: tuple[tuple[str, str, str | None, str], ...] = field(default_factory=tuple)

    def as_dict(self) -> dict:
        return {
            "event_id": self.event_id,
            "entries": [
                {"panel_id": p, "dialogue_id": d, "speaker": s, "text": t}
                for p, d, s, t in self.entries
            ],
        }


@dataclass(frozen=True)
class Trajectory:
    entity_id: str
    panel_ids: tuple[str, ...]
    event_ids: tuple[str, ...]
    macro_event_ids: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "entity_id": self.entity_id,
            "panel_ids": list(self.panel_ids),
            "event_ids": list(self.event_ids),
            "macro_event_ids": list(self.macro_event_ids),
        }


@dataclass(frozen=True)
class Timeline:
    scope_id: str
    order_kind: str
    panel_ids: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "scope_id": self.scope_id,
            "order_kind": self.order_kind,
            "panel_ids": list(self.panel_ids),
        }


@dataclass(frozen=True)
class EventSummary:
    node_id: str
    children: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict:
        return {
            "node_id": self.node_id,
            "children": [{"id": cid, "label": label} for cid, label in self.children],
        }


def _positions(graph: NarrativeGraph, order_kind: str = "reading") -> dict[str, int]:
    """Panel id -> position in one order, each checked against that order's
    chain by finalize(). Built on the first query."""
    attr = PANEL_ORDERS[order_kind][0]
    return graph.memo(
        ("positions", order_kind),
        lambda: {panel.id: int(panel.attrs[attr]) for panel in graph.nodes(NodeKind.PANEL)},
    )


def _surface(node: Node) -> str:
    return node.attrs.get("surface_label", node.label())


def _actions_by(graph: NarrativeGraph, name: str, key) -> dict[str, tuple[ActionHit, ...]]:
    """The action index `name`: every action as a hit, grouped by key(hit),
    each group in (reading position, id) order. Built on the first query."""

    def build():
        position = _positions(graph)
        groups: dict[str, list[ActionHit]] = {}
        for node in sorted(
            graph.nodes(NodeKind.ACTION), key=lambda n: (position[n.attrs["panel"]], n.id)
        ):
            hit = ActionHit(node.attrs["panel"], node.id, _surface(node), node.label())
            groups.setdefault(key(hit), []).append(hit)
        return {k: tuple(hits) for k, hits in groups.items()}

    return graph.memo(("actions_by", name), build)


def _canonical_by_fold(graph: NarrativeGraph) -> dict[str, str]:
    """Folded label -> canonical, for resolving a query without a map: a fold
    of a canonical label wins over a fold of a surface label, and within each
    the first action node in id order."""

    def build():
        by_surface: dict[str, str] = {}
        by_canonical: dict[str, str] = {}
        for node in graph.nodes(NodeKind.ACTION):
            by_canonical.setdefault(fold_label(node.label()), node.label())
            by_surface.setdefault(fold_label(_surface(node)), node.label())
        return {**by_surface, **by_canonical}

    return graph.memo("canonical_by_fold", build)


def retrieve_actions(
    graph: NarrativeGraph,
    query_label: str,
    mode: str = "raw",
    *,
    norm_map: NormalizationMap | None = None,
    lexicon: SynonymLexicon | None = None,
    provider=None,
) -> list[ActionHit]:
    """All action instances matching a query label, in reading order.

    Raw mode matches the stored surface label after case and separator
    folding only. Normalized mode requires a normalized graph and matches
    on canonical labels, resolving the query with NormalizationMap.resolve
    when a map is supplied. Both read an index of the graph's actions,
    built on the first query of a frozen graph.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    folded = fold_label(query_label)
    if mode == "normalized" and not graph.normalized:
        raise NotNormalized("normalized-mode retrieval requires a normalized graph")

    if mode == "raw":
        index = _actions_by(graph, "surface_fold", lambda hit: fold_label(hit.surface_label))
        return list(index.get(folded, ()))
    if norm_map is None:
        target = _canonical_by_fold(graph).get(folded, query_label)
    else:
        target = norm_map.resolve(query_label, folded, lexicon, provider)
    index = _actions_by(graph, "canonical", lambda hit: hit.canonical_label)
    return list(index.get(target, ()))


def _dialogues(graph: NarrativeGraph) -> dict[str, tuple[tuple[str, str, str | None, str], ...]]:
    """Event id -> the dialogue entries of its panels in reading order, each
    panel's by dialogue order; events without panels are absent. Built on the
    first query from the reading-order scopes, each panel's dialogues and
    speakers resolved once."""

    def panel_entries(panel_id: str):
        grounded = map(graph.node, graph.neighbors(panel_id, EdgeKind.GROUNDED_IN, "in"))
        dialogues = [node for node in grounded if node.kind is NodeKind.DIALOGUE]
        for node in sorted(dialogues, key=lambda node: int(node.attrs["order"])):
            speaker = None
            instance = node.attrs.get("speaker")
            if instance:  # finalize() checked it refers to exactly one character
                (entity,) = graph.neighbors(instance, EdgeKind.REFERS_TO, "out")
                speaker = graph.node(entity).attrs["entity_id"]
            yield panel_id, node.id, speaker, node.attrs["text"]

    def build():
        story, scopes = _scopes(graph, "reading")
        by_panel = {panel_id: tuple(panel_entries(panel_id)) for panel_id in story}
        return {
            scope: tuple(entry for panel_id in panels for entry in by_panel[panel_id])
            for scope, panels in scopes.items()
            if graph.node(scope).kind is NodeKind.EVENT
        }

    return graph.memo("dialogues", build)


def trace_dialogue(graph: NarrativeGraph, event_id: str) -> DialogueTrace:
    """Dialogue spans grounded in an event's panels, with resolved speakers."""
    if not graph.has_node(event_id) or graph.node(event_id).kind is not NodeKind.EVENT:
        raise UnknownEvent(f"unknown event: {event_id}")
    return DialogueTrace(event_id, _dialogues(graph).get(event_id, ()))


def character_trajectory(graph: NarrativeGraph, entity_id: str) -> Trajectory:
    """Panels, events, and macro-events where a character entity appears;
    built on the entity's first query."""
    node_id = entity_node_id(entity_id)
    if not graph.has_node(node_id) or graph.node(node_id).kind is not NodeKind.CHARACTER:
        raise UnknownEntity(f"unknown entity: {entity_id}")

    def build():
        panel_ids = {
            graph.node(instance).attrs["panel"]
            for instance in graph.neighbors(node_id, EdgeKind.REFERS_TO, "in")
        }
        ordered_panels = sorted(panel_ids, key=_positions(graph).__getitem__)
        # dict.fromkeys drops repeats and keeps the first-seen order
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

    return graph.memo(("trajectory", node_id), build)


def _scopes(
    graph: NarrativeGraph, order_kind: str
) -> tuple[tuple[str, ...], dict[str, tuple[str, ...]]]:
    """The story's panels in one order, and each event's and macro-event's
    panels in that order, from one pass over the story. Built on the first
    query; the story is kept apart so that no node id can stand for it."""

    def build():
        position = _positions(graph, order_kind)
        story = sorted(position, key=position.__getitem__)
        # dict keys drop repeats: a panel under two events of one macro-event
        scopes: dict[str, dict[str, None]] = {}
        macros_of: dict[str, list[str]] = {}  # each event's parents, looked up once
        for panel_id in story:
            for event_id in graph.neighbors(panel_id, EdgeKind.INSTANTIATES, "out"):
                scopes.setdefault(event_id, {})[panel_id] = None
                if event_id not in macros_of:
                    macros_of[event_id] = [
                        macro_id
                        for macro_id in graph.neighbors(event_id, EdgeKind.SUBEVENT_OF, "out")
                        if graph.node(macro_id).kind is NodeKind.MACRO_EVENT
                    ]
                for macro_id in macros_of[event_id]:
                    scopes.setdefault(macro_id, {})[panel_id] = None
        return tuple(story), {scope: tuple(panels) for scope, panels in scopes.items()}

    return graph.memo(("scopes", order_kind), build)


def reconstruct_timeline(
    graph: NarrativeGraph, scope_id: str, order_kind: str = "reading"
) -> Timeline:
    """Panels of the story, an event or a macro-event in one panel order."""
    if order_kind not in ORDER_KINDS:
        raise ValueError(f"order_kind must be one of {ORDER_KINDS}, got {order_kind!r}")
    if scope_id == STORY_SCOPE:
        return Timeline(scope_id, order_kind, _scopes(graph, order_kind)[0])
    if not graph.has_node(scope_id):
        raise UnknownScope(f"unknown scope: {scope_id}")
    if graph.node(scope_id).kind not in (NodeKind.EVENT, NodeKind.MACRO_EVENT):
        raise UnknownScope(f"scope must be an event, macro-event, or {STORY_SCOPE!r}: {scope_id}")
    return Timeline(scope_id, order_kind, _scopes(graph, order_kind)[1].get(scope_id, ()))


def _sibling_order(graph: NarrativeGraph, children: list[str]) -> list[str]:
    """Order siblings by the precedes chain among them; ids break any ties."""
    remaining = set(children)
    ordered: list[str] = []
    while remaining:
        first = min(
            child
            for child in remaining
            if remaining.isdisjoint(graph.neighbors(child, EdgeKind.PRECEDES, "in"))
        )
        ordered.append(first)
        remaining.remove(first)
    return ordered


def _macro_children(graph: NarrativeGraph) -> dict[str, tuple[str, ...]]:
    """Macro-event id -> its direct children in narrative order. Built on the
    first query."""
    return graph.memo(
        "macro_children",
        lambda: {
            macro.id: tuple(
                _sibling_order(graph, list(graph.neighbors(macro.id, EdgeKind.SUBEVENT_OF, "in")))
            )
            for macro in graph.nodes(NodeKind.MACRO_EVENT)
        },
    )


def summarize_event(graph: NarrativeGraph, node_id: str) -> EventSummary:
    """Direct children of an event or macro-event, in narrative order."""
    if not graph.has_node(node_id):
        raise UnknownNode(node_id)
    node = graph.node(node_id)
    if node.kind is NodeKind.MACRO_EVENT:
        children = _macro_children(graph)[node_id]
    elif node.kind is NodeKind.EVENT:
        children = _scopes(graph, "reading")[1].get(node_id, ())
    else:
        raise NotAnEventNode(f"not an event node: {node_id} ({node.kind.value})")
    return EventSummary(
        node_id,
        tuple((cid, graph.node(cid).label() or cid) for cid in children),
    )
