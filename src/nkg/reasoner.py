"""Reasoning tasks over narrative graphs.

Five read-only queries: action retrieval, dialogue tracing, character
trajectories, timeline reconstruction, and event summarization. All of
them work on raw and normalized graphs alike; only action retrieval
changes behaviour with the normalization mode.
On a frozen graph they read indexes built on first use through memo().
Those that read no label are built in one pass over the edge tables
(graph.table) and shared with relabeled copies: each order's scopes, the
actions in reading order, each event's dialogue entries, every character's
trajectory, and each event's and macro-event's children. A normalized graph
builds only what reads its labels: the actions by canonical label, regrouped
from the shared order, and each child's label in a summary.
Every query is then a lookup, except the nearest-cluster fallback of a
normalized action query, which costs one product of the query with the unit
rows of the map's label index, stored dimension by members, and one scan of
the products. Its lexical key reads the lexicon's lemma memo, which lives
per lexicon instance and grows with the distinct tokens that lexicon has seen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from .annotations import entity_node_id
from .errors import (
    NotAnEventNode,
    NotNormalized,
    UnknownEntity,
    UnknownEvent,
    UnknownNode,
    UnknownScope,
)
from .graph import (
    PANEL_ORDERS, NarrativeGraph, ends, slot_init,
    _ACTION, _CHARACTER, _DIALOGUE, _EVENT, _GROUNDED_IN, _INSTANTIATES, _MACRO_EVENT, _PANEL,
    _PRECEDES, _REFERS_TO, _SUBEVENT_OF,
)
from .lexicon import SynonymLexicon, fold_label
from .normalize import NormalizationMap

MODES = ("raw", "normalized")
ORDER_KINDS = tuple(PANEL_ORDERS)

STORY_SCOPE = "story"

_ENTITY_PREFIX = entity_node_id("")


def _fields_as_dict(record) -> dict:
    """A record's fields by name in declaration order, each tuple as a list."""
    values = {name: getattr(record, name) for name in record.__slots__}
    return {name: list(v) if v.__class__ is tuple else v for name, v in values.items()}


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class ActionHit:
    """An action instance that an action query retrieved."""

    panel_id: str
    action_instance_id: str
    surface_label: str
    canonical_label: str

    as_dict = _fields_as_dict


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class DialogueTrace:
    """The dialogue entries of an event's panels that a dialogue query traced."""

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


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class Trajectory:
    """The panels, events and macro-events where a character appears."""

    entity_id: str
    panel_ids: tuple[str, ...]
    event_ids: tuple[str, ...]
    macro_event_ids: tuple[str, ...]

    as_dict = _fields_as_dict


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class Timeline:
    """The panels of a scope in one panel order."""

    scope_id: str
    order_kind: str
    panel_ids: tuple[str, ...]

    as_dict = _fields_as_dict


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class EventSummary:
    """The direct children of an event or macro-event, each with its label."""

    node_id: str
    children: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict:
        return {
            "node_id": self.node_id,
            "children": [{"id": cid, "label": label} for cid, label in self.children],
        }


def _action_order(graph: NarrativeGraph) -> tuple[tuple[str, str], ...]:
    """(panel id, action id) of every action in reading order, a panel's
    actions by id. Reads no label, so it serves relabeled copies too."""

    def build():
        in_panel: dict[str, list[str]] = {}
        for node in graph.nodes(_ACTION):  # in id order
            in_panel.setdefault(node.attrs["panel"], []).append(node.id)
        story = _scopes(graph, "reading")[0]
        return tuple((panel_id, a) for panel_id in story for a in in_panel.get(panel_id, ()))

    return graph.memo("action_order", build, shared=True)


def _actions_by(graph: NarrativeGraph, name: str) -> dict[str, tuple[ActionHit, ...]]:
    """The action index `name`: every action as a hit, grouped by its
    canonical label or by the fold of its surface label, each group in the
    shared reading order. Built on the first query."""

    def build():
        node = graph.node
        folds: dict[str, str] = {}  # each distinct surface label folded once
        groups: dict[str, list[ActionHit]] = {}
        for panel_id, action_id in _action_order(graph):
            attrs = node(action_id).attrs
            label = attrs.get("label", "")
            surface = attrs.get("surface_label", label)
            if name == "canonical":
                key = label
            else:
                key = folds.get(surface)
                if key is None:
                    key = folds[surface] = fold_label(surface)
            groups.setdefault(key, []).append(ActionHit(panel_id, action_id, surface, label))
        return {key: tuple(hits) for key, hits in groups.items()}

    return graph.memo(("actions_by", name), build)


def _canonical_by_fold(graph: NarrativeGraph) -> dict[str, str]:
    """Folded label -> canonical, for resolving a query without a map: a fold
    of a canonical label wins over a fold of a surface label, and within each
    the first action node in id order."""

    def build():
        by_surface: dict[str, str] = {}
        by_canonical: dict[str, str] = {}
        for node in graph.nodes(_ACTION):
            label = node.label()
            by_canonical.setdefault(fold_label(label), label)
            by_surface.setdefault(fold_label(node.attrs.get("surface_label", label)), label)
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
        return list(_actions_by(graph, "surface_fold").get(folded, ()))
    if norm_map is None:
        target = _canonical_by_fold(graph).get(folded, query_label)
    else:
        target = norm_map.resolve(query_label, folded, lexicon, provider)
    return list(_actions_by(graph, "canonical").get(target, ()))


def _dialogues(graph: NarrativeGraph) -> dict[str, tuple[tuple[str, str, str | None, str], ...]]:
    """Event id -> the dialogue entries of its panels in reading order, each
    panel's by dialogue order, then id; events without panels are absent.
    Built on the first query from the reading-order scopes and the
    grounded_in table, each speaker resolved once per character instance."""

    def build():
        story, scopes = _scopes(graph, "reading")
        node = graph.node
        grounded, refers_to = graph.table(_GROUNDED_IN, "in"), graph.table(_REFERS_TO)
        speakers: dict[str, str] = {}  # character instance -> entity id
        by_panel = {}
        for panel_id in story:
            dialogues = [n for n in map(node, ends(grounded.get(panel_id))) if n.kind is _DIALOGUE]
            dialogues.sort(key=lambda n: (int(n.attrs["order"]), n.id))
            entries = []
            for dialogue in dialogues:
                attrs = dialogue.attrs
                speaker = None
                instance = attrs.get("speaker")
                if instance:
                    speaker = speakers.get(instance)
                    if speaker is None:
                        # finalize() checked it refers to exactly one character
                        entity = node(refers_to[instance]).attrs["entity_id"]
                        speaker = speakers[instance] = entity
                entries.append((panel_id, dialogue.id, speaker, attrs["text"]))
            by_panel[panel_id] = entries
        return {
            scope: tuple(entry for panel_id in panels for entry in by_panel[panel_id])
            for scope, panels in scopes.items()
            if node(scope).kind is _EVENT
        }

    return graph.memo("dialogues", build, shared=True)


def trace_dialogue(graph: NarrativeGraph, event_id: str) -> DialogueTrace:
    """Dialogue spans grounded in an event's panels, with resolved speakers."""
    if not graph.has_node(event_id) or graph.node(event_id).kind is not _EVENT:
        raise UnknownEvent(f"unknown event: {event_id}")
    return DialogueTrace(event_id, _dialogues(graph).get(event_id, ()))


def _trajectories(graph: NarrativeGraph) -> dict[str, Trajectory]:
    """Character node id -> the trajectory of each character with an
    instance, from one pass over the story's panels in reading order. Built
    on the first trajectory query."""

    def build():
        node = graph.node
        present: dict[str, dict[str, None]] = {}  # panel -> its characters, each once
        for instance, entity in graph.table(_REFERS_TO).items():
            present.setdefault(node(instance).attrs["panel"], {})[entity] = None
        events_of, parent_of = graph.table(_INSTANTIATES), graph.table(_SUBEVENT_OF)
        seen: dict[str, tuple[list[str], dict[str, None]]] = {}
        for panel_id in _scopes(graph, "reading")[0]:
            here = present.get(panel_id)
            if here is None:
                continue
            events = sorted(ends(events_of.get(panel_id)))
            for entity in here:
                panels, event_ids = seen.setdefault(entity, ([], {}))
                panels.append(panel_id)
                for event_id in events:  # a dict keeps the first-seen order
                    event_ids[event_id] = None
        return {
            entity: Trajectory(
                entity[len(_ENTITY_PREFIX):],
                tuple(panels),
                tuple(event_ids),
                # subevent_of is a forest: an event's entry is its one parent
                tuple(dict.fromkeys(parent_of[e] for e in event_ids if e in parent_of)),
            )
            for entity, (panels, event_ids) in seen.items()
        }

    return graph.memo("trajectories", build, shared=True)


def character_trajectory(graph: NarrativeGraph, entity_id: str) -> Trajectory:
    """Panels, events, and macro-events where a character entity appears."""
    node_id = entity_node_id(entity_id)
    if not graph.has_node(node_id) or graph.node(node_id).kind is not _CHARACTER:
        raise UnknownEntity(f"unknown entity: {entity_id}")
    trajectory = _trajectories(graph).get(node_id)
    return Trajectory(entity_id, (), (), ()) if trajectory is None else trajectory


def _scopes(
    graph: NarrativeGraph, order_kind: str
) -> tuple[tuple[str, ...], dict[str, tuple[str, ...]]]:
    """The story's panels in one order, and each event's and macro-event's
    panels in that order, from one pass over the story. Built on the first
    query; the story is kept apart so that no node id can stand for it."""

    def build():
        attr = PANEL_ORDERS[order_kind][0]
        # finalize() checked that no two panels share a position
        story = [p for _, p in sorted((int(p.attrs[attr]), p.id) for p in graph.nodes(_PANEL))]
        node = graph.node
        events_of, parent_of = graph.table(_INSTANTIATES), graph.table(_SUBEVENT_OF)
        # dict keys drop repeats: a panel under two events of one macro-event
        scopes: dict[str, dict[str, None]] = {}
        macro_of: dict[str, str | None] = {}  # each event's parent, looked up once
        for panel_id in story:
            for event_id in ends(events_of.get(panel_id)):
                scopes.setdefault(event_id, {})[panel_id] = None
                if event_id not in macro_of:
                    parent = parent_of.get(event_id)  # one at most: a forest
                    is_macro = parent is not None and node(parent).kind is _MACRO_EVENT
                    macro_of[event_id] = parent if is_macro else None
                macro_id = macro_of[event_id]
                if macro_id is not None:
                    scopes.setdefault(macro_id, {})[panel_id] = None
        return tuple(story), {scope: tuple(panels) for scope, panels in scopes.items()}

    return graph.memo(("scopes", order_kind), build, shared=True)


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
    kind = graph.node(scope_id).kind
    if kind is not _EVENT and kind is not _MACRO_EVENT:
        raise UnknownScope(f"scope must be an event, macro-event, or {STORY_SCOPE!r}: {scope_id}")
    return Timeline(scope_id, order_kind, _scopes(graph, order_kind)[1].get(scope_id, ()))


def _precedes_order(graph: NarrativeGraph, children) -> tuple[str, ...]:
    """Siblings in the order of the precedes chain among them, ids breaking
    ties: one topological pass (Kahn's) that always takes the least ready id."""
    siblings = set(children)
    before, after = graph.table(_PRECEDES, "in"), graph.table(_PRECEDES)
    waiting = {}  # sibling -> its siblings not yet placed before it
    for child in siblings:
        count = len(siblings.intersection(ends(before.get(child))))
        if count:
            waiting[child] = count
    ready = [child for child in siblings if child not in waiting]
    heapify(ready)
    ordered = []
    while ready:
        child = heappop(ready)
        ordered.append(child)
        for nxt in ends(after.get(child)):
            if nxt in waiting:
                waiting[nxt] -= 1
                if not waiting[nxt]:
                    del waiting[nxt]
                    heappush(ready, nxt)
    return tuple(ordered)


def _children(graph: NarrativeGraph) -> dict[str, tuple[str, ...]]:
    """Event and macro-event id -> its direct children in narrative order: an
    event's panels in reading order, a macro-event's children in precedes
    order. Reads no label, so it serves relabeled copies too."""

    def build():
        panels = _scopes(graph, "reading")[1]
        children = {event.id: panels.get(event.id, ()) for event in graph.nodes(_EVENT)}
        members = graph.table(_SUBEVENT_OF, "in")
        for macro in graph.nodes(_MACRO_EVENT):
            children[macro.id] = _precedes_order(graph, ends(members.get(macro.id)))
        return children

    return graph.memo("children", build, shared=True)


def _summaries(graph: NarrativeGraph) -> dict[str, tuple[tuple[str, str], ...]]:
    """Event and macro-event id -> its direct children in narrative order, each
    as (child id, its label or else its id). Built on the first query."""

    def build():
        node = graph.node
        return {
            node_id: tuple((cid, node(cid).label() or cid) for cid in ids)
            for node_id, ids in _children(graph).items()
        }

    return graph.memo("summaries", build)


def summarize_event(graph: NarrativeGraph, node_id: str) -> EventSummary:
    """Direct children of an event or macro-event, in narrative order."""
    if not graph.has_node(node_id):
        raise UnknownNode(node_id)
    children = _summaries(graph).get(node_id)
    if children is None:
        kind = graph.node(node_id).kind
        raise NotAnEventNode(f"not an event node: {node_id} ({kind.value})")
    return EventSummary(node_id, children)
