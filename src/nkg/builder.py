"""Deterministic construction of a story graph from an annotation doc.

build_all makes one pass over the document into one NarrativeGraph, in
this order:

- panel content: one Panel node per panel plus CharacterInstance / Object /
  Action / Dialogue nodes, with co-occurrence, agent, target, text-image,
  and identity edges.
- temporal chains: covering chains over the Panel nodes, one per order kind
  (reading and storytime). Chains, not closures: each panel has at most one
  successor per kind.
- event hierarchy: Event and MacroEvent nodes, subevent_of links up the
  hierarchy, precedes chains over sibling events and over macro-events, and
  the panel->event instantiates edges.

Every tier goes into the same graph, so an id shared across tiers (say, an
event named like a panel or an action) raises DuplicateNode from add_node.
Panel content goes in first, so its edges can reach only panel-tier nodes.
The graph is finalized once, at the end.

Entity nodes get an "entity:" id prefix so story-level ids can never
collide with annotation instance ids.
"""

from __future__ import annotations

import itertools
import json

from .annotations import AnnotationDoc, PanelAnn
from .graph import Edge, EdgeKind, NarrativeGraph, Node, NodeKind


def entity_node_id(entity_id: str) -> str:
    return f"entity:{entity_id}"


def _add_panel_content(g: NarrativeGraph, panel: PanelAnn, entities_seen: set[str]) -> None:
    attrs = {
        "reading_order": str(panel.reading_order),
        "storytime_order": str(panel.storytime_order),
    }
    if panel.captions:
        attrs["captions"] = json.dumps(list(panel.captions), ensure_ascii=False)
    g.add_node(Node(panel.id, NodeKind.PANEL, attrs))
    for char in panel.characters:
        if char.entity_id not in entities_seen:
            entities_seen.add(char.entity_id)
            attrs = {"entity_id": char.entity_id}
            if char.name:
                attrs["name"] = char.name
            g.add_node(Node(entity_node_id(char.entity_id), NodeKind.CHARACTER, attrs))
        attrs = {"panel": panel.id}
        if char.name:
            attrs["name"] = char.name
        g.add_node(Node(char.instance_id, NodeKind.CHARACTER_INSTANCE, attrs))
        g.add_edge(Edge(char.instance_id, entity_node_id(char.entity_id), EdgeKind.REFERS_TO))
    for a, b in itertools.combinations(sorted(c.instance_id for c in panel.characters), 2):
        g.add_edge(Edge(a, b, EdgeKind.CO_OCCURS_WITH))
    for obj in panel.objects:
        g.add_node(Node(obj.instance_id, NodeKind.OBJECT, {"label": obj.label, "panel": panel.id}))
    for action in panel.actions:
        g.add_node(
            Node(action.instance_id, NodeKind.ACTION, {"label": action.label, "panel": panel.id})
        )
        if action.agent is not None:
            g.add_edge(Edge(action.instance_id, action.agent, EdgeKind.HAS_AGENT))
        if action.target is not None:
            g.add_edge(Edge(action.instance_id, action.target, EdgeKind.ACTS_ON))
    for k, dlg in enumerate(panel.dialogues):
        attrs = {"text": dlg.text, "panel": panel.id, "order": str(k)}
        if dlg.speaker is not None:
            attrs["speaker"] = dlg.speaker
        g.add_node(Node(dlg.instance_id, NodeKind.DIALOGUE, attrs))
        g.add_edge(Edge(dlg.instance_id, panel.id, EdgeKind.GROUNDED_IN))


def _add_event_hierarchy(g: NarrativeGraph, doc: AnnotationDoc) -> None:
    for macro in doc.macro_events:
        g.add_node(Node(macro.id, NodeKind.MACRO_EVENT, {"label": macro.label}))
        for event in macro.events:
            g.add_node(Node(event.id, NodeKind.EVENT, {"label": event.label}))
            g.add_edge(Edge(event.id, macro.id, EdgeKind.SUBEVENT_OF))
            for panel in event.panels:
                g.add_edge(Edge(panel.id, event.id, EdgeKind.INSTANTIATES))
        for a, b in zip(macro.events, macro.events[1:]):
            g.add_edge(Edge(a.id, b.id, EdgeKind.PRECEDES))
    for a, b in zip(doc.macro_events, doc.macro_events[1:]):
        g.add_edge(Edge(a.id, b.id, EdgeKind.PRECEDES))


def build_all(doc: AnnotationDoc) -> NarrativeGraph:
    g = NarrativeGraph(doc.story_id)
    panels = [panel for _, _, panel in doc.iter_panels()]
    entities_seen: set[str] = set()
    for panel in panels:
        _add_panel_content(g, panel, entities_seen)
    for order_key, kind in (
        (lambda p: p.reading_order, EdgeKind.PRECEDES_READING),
        (lambda p: p.storytime_order, EdgeKind.PRECEDES_STORYTIME),
    ):
        chain = sorted(panels, key=order_key)
        for a, b in zip(chain, chain[1:]):
            g.add_edge(Edge(a.id, b.id, kind))
    _add_event_hierarchy(g, doc)
    return g.finalize()
