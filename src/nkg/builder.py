"""Deterministic construction of a story graph from an annotation doc.

build_all makes one pass over the document into one NarrativeGraph, in
this order:

- panel content: one Panel node per panel plus CharacterInstance / Object /
  Action / Dialogue nodes, with co-occurrence, agent, target, text-image,
  and identity edges.
- temporal chains: covering chains over the Panel nodes, one per panel order
  in graph.PANEL_ORDERS (reading and storytime), each linking the panels in
  the order of their order attribute. Chains, not closures: each panel has
  at most one successor per kind.
- event hierarchy: Event and MacroEvent nodes, subevent_of links up the
  hierarchy, precedes chains over sibling events and over macro-events, and
  the panel->event instantiates edges.

Every tier goes into the same graph, so an id shared across tiers (say, an
event named like a panel or an action) raises DuplicateNode from add_node;
validate_annotations rejects such documents before they get here.
Panel content goes in first, so its edges can reach only panel-tier nodes.
The graph is finalized once, at the end. The cyclic collector is paused for
the whole pass (graph.collector_paused), since the pass frees nothing.

Entity nodes get an "entity:" id prefix (annotations.entity_node_id), so
story-level ids do not collide with annotation instance ids.
"""

from __future__ import annotations

import itertools
import json
from operator import attrgetter

from .annotations import AnnotationDoc, PanelAnn, entity_node_id
from .graph import (
    PANEL_ORDERS, NarrativeGraph, Node, collector_paused,
    _ACTION, _ACTS_ON, _CHARACTER, _CHARACTER_INSTANCE, _CO_OCCURS_WITH, _DIALOGUE, _EVENT,
    _GROUNDED_IN, _HAS_AGENT, _INSTANTIATES, _MACRO_EVENT, _OBJECT, _PANEL, _PRECEDES,
    _REFERS_TO, _SUBEVENT_OF,
)


def _add_panel_content(g: NarrativeGraph, panel: PanelAnn, entities_seen: set[str]) -> None:
    # PanelAnn fields carry the names of the graph's order attributes
    attrs = {attr: str(getattr(panel, attr)) for attr, _ in PANEL_ORDERS.values()}
    if panel.captions:
        attrs["captions"] = json.dumps(list(panel.captions), ensure_ascii=False)
    g.add_node(Node(panel.id, _PANEL, attrs))
    for char in panel.characters:
        if char.entity_id not in entities_seen:
            entities_seen.add(char.entity_id)
            attrs = {"entity_id": char.entity_id}
            if char.name:
                attrs["name"] = char.name
            g.add_node(Node(entity_node_id(char.entity_id), _CHARACTER, attrs))
        attrs = {"panel": panel.id}
        if char.name:
            attrs["name"] = char.name
        g.add_node(Node(char.instance_id, _CHARACTER_INSTANCE, attrs))
        g.add_edge(char.instance_id, entity_node_id(char.entity_id), _REFERS_TO)
    for a, b in itertools.combinations(sorted(c.instance_id for c in panel.characters), 2):
        g.add_edge(a, b, _CO_OCCURS_WITH)
    for obj in panel.objects:
        g.add_node(Node(obj.instance_id, _OBJECT, {"label": obj.label, "panel": panel.id}))
    for action in panel.actions:
        g.add_node(
            Node(action.instance_id, _ACTION, {"label": action.label, "panel": panel.id})
        )
        if action.agent is not None:
            g.add_edge(action.instance_id, action.agent, _HAS_AGENT)
        if action.target is not None:
            g.add_edge(action.instance_id, action.target, _ACTS_ON)
    for k, dlg in enumerate(panel.dialogues):
        attrs = {"text": dlg.text, "panel": panel.id, "order": str(k)}
        if dlg.speaker is not None:
            attrs["speaker"] = dlg.speaker
        g.add_node(Node(dlg.instance_id, _DIALOGUE, attrs))
        g.add_edge(dlg.instance_id, panel.id, _GROUNDED_IN)


def _add_event_hierarchy(g: NarrativeGraph, doc: AnnotationDoc) -> None:
    for macro in doc.macro_events:
        g.add_node(Node(macro.id, _MACRO_EVENT, {"label": macro.label}))
        for event in macro.events:
            g.add_node(Node(event.id, _EVENT, {"label": event.label}))
            g.add_edge(event.id, macro.id, _SUBEVENT_OF)
            for panel in event.panels:
                g.add_edge(panel.id, event.id, _INSTANTIATES)
        for a, b in zip(macro.events, macro.events[1:]):
            g.add_edge(a.id, b.id, _PRECEDES)
    for a, b in zip(doc.macro_events, doc.macro_events[1:]):
        g.add_edge(a.id, b.id, _PRECEDES)


@collector_paused()
def build_all(doc: AnnotationDoc) -> NarrativeGraph:
    g = NarrativeGraph(doc.story_id)
    panels = [panel for _, _, panel in doc.iter_panels()]
    entities_seen: set[str] = set()
    for panel in panels:
        _add_panel_content(g, panel, entities_seen)
    for attr, kind in PANEL_ORDERS.values():
        chain = sorted(panels, key=attrgetter(attr))
        for a, b in zip(chain, chain[1:]):
            g.add_edge(a.id, b.id, kind)
    _add_event_hierarchy(g, doc)
    return g.finalize()
