"""Hierarchical story annotation model.

A story annotation is a three-tier hierarchy: macro-events contain events,
events contain panels, and panels carry the concrete content (characters,
objects, actions, dialogue, captions). Documents interchange as JSON with
an explicit schema_version; see parse_annotations / AnnotationDoc.to_json_bytes
for the wire format.

Panel ids are position-derived ("m_e_p" for the p-th panel of the e-th event
of the m-th macro-event). reading_order and storytime_order are explicit
integers so that flashback structures (storytime != reading) stay
representable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator

from .errors import DanglingReference, DuplicateId, EmptyLabel, MalformedJson, SchemaViolation
from .lexicon import fold_label

SCHEMA_VERSION = 1


def entity_node_id(entity_id: str) -> str:
    """Graph node id of a story-level character entity."""
    return f"entity:{entity_id}"


@dataclass(frozen=True)
class CharacterAnn:
    instance_id: str
    entity_id: str  # story-level identity shared across panels
    name: str = ""


@dataclass(frozen=True)
class ObjectAnn:
    instance_id: str
    label: str


@dataclass(frozen=True)
class ActionAnn:
    instance_id: str
    label: str  # free-text surface form, normalized later
    agent: str | None = None  # character instance_id in the same panel
    target: str | None = None  # character or object instance_id in the same panel


@dataclass(frozen=True)
class DialogueAnn:
    instance_id: str
    text: str
    speaker: str | None = None  # character instance_id in the same panel


@dataclass(frozen=True)
class PanelAnn:
    id: str
    reading_order: int
    storytime_order: int
    characters: tuple[CharacterAnn, ...] = ()
    objects: tuple[ObjectAnn, ...] = ()
    actions: tuple[ActionAnn, ...] = ()
    dialogues: tuple[DialogueAnn, ...] = ()
    captions: tuple[str, ...] = ()


@dataclass(frozen=True)
class EventAnn:
    id: str
    label: str
    panels: tuple[PanelAnn, ...] = ()


@dataclass(frozen=True)
class MacroEventAnn:
    id: str
    label: str
    events: tuple[EventAnn, ...] = ()


@dataclass(frozen=True)
class AnnotationDoc:
    story_id: str
    macro_events: tuple[MacroEventAnn, ...] = ()
    schema_version: int = SCHEMA_VERSION

    def iter_panels(self) -> Iterator[tuple[MacroEventAnn, EventAnn, PanelAnn]]:
        for macro in self.macro_events:
            for event in macro.events:
                for panel in event.panels:
                    yield macro, event, panel

    def panel_count(self) -> int:
        return sum(1 for _ in self.iter_panels())

    def to_json_bytes(self) -> bytes:
        """Canonical UTF-8 JSON; equal documents serialize to equal bytes."""
        return (
            json.dumps(_doc_to_obj(self), indent=2, sort_keys=True, ensure_ascii=False)
            + "\n"
        ).encode("utf-8")


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by validate_annotations."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


# --- serialization ----------------------------------------------------------


def _doc_to_obj(doc: AnnotationDoc) -> dict[str, Any]:
    return {
        "schema_version": doc.schema_version,
        "story_id": doc.story_id,
        "macro_events": [
            {
                "id": m.id,
                "label": m.label,
                "events": [
                    {
                        "id": e.id,
                        "label": e.label,
                        "panels": [_panel_to_obj(p) for p in e.panels],
                    }
                    for e in m.events
                ],
            }
            for m in doc.macro_events
        ],
    }


def _panel_to_obj(p: PanelAnn) -> dict[str, Any]:
    return {
        "id": p.id,
        "characters": [
            {"instance_id": c.instance_id, "entity_id": c.entity_id, "name": c.name}
            for c in p.characters
        ],
        "objects": [{"instance_id": o.instance_id, "label": o.label} for o in p.objects],
        "actions": [
            {
                "instance_id": a.instance_id,
                "label": a.label,
                "agent": a.agent,
                "target": a.target,
            }
            for a in p.actions
        ],
        "dialogues": [
            {"instance_id": d.instance_id, "speaker": d.speaker, "text": d.text}
            for d in p.dialogues
        ],
        "captions": list(p.captions),
        "reading_order": p.reading_order,
        "storytime_order": p.storytime_order,
    }


# --- parsing ----------------------------------------------------------------


def _require(obj: dict, key: str, kind: type, path: str) -> Any:
    if key not in obj:
        raise SchemaViolation(f"{path}.{key}", "missing required field")
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise SchemaViolation(f"{path}.{key}", "expected integer, got boolean")
    if not isinstance(value, kind):
        raise SchemaViolation(
            f"{path}.{key}", f"expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _optional_str(obj: dict, key: str, path: str) -> str | None:
    value = obj.get(key)
    if value is None:
        return None
    if not isinstance(value, str):
        raise SchemaViolation(f"{path}.{key}", "expected string or null")
    return value


def _parse_panel(obj: Any, path: str) -> PanelAnn:
    if not isinstance(obj, dict):
        raise SchemaViolation(path, "panel must be an object")
    characters = []
    for i, c in enumerate(obj.get("characters", []) or []):
        cpath = f"{path}.characters[{i}]"
        characters.append(
            CharacterAnn(
                instance_id=_require(c, "instance_id", str, cpath),
                entity_id=_require(c, "entity_id", str, cpath),
                name=c.get("name", "") or "",
            )
        )
    objects = []
    for i, o in enumerate(obj.get("objects", []) or []):
        opath = f"{path}.objects[{i}]"
        objects.append(
            ObjectAnn(
                instance_id=_require(o, "instance_id", str, opath),
                label=_require(o, "label", str, opath),
            )
        )
    actions = []
    for i, a in enumerate(obj.get("actions", []) or []):
        apath = f"{path}.actions[{i}]"
        actions.append(
            ActionAnn(
                instance_id=_require(a, "instance_id", str, apath),
                label=_require(a, "label", str, apath),
                agent=_optional_str(a, "agent", apath),
                target=_optional_str(a, "target", apath),
            )
        )
    dialogues = []
    for i, d in enumerate(obj.get("dialogues", []) or []):
        dpath = f"{path}.dialogues[{i}]"
        dialogues.append(
            DialogueAnn(
                instance_id=_require(d, "instance_id", str, dpath),
                text=_require(d, "text", str, dpath),
                speaker=_optional_str(d, "speaker", dpath),
            )
        )
    captions = obj.get("captions", []) or []
    if not isinstance(captions, list) or not all(isinstance(c, str) for c in captions):
        raise SchemaViolation(f"{path}.captions", "expected list of strings")
    return PanelAnn(
        id=_require(obj, "id", str, path),
        reading_order=_require(obj, "reading_order", int, path),
        storytime_order=_require(obj, "storytime_order", int, path),
        characters=tuple(characters),
        objects=tuple(objects),
        actions=tuple(actions),
        dialogues=tuple(dialogues),
        captions=tuple(captions),
    )


def parse_annotations(raw_bytes: bytes | str) -> AnnotationDoc:
    """Parse and validate an annotation document from UTF-8 JSON.

    Raises MalformedJson for non-JSON input, SchemaViolation for structural
    problems, DuplicateId / DanglingReference for the corresponding invariant
    violations. The returned document always satisfies validate_annotations.
    """
    if isinstance(raw_bytes, bytes):
        try:
            text = raw_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedJson(f"input is not valid UTF-8: {exc}") from exc
    else:
        text = raw_bytes
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedJson(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaViolation("$", "top level must be an object")

    version = _require(obj, "schema_version", int, "$")
    if version != SCHEMA_VERSION:
        raise SchemaViolation(
            "$.schema_version", f"unsupported version {version}, expected {SCHEMA_VERSION}"
        )
    story_id = _require(obj, "story_id", str, "$")
    macros_obj = _require(obj, "macro_events", list, "$")

    macro_events = []
    for mi, m in enumerate(macros_obj):
        mpath = f"$.macro_events[{mi}]"
        if not isinstance(m, dict):
            raise SchemaViolation(mpath, "macro-event must be an object")
        events = []
        events_obj = _require(m, "events", list, mpath)
        for ei, e in enumerate(events_obj):
            epath = f"{mpath}.events[{ei}]"
            if not isinstance(e, dict):
                raise SchemaViolation(epath, "event must be an object")
            panels_obj = _require(e, "panels", list, epath)
            panels = tuple(
                _parse_panel(p, f"{epath}.panels[{pi}]") for pi, p in enumerate(panels_obj)
            )
            events.append(
                EventAnn(
                    id=_require(e, "id", str, epath),
                    label=_require(e, "label", str, epath),
                    panels=panels,
                )
            )
        macro_events.append(
            MacroEventAnn(
                id=_require(m, "id", str, mpath),
                label=_require(m, "label", str, mpath),
                events=tuple(events),
            )
        )

    doc = AnnotationDoc(story_id=story_id, macro_events=tuple(macro_events))
    _raise_first_violation(doc)
    return doc


def _raise_first_violation(doc: AnnotationDoc) -> None:
    violations = validate_annotations(doc)
    if not violations:
        return
    v = violations[0]
    if v.message.startswith("duplicate id"):
        raise DuplicateId(v.message.split(": ", 1)[1])
    if v.message.startswith("dangling reference"):
        raise DanglingReference(v.message.split(": ", 1)[1], v.path)
    raise SchemaViolation(v.path, v.message)


# --- validation -------------------------------------------------------------


def validate_annotations(doc: AnnotationDoc) -> list[Violation]:
    """Check every document invariant; returns [] iff the document is valid.

    Violations are data, not errors: callers that want exceptions should use
    parse_annotations, which raises on the first violation.
    """
    out: list[Violation] = []

    if doc.schema_version != SCHEMA_VERSION:
        out.append(Violation("$.schema_version", f"must be {SCHEMA_VERSION}"))
    if not doc.story_id:
        out.append(Violation("$.story_id", "must be nonempty"))

    # every id names a node of one graph, so macro-events, events, panels,
    # instances and the entity nodes all share one namespace
    ids = {entity_node_id(c.entity_id) for _, _, p in doc.iter_panels() for c in p.characters}
    reading_seen: dict[int, str] = {}
    storytime_seen: dict[int, str] = {}

    for mi, macro in enumerate(doc.macro_events):
        mpath = f"$.macro_events[{mi}]"
        _claim(ids, macro.id, mpath, out)
        _check_label(macro.label, mpath, out)
        if not macro.events:
            out.append(Violation(mpath, "macro-event must contain at least one event"))
        for ei, event in enumerate(macro.events):
            epath = f"{mpath}.events[{ei}]"
            _claim(ids, event.id, epath, out)
            _check_label(event.label, epath, out)
            if not event.panels:
                out.append(Violation(epath, "event must contain at least one panel"))
            for pi, panel in enumerate(event.panels):
                ppath = f"{epath}.panels[{pi}]"
                expected = f"{mi}_{ei}_{pi}"
                if panel.id != expected:
                    out.append(
                        Violation(
                            ppath,
                            f"panel id {panel.id!r} does not match position-derived id {expected!r}",
                        )
                    )
                _claim(ids, panel.id, ppath, out)
                if panel.reading_order < 0:
                    out.append(Violation(ppath, "reading_order must be non-negative"))
                if panel.storytime_order < 0:
                    out.append(Violation(ppath, "storytime_order must be non-negative"))
                if panel.reading_order in reading_seen:
                    out.append(
                        Violation(
                            ppath,
                            "duplicate reading_order "
                            f"{panel.reading_order} on panels "
                            f"{reading_seen[panel.reading_order]} and {panel.id}",
                        )
                    )
                else:
                    reading_seen[panel.reading_order] = panel.id
                if panel.storytime_order in storytime_seen:
                    out.append(
                        Violation(
                            ppath,
                            "duplicate storytime_order "
                            f"{panel.storytime_order} on panels "
                            f"{storytime_seen[panel.storytime_order]} and {panel.id}",
                        )
                    )
                else:
                    storytime_seen[panel.storytime_order] = panel.id
                out.extend(_validate_panel_content(panel, ppath, ids))

    return out


def _claim(ids: set[str], node_id: str, path: str, out: list[Violation]) -> None:
    if node_id in ids:
        out.append(Violation(path, f"duplicate id: {node_id}"))
    ids.add(node_id)


def _check_label(label: str, path: str, out: list[Violation]) -> None:
    # blank means what fold_label rejects: nothing left but separators
    try:
        fold_label(label)
    except EmptyLabel:
        out.append(Violation(path, "label must not be blank"))


def _validate_panel_content(panel: PanelAnn, ppath: str, ids: set[str]) -> list[Violation]:
    out: list[Violation] = []
    local_characters: set[str] = set()
    local_objects: set[str] = set()

    for i, c in enumerate(panel.characters):
        cpath = f"{ppath}.characters[{i}]"
        _claim(ids, c.instance_id, cpath, out)
        local_characters.add(c.instance_id)
        if not c.entity_id:
            out.append(Violation(cpath, "entity_id must be nonempty"))
    for i, o in enumerate(panel.objects):
        opath = f"{ppath}.objects[{i}]"
        _claim(ids, o.instance_id, opath, out)
        local_objects.add(o.instance_id)
        _check_label(o.label, opath, out)
    for i, a in enumerate(panel.actions):
        apath = f"{ppath}.actions[{i}]"
        _claim(ids, a.instance_id, apath, out)
        _check_label(a.label, apath, out)
        if a.agent is not None and a.agent not in local_characters:
            out.append(Violation(apath, f"dangling reference: {a.agent}"))
        if a.target is not None and a.target not in (local_characters | local_objects):
            out.append(Violation(apath, f"dangling reference: {a.target}"))
    for i, d in enumerate(panel.dialogues):
        dpath = f"{ppath}.dialogues[{i}]"
        _claim(ids, d.instance_id, dpath, out)
        if not d.text:
            out.append(Violation(dpath, "text must be nonempty"))
        if d.speaker is not None and d.speaker not in local_characters:
            out.append(Violation(dpath, f"dangling reference: {d.speaker}"))
    return out
