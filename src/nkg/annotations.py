"""Hierarchical story annotation model.

A story annotation is a three-tier hierarchy: macro-events contain events,
events contain panels, and panels carry the concrete content (characters,
objects, actions, dialogue, captions). Documents interchange as JSON with
an explicit schema_version, which is always required. Otherwise the
dataclasses below are the wire format: a document's keys are their field
names, a field with a default may be missing or null, and every other field
is required.

Panel ids are position-derived ("m_e_p" for the p-th panel of the e-th event
of the m-th macro-event). reading_order and storytime_order are explicit
integers so that flashback structures (storytime != reading) stay
representable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Iterator, get_args, get_origin, get_type_hints

from .errors import DanglingReference, DuplicateId, NkgError, SchemaViolation
from .jsonio import dump_canonical, load_object, require
from .lexicon import is_label

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
    panels: tuple[PanelAnn, ...]


@dataclass(frozen=True)
class MacroEventAnn:
    id: str
    label: str
    events: tuple[EventAnn, ...]


@dataclass(frozen=True)
class AnnotationDoc:
    story_id: str
    macro_events: tuple[MacroEventAnn, ...]
    schema_version: int = SCHEMA_VERSION

    def iter_panels(self) -> Iterator[tuple[MacroEventAnn, EventAnn, PanelAnn]]:
        for macro in self.macro_events:
            for event in macro.events:
                for panel in event.panels:
                    yield macro, event, panel

    def panel_count(self) -> int:
        return sum(1 for _ in self.iter_panels())

    def to_json_bytes(self) -> bytes:
        """Canonical UTF-8 JSON; equal documents serialize to equal bytes.
        The field names are the wire keys."""
        return dump_canonical(asdict(self))


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by validate_annotations."""

    path: str
    message: str
    # what parse_annotations raises for it; None means SchemaViolation
    error: NkgError | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


# --- parsing ----------------------------------------------------------------


def _wire_fields(cls: type) -> tuple:
    """(key, JSON type, list item type or None, default) of each field of
    `cls`. A `str | None` field reads as a str; a tuple field reads as a list
    of strings or of a nested class. dataclasses.MISSING, which require()
    reads as "no default", marks a required field."""
    hints = get_type_hints(cls)
    table = []
    for f in fields(cls):
        kind, item = hints[f.name], None
        if get_origin(kind) is tuple:
            kind, item = list, get_args(kind)[0]
        elif type(None) in get_args(kind):
            kind = get_args(kind)[0]
        table.append((f.name, kind, item, f.default))
    return tuple(table)


_WIRE = {
    cls: _wire_fields(cls)
    for cls in (
        AnnotationDoc, MacroEventAnn, EventAnn, PanelAnn,
        CharacterAnn, ObjectAnn, ActionAnn, DialogueAnn,
    )
}


def _read(cls: type, obj: Any, path: str) -> Any:
    """The `cls` that the JSON object `obj` at `path` holds, nested tiers
    included; a missing or null field with a default reads as the default."""
    if not isinstance(obj, dict):
        raise SchemaViolation(path, "expected object")
    values = []
    for key, kind, item, default in _WIRE[cls]:
        value = require(obj, key, kind, path, default)
        if item is str:
            if not all(isinstance(v, str) for v in value):
                raise SchemaViolation(f"{path}.{key}", "expected list of strings")
            value = tuple(value)
        elif item is not None:
            value = tuple(_read(item, v, f"{path}.{key}[{i}]") for i, v in enumerate(value))
        values.append(value)
    return cls(*values)


def parse_annotations(raw_bytes: bytes | str) -> AnnotationDoc:
    """Parse and validate an annotation document from UTF-8 JSON.

    Raises MalformedJson for non-JSON input, SchemaViolation for structural
    problems, DuplicateId / DanglingReference for the corresponding invariant
    violations. The returned document always satisfies validate_annotations.
    """
    obj = load_object(raw_bytes, "annotation document")
    version = require(obj, "schema_version", int, "$")
    if version != SCHEMA_VERSION:
        raise SchemaViolation(
            "$.schema_version", f"unsupported version {version}, expected {SCHEMA_VERSION}"
        )
    doc = _read(AnnotationDoc, obj, "$")
    violations = validate_annotations(doc)
    if violations:
        raise violations[0].error or SchemaViolation(violations[0].path, violations[0].message)
    return doc


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
    # panel id by order value, for each of the two panel orders
    orders_seen: dict[str, dict[int, str]] = {"reading_order": {}, "storytime_order": {}}

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
                duplicates = []  # reported after the sign of both orders
                for key, seen in orders_seen.items():
                    order = getattr(panel, key)
                    if order < 0:
                        out.append(Violation(ppath, f"{key} must be non-negative"))
                    if order in seen:
                        message = f"duplicate {key} {order} on panels {seen[order]} and {panel.id}"
                        duplicates.append(Violation(ppath, message))
                    else:
                        seen[order] = panel.id
                out.extend(duplicates)
                out.extend(_validate_panel_content(panel, ppath, ids))

    return out


def _claim(ids: set[str], node_id: str, path: str, out: list[Violation]) -> None:
    if node_id in ids:
        out.append(Violation(path, f"duplicate id: {node_id}", DuplicateId(node_id)))
    ids.add(node_id)


def _dangling(ref: str, path: str) -> Violation:
    return Violation(path, f"dangling reference: {ref}", DanglingReference(ref, path))


def _check_label(label: str, path: str, out: list[Violation]) -> None:
    if not is_label(label):
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
            out.append(_dangling(a.agent, apath))
        if a.target is not None and a.target not in (local_characters | local_objects):
            out.append(_dangling(a.target, apath))
    for i, d in enumerate(panel.dialogues):
        dpath = f"{ppath}.dialogues[{i}]"
        _claim(ids, d.instance_id, dpath, out)
        if not d.text:
            out.append(Violation(dpath, "text must be nonempty"))
        if d.speaker is not None and d.speaker not in local_characters:
            out.append(_dangling(d.speaker, dpath))
    return out
