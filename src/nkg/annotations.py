"""Hierarchical story annotation model.

A story annotation is a three-tier hierarchy: macro-events contain events,
events contain panels, and panels carry the concrete content (characters,
objects, actions, dialogue, captions). Documents interchange as JSON with
an explicit schema_version, which is always required. Otherwise the
dataclasses below are the wire format: a document's keys are their field
names, a field with a default may be missing or null, and every other field
is required.

The records are slotted frozen dataclasses: a parse makes one per object
of the document, and a slotted one costs less to build and to keep. Each
sets its fields through its slots (graph.slot_init), which costs half what
a frozen dataclass's own __init__ does.
parse_annotations reads each record class with a reader generated for it
(_reader_source), in which a field costs one lookup and one class test; it
spells out a JSON path only on the way to raising, and runs with the cyclic
collector paused (graph.collector_paused), since what it allocates stays
alive to the end of the call.

Panel ids are position-derived ("m_e_p" for the p-th panel of the e-th event
of the m-th macro-event). reading_order and storytime_order are explicit
integers so that flashback structures (storytime != reading) stay
representable.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Any, Iterator, get_args, get_origin, get_type_hints

from .errors import DanglingReference, DuplicateId, NkgError, SchemaViolation
from .graph import collector_paused, slot_init
from .jsonio import dump_canonical, load_object, require
from .lexicon import is_label

SCHEMA_VERSION = 1


def entity_node_id(entity_id: str) -> str:
    """Graph node id of a story-level character entity."""
    return f"entity:{entity_id}"


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class CharacterAnn:
    """A character in one panel: an instance of a story-level entity."""

    instance_id: str
    entity_id: str  # story-level identity shared across panels
    name: str = ""


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class ObjectAnn:
    """An object in one panel."""

    instance_id: str
    label: str


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class ActionAnn:
    """An action in one panel, with the instances that do it and undergo it."""

    instance_id: str
    label: str  # free-text surface form, normalized later
    agent: str | None = None  # character instance_id in the same panel
    target: str | None = None  # character or object instance_id in the same panel


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class DialogueAnn:
    """A line of dialogue in one panel, and the instance that speaks it."""

    instance_id: str
    text: str
    speaker: str | None = None  # character instance_id in the same panel


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class PanelAnn:
    """A panel: its position in each order, and what it shows."""

    id: str
    reading_order: int
    storytime_order: int
    characters: tuple[CharacterAnn, ...] = ()
    objects: tuple[ObjectAnn, ...] = ()
    actions: tuple[ActionAnn, ...] = ()
    dialogues: tuple[DialogueAnn, ...] = ()
    captions: tuple[str, ...] = ()


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class EventAnn:
    """An event and its panels."""

    id: str
    label: str
    panels: tuple[PanelAnn, ...]


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class MacroEventAnn:
    """A macro-event and its events."""

    id: str
    label: str
    events: tuple[EventAnn, ...]


@slot_init
@dataclass(frozen=True, slots=True, init=False)
class AnnotationDoc:
    """A story's annotation document."""

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


@dataclass(frozen=True, slots=True)
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


def _path(where: tuple | None) -> str:
    """The JSON path of a location: None is the document, and
    (parent, key, i) is item i of the list `key` of the object at parent."""
    steps = []
    while where is not None:
        where, key, i = where
        steps.append(f".{key}[{i}]")
    return "$" + "".join(reversed(steps))


def _field(obj: dict, where: tuple | None, key: str, kind: type, item, default: Any) -> Any:
    """A field whose value is no `kind`: the default when it is missing or
    null and has one, else require()'s error, its path spelled out."""
    if obj.get(key) is None and default is not MISSING:
        return default
    return require(obj, key, kind, _path(where), default)


def _reader_source(cls: type) -> str:
    """The source of read_<cls>(obj, where): the `cls` that the JSON object
    `obj` at `where` holds, nested tiers included, in straight-line code. A
    valid field costs one lookup and one class test; a missing or null field
    with a default reads as the default."""
    name = cls.__name__
    lines = [
        f"def read_{name}(obj, where):",
        " if not isinstance(obj, dict):",
        "  raise SchemaViolation(_path(where), 'expected object')",
    ]
    for i, (key, kind, item, _) in enumerate(_WIRE[cls]):
        lines += [
            f" v{i} = obj.get({key!r})",
            f" if v{i}.__class__ is not {kind.__name__}:",
            f"  v{i} = _field(obj, where, *_WIRE[{name}][{i}])",
        ]
        if item is str:
            lines += [
                f" if not all(isinstance(v, str) for v in v{i}):",
                f"  raise SchemaViolation(_path(where) + '.{key}', 'expected list of strings')",
                f" v{i} = tuple(v{i})",
            ]
        elif item is not None:
            lines.append(
                f" v{i} = tuple([read_{item.__name__}(v, (where, {key!r}, i))"
                f" for i, v in enumerate(v{i})])"
            )
    args = ", ".join(f"v{i}" for i in range(len(_WIRE[cls])))
    return "\n".join([*lines, f" return {name}({args})"])


def _make_readers() -> dict:
    """read_<cls> of every wire class, by class, from one exec, as
    graph.slot_init makes an __init__."""
    scope = {"SchemaViolation": SchemaViolation, "_path": _path, "_field": _field, "_WIRE": _WIRE}
    scope.update((cls.__name__, cls) for cls in _WIRE)
    exec("\n".join(map(_reader_source, _WIRE)), scope)
    return {cls: scope[f"read_{cls.__name__}"] for cls in _WIRE}


_READERS = _make_readers()


def _read(cls: type, obj: Any, where: tuple | None) -> Any:
    """The `cls` that the JSON object `obj` at `where` holds."""
    return _READERS[cls](obj, where)


@collector_paused()
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
    doc = _read(AnnotationDoc, obj, None)
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

    # each item's location is a (parent, key, index) tuple, spelled out by
    # _path only for a violation
    for mi, macro in enumerate(doc.macro_events):
        mwhere = (None, "macro_events", mi)
        _claim(ids, macro.id, mwhere, out)
        _check_label(macro.label, mwhere, out)
        if not macro.events:
            out.append(Violation(_path(mwhere), "macro-event must contain at least one event"))
        for ei, event in enumerate(macro.events):
            ewhere = (mwhere, "events", ei)
            _claim(ids, event.id, ewhere, out)
            _check_label(event.label, ewhere, out)
            if not event.panels:
                out.append(Violation(_path(ewhere), "event must contain at least one panel"))
            for pi, panel in enumerate(event.panels):
                pwhere = (ewhere, "panels", pi)
                expected = f"{mi}_{ei}_{pi}"
                if panel.id != expected:
                    out.append(
                        Violation(
                            _path(pwhere),
                            f"panel id {panel.id!r} does not match position-derived id {expected!r}",
                        )
                    )
                _claim(ids, panel.id, pwhere, out)
                duplicates = []  # reported after the sign of both orders
                for key, seen in orders_seen.items():
                    order = getattr(panel, key)
                    if order < 0:
                        out.append(Violation(_path(pwhere), f"{key} must be non-negative"))
                    if order in seen:
                        message = f"duplicate {key} {order} on panels {seen[order]} and {panel.id}"
                        duplicates.append(Violation(_path(pwhere), message))
                    else:
                        seen[order] = panel.id
                out.extend(duplicates)
                out.extend(_validate_panel_content(panel, pwhere, ids))

    return out


def _claim(ids: set[str], node_id: str, where: tuple, out: list[Violation]) -> None:
    if node_id in ids:
        out.append(Violation(_path(where), f"duplicate id: {node_id}", DuplicateId(node_id)))
    ids.add(node_id)


def _dangling(ref: str, where: tuple) -> Violation:
    path = _path(where)
    return Violation(path, f"dangling reference: {ref}", DanglingReference(ref, path))


def _check_label(label: str, where: tuple, out: list[Violation]) -> None:
    if not is_label(label):
        out.append(Violation(_path(where), "label must not be blank"))


def _validate_panel_content(panel: PanelAnn, pwhere: tuple, ids: set[str]) -> list[Violation]:
    out: list[Violation] = []
    local_characters: set[str] = set()
    local_objects: set[str] = set()

    for i, c in enumerate(panel.characters):
        where = (pwhere, "characters", i)
        _claim(ids, c.instance_id, where, out)
        local_characters.add(c.instance_id)
        if not c.entity_id:
            out.append(Violation(_path(where), "entity_id must be nonempty"))
    for i, o in enumerate(panel.objects):
        where = (pwhere, "objects", i)
        _claim(ids, o.instance_id, where, out)
        local_objects.add(o.instance_id)
        _check_label(o.label, where, out)
    for i, a in enumerate(panel.actions):
        where = (pwhere, "actions", i)
        _claim(ids, a.instance_id, where, out)
        _check_label(a.label, where, out)
        if a.agent is not None and a.agent not in local_characters:
            out.append(_dangling(a.agent, where))
        if (
            a.target is not None
            and a.target not in local_characters
            and a.target not in local_objects
        ):
            out.append(_dangling(a.target, where))
    for i, d in enumerate(panel.dialogues):
        where = (pwhere, "dialogues", i)
        _claim(ids, d.instance_id, where, out)
        if not d.text:
            out.append(Violation(_path(where), "text must be nonempty"))
        if d.speaker is not None and d.speaker not in local_characters:
            out.append(_dangling(d.speaker, where))
    return out
