import gc
import json
import random
from dataclasses import MISSING, asdict, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkg import annotations
from nkg.annotations import (
    ActionAnn,
    AnnotationDoc,
    CharacterAnn,
    DialogueAnn,
    EventAnn,
    MacroEventAnn,
    ObjectAnn,
    PanelAnn,
    Violation,
    _read,
    _WIRE,
    parse_annotations,
    validate_annotations,
)
from nkg.errors import DanglingReference, DuplicateId, MalformedJson, SchemaViolation
from nkg.fixtures import generate_fixture
from nkg.jsonio import require


def make_panel(m, e, p, order, **overrides):
    base = dict(
        id=f"{m}_{e}_{p}",
        reading_order=order,
        storytime_order=order,
        characters=(CharacterAnn(f"c{order}", "hero", "Hero"),),
        objects=(ObjectAnn(f"o{order}", "sword"),),
        actions=(ActionAnn(f"a{order}", "walk", agent=f"c{order}", target=f"o{order}"),),
        dialogues=(DialogueAnn(f"d{order}", "onward", speaker=f"c{order}"),),
        captions=("later",),
    )
    base.update(overrides)
    return PanelAnn(**base)


def make_doc():
    return AnnotationDoc(
        story_id="mini",
        macro_events=(
            MacroEventAnn(
                id="m0",
                label="Departure",
                events=(
                    EventAnn("e0", "Packing", (make_panel(0, 0, 0, 0), make_panel(0, 0, 1, 1))),
                    EventAnn("e1", "Leaving", (make_panel(0, 1, 0, 2),)),
                ),
            ),
            MacroEventAnn(
                id="m1",
                label="Road",
                events=(EventAnn("e2", "Walking", (make_panel(1, 0, 0, 3),)),),
            ),
        ),
    )


def random_doc(rng):
    panels_total = 0
    macros = []
    for mi in range(rng.randint(1, 4)):
        events = []
        for ei in range(rng.randint(1, 3)):
            panels = []
            for pi in range(rng.randint(1, 3)):
                n = panels_total
                panels_total += 1
                chars = tuple(
                    CharacterAnn(f"c{n}_{k}", f"ent{rng.randint(0, 3)}", name=f"N{k}")
                    for k in range(rng.randint(0, 2))
                )
                objs = tuple(ObjectAnn(f"o{n}_{k}", "rock") for k in range(rng.randint(0, 2)))
                actions = []
                for k in range(rng.randint(0, 2)):
                    agent = rng.choice([c.instance_id for c in chars] + [None]) if chars else None
                    pool = [c.instance_id for c in chars] + [o.instance_id for o in objs]
                    target = rng.choice(pool + [None]) if pool else None
                    actions.append(ActionAnn(f"a{n}_{k}", "run", agent=agent, target=target))
                dialogues = tuple(
                    DialogueAnn(
                        f"d{n}_{k}",
                        "hm",
                        speaker=rng.choice([c.instance_id for c in chars]) if chars else None,
                    )
                    for k in range(rng.randint(0, 2))
                )
                panels.append(
                    PanelAnn(
                        id=f"{mi}_{ei}_{pi}",
                        reading_order=n,
                        storytime_order=n,
                        characters=chars,
                        objects=objs,
                        actions=tuple(actions),
                        dialogues=dialogues,
                        captions=tuple(f"cap{k}" for k in range(rng.randint(0, 2))),
                    )
                )
            events.append(EventAnn(f"e{mi}_{ei}", f"event {mi}.{ei}", tuple(panels)))
        macros.append(MacroEventAnn(f"m{mi}", f"macro {mi}", tuple(events)))
    # shuffle storytime to exercise flashbacks while keeping orders distinct
    orders = list(range(panels_total))
    rng.shuffle(orders)
    it = iter(orders)
    macros = [
        MacroEventAnn(
            m.id,
            m.label,
            tuple(
                EventAnn(
                    e.id,
                    e.label,
                    tuple(
                        PanelAnn(
                            p.id,
                            p.reading_order,
                            next(it),
                            p.characters,
                            p.objects,
                            p.actions,
                            p.dialogues,
                            p.captions,
                        )
                        for p in e.panels
                    ),
                )
                for e in m.events
            ),
        )
        for m in macros
    ]
    return AnnotationDoc(story_id=f"story{rng.randint(0, 9)}", macro_events=tuple(macros))


def test_valid_doc_has_no_violations():
    assert validate_annotations(make_doc()) == []


def test_round_trip_identity():
    doc = make_doc()
    assert parse_annotations(doc.to_json_bytes()) == doc


def test_round_trip_randomized():
    rng = random.Random(91)
    for _ in range(40):
        doc = random_doc(rng)
        assert validate_annotations(doc) == []
        again = parse_annotations(doc.to_json_bytes())
        assert again == doc
        # serialization is canonical: equal docs, equal bytes
        assert again.to_json_bytes() == doc.to_json_bytes()


def test_serialized_panel_carries_every_field():
    obj = json.loads(make_doc().to_json_bytes())
    panel = obj["macro_events"][0]["events"][0]["panels"][0]
    assert set(panel) == {
        "id",
        "characters",
        "objects",
        "actions",
        "dialogues",
        "captions",
        "reading_order",
        "storytime_order",
    }
    assert panel["actions"][0]["agent"] == "c0"
    # absent references serialize as explicit nulls
    lone = json.loads(
        AnnotationDoc(
            "s",
            (
                MacroEventAnn(
                    "m0",
                    "x",
                    (
                        EventAnn(
                            "e0",
                            "y",
                            (
                                make_panel(
                                    0,
                                    0,
                                    0,
                                    0,
                                    characters=(),
                                    objects=(),
                                    actions=(ActionAnn("a0", "rain"),),
                                    dialogues=(DialogueAnn("d0", "...?"),),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        ).to_json_bytes()
    )
    action = lone["macro_events"][0]["events"][0]["panels"][0]["actions"][0]
    assert action["agent"] is None and action["target"] is None


def test_parse_rejects_garbage():
    with pytest.raises(MalformedJson):
        parse_annotations(b"not json at all {")
    with pytest.raises(MalformedJson):
        parse_annotations(b"\xff\xfe\x00bad")
    with pytest.raises(SchemaViolation):
        parse_annotations(b"[1, 2, 3]")


def test_parse_rejects_missing_and_mistyped_fields():
    with pytest.raises(SchemaViolation) as exc:
        parse_annotations(json.dumps({"schema_version": 1, "story_id": "s"}).encode())
    assert "macro_events" in str(exc.value)

    obj = json.loads(make_doc().to_json_bytes())
    obj["macro_events"][0]["events"][0]["panels"][0]["reading_order"] = "3"
    with pytest.raises(SchemaViolation):
        parse_annotations(json.dumps(obj).encode())

    obj = json.loads(make_doc().to_json_bytes())
    obj["macro_events"][0]["events"][0]["panels"][0]["reading_order"] = True
    with pytest.raises(SchemaViolation):
        parse_annotations(json.dumps(obj).encode())


def test_parse_rejects_unknown_schema_version():
    obj = json.loads(make_doc().to_json_bytes())
    obj["schema_version"] = 99
    with pytest.raises(SchemaViolation):
        parse_annotations(json.dumps(obj).encode())


def test_a_document_of_another_schema_version_has_one_violation():
    violations = validate_annotations(replace(make_doc(), schema_version=2))
    assert violations == [Violation("$.schema_version", "must be 1")]
    assert str(violations[0]) == "$.schema_version: must be 1"


def test_missing_content_lists_default_to_empty():
    for absent in (lambda panel, key: panel.pop(key), lambda panel, key: panel.update({key: None})):
        obj = json.loads(make_doc().to_json_bytes())
        panel = obj["macro_events"][1]["events"][0]["panels"][0]
        for key in ("characters", "objects", "actions", "dialogues", "captions"):
            absent(panel, key)
        doc = parse_annotations(json.dumps(obj).encode())
        parsed = doc.macro_events[1].events[0].panels[0]
        assert parsed.characters == parsed.objects == parsed.actions == parsed.dialogues == ()
        assert parsed.captions == ()


@pytest.mark.parametrize("value", [{}, "", 0, 5, True, [None], [7], [[]]], ids=repr)
@pytest.mark.parametrize("key", ["characters", "objects", "actions", "dialogues", "captions"])
def test_mistyped_content_list_names_its_path(key, value):
    obj = json.loads(make_doc().to_json_bytes())
    obj["macro_events"][0]["events"][0]["panels"][1][key] = value
    with pytest.raises(SchemaViolation) as exc:
        parse_annotations(json.dumps(obj).encode())
    assert exc.value.path.startswith(f"$.macro_events[0].events[0].panels[1].{key}")


@pytest.mark.parametrize("key, field", [
    ("characters", "instance_id"), ("characters", "entity_id"), ("characters", "name"),
    ("objects", "label"), ("actions", "label"), ("actions", "agent"), ("actions", "target"),
    ("dialogues", "text"), ("dialogues", "speaker"),
])
def test_mistyped_content_field_names_its_path(key, field):
    obj = json.loads(make_doc().to_json_bytes())
    obj["macro_events"][0]["events"][0]["panels"][1][key][0][field] = 5
    with pytest.raises(SchemaViolation) as exc:
        parse_annotations(json.dumps(obj).encode())
    assert exc.value.path == f"$.macro_events[0].events[0].panels[1].{key}[0].{field}"


def test_duplicate_ids_rejected():
    doc = make_doc()
    twin = AnnotationDoc(
        doc.story_id, (doc.macro_events[0], doc.macro_events[0]), doc.schema_version
    )
    with pytest.raises(DuplicateId):
        parse_annotations(twin.to_json_bytes())

    obj = json.loads(make_doc().to_json_bytes())
    obj["macro_events"][1]["events"][0]["id"] = "e0"
    with pytest.raises(DuplicateId):
        parse_annotations(json.dumps(obj).encode())

    # instance ids are unique across the whole document, not just per panel
    obj = json.loads(make_doc().to_json_bytes())
    obj["macro_events"][0]["events"][0]["panels"][1]["characters"][0]["instance_id"] = "c0"
    with pytest.raises(DuplicateId):
        parse_annotations(json.dumps(obj).encode())


def test_dangling_references_rejected():
    obj = json.loads(make_doc().to_json_bytes())
    obj["macro_events"][0]["events"][0]["panels"][0]["actions"][0]["agent"] = "ghost"
    with pytest.raises(DanglingReference):
        parse_annotations(json.dumps(obj).encode())

    obj = json.loads(make_doc().to_json_bytes())
    obj["macro_events"][0]["events"][0]["panels"][0]["dialogues"][0]["speaker"] = "ghost"
    with pytest.raises(DanglingReference):
        parse_annotations(json.dumps(obj).encode())

    # same-panel rule: c1 exists in the document but not in panel 0_0_0
    obj = json.loads(make_doc().to_json_bytes())
    obj["macro_events"][0]["events"][0]["panels"][0]["actions"][0]["agent"] = "c1"
    with pytest.raises(DanglingReference):
        parse_annotations(json.dumps(obj).encode())


def test_violation_carries_the_exception_parse_raises():
    doc = make_doc()
    twin = AnnotationDoc(doc.story_id, (doc.macro_events[0], doc.macro_events[0]))
    (violation, *_) = validate_annotations(twin)
    assert type(violation.error) is DuplicateId and violation.error.id == "m0"
    assert violation == Violation(violation.path, violation.message)  # error is not compared

    ghost = make_panel(0, 0, 0, 0, dialogues=(DialogueAnn("d0", "hi", speaker="ghost"),))
    doc = AnnotationDoc("s", (MacroEventAnn("m0", "M", (EventAnn("e0", "E", (ghost,)),)),))
    assert [(type(v.error), v.error.id, v.path) for v in validate_annotations(doc)] == [
        (DanglingReference, "ghost", "$.macro_events[0].events[0].panels[0].dialogues[0]")
    ]
    with pytest.raises(DanglingReference, match=r"ghost \(\$\.macro_events\[0\]"):
        parse_annotations(doc.to_json_bytes())

    blank = AnnotationDoc("s", (MacroEventAnn("m0", "M", ()),))
    assert [v.error for v in validate_annotations(blank)] == [None]


def test_action_target_may_be_object_or_character():
    panel = make_panel(
        0,
        0,
        0,
        0,
        actions=(
            ActionAnn("a0", "lift", agent="c0", target="o0"),
            ActionAnn("a0b", "greet", agent="c0", target="c0"),
        ),
    )
    doc = AnnotationDoc("s", (MacroEventAnn("m0", "x", (EventAnn("e0", "y", (panel,)),)),))
    assert validate_annotations(doc) == []


def test_duplicate_reading_order_names_both_panels():
    doc = make_doc()
    bad = parse_annotations(doc.to_json_bytes())  # sanity: template is valid
    assert bad == doc
    obj = json.loads(doc.to_json_bytes())
    obj["macro_events"][1]["events"][0]["panels"][0]["reading_order"] = 0
    rebuilt = json.dumps(obj).encode()
    with pytest.raises(SchemaViolation) as exc:
        parse_annotations(rebuilt)
    assert "0_0_0" in str(exc.value) and "1_0_0" in str(exc.value)


def test_duplicate_storytime_order_rejected():
    obj = json.loads(make_doc().to_json_bytes())
    obj["macro_events"][1]["events"][0]["panels"][0]["storytime_order"] = 1
    with pytest.raises(SchemaViolation):
        parse_annotations(json.dumps(obj).encode())


def test_negative_orders_rejected():
    obj = json.loads(make_doc().to_json_bytes())
    obj["macro_events"][0]["events"][0]["panels"][0]["reading_order"] = -1
    with pytest.raises(SchemaViolation):
        parse_annotations(json.dumps(obj).encode())


def test_panel_id_must_match_position():
    obj = json.loads(make_doc().to_json_bytes())
    obj["macro_events"][0]["events"][0]["panels"][0]["id"] = "7_7_7"
    with pytest.raises(SchemaViolation) as exc:
        parse_annotations(json.dumps(obj).encode())
    assert "0_0_0" in str(exc.value)


def test_empty_labels_rejected():
    obj = json.loads(make_doc().to_json_bytes())
    obj["macro_events"][0]["events"][0]["panels"][0]["actions"][0]["label"] = ""
    with pytest.raises(SchemaViolation):
        parse_annotations(json.dumps(obj).encode())
    obj = json.loads(make_doc().to_json_bytes())
    obj["macro_events"][0]["events"][0]["panels"][0]["dialogues"][0]["text"] = ""
    with pytest.raises(SchemaViolation):
        parse_annotations(json.dumps(obj).encode())


def make_doc_obj(path, key, value):
    """make_doc() as JSON bytes, with the object at `path` given key=value."""
    obj = json.loads(make_doc().to_json_bytes())
    holder = obj
    for step in path:
        holder = holder[step]
    holder[key] = value
    return json.dumps(obj).encode()


# one path per label-bearing tier: macro-event, event, panel content
BLANK_LABEL_PATHS = {
    "macro_event": ("macro_events", 0),
    "event": ("macro_events", 0, "events", 0),
    "panel_action": ("macro_events", 0, "events", 0, "panels", 0, "actions", 0),
    "panel_object": ("macro_events", 0, "events", 0, "panels", 0, "objects", 0),
}


@pytest.mark.parametrize("tier", sorted(BLANK_LABEL_PATHS))
@pytest.mark.parametrize("label", ["", "   ", "\t\n", "_", "_ _", " __\t"])
def test_blank_labels_rejected_at_parse(tier, label):
    raw = make_doc_obj(BLANK_LABEL_PATHS[tier], "label", label)
    with pytest.raises(SchemaViolation, match="label must not be blank"):
        parse_annotations(raw)


def test_ids_share_one_namespace_across_tiers():
    collisions = [
        (("macro_events", 1), "id", "e0"),  # macro-event named like an earlier event
        (("macro_events", 1, "events", 0), "id", "0_0_1"),  # event named like a panel
        (("macro_events", 0, "events", 1), "id", "a0"),  # event named like an action
        (("macro_events", 0), "id", "entity:hero"),  # named like an entity node
        (("macro_events", 0, "events", 0, "panels", 1, "dialogues", 0), "instance_id", "m1"),
    ]
    for path, key, new_id in collisions:
        with pytest.raises(DuplicateId, match=new_id):
            parse_annotations(make_doc_obj(path, key, new_id))
    # the entity id itself, without the node prefix, is free to use
    parse_annotations(make_doc_obj(("macro_events", 0), "id", "hero"))


def test_empty_containers_rejected():
    doc = AnnotationDoc("s", (MacroEventAnn("m0", "x", ()),))
    msgs = [v.message for v in validate_annotations(doc)]
    assert any("at least one event" in m for m in msgs)
    doc = AnnotationDoc("s", (MacroEventAnn("m0", "x", (EventAnn("e0", "y", ()),)),))
    msgs = [v.message for v in validate_annotations(doc)]
    assert any("at least one panel" in m for m in msgs)


def test_validate_collects_all_violations():
    panel_a = make_panel(0, 0, 0, 0, actions=(ActionAnn("a0", "", agent=None),))
    panel_b = make_panel(0, 0, 1, 0, characters=(), dialogues=())  # reading_order clash
    doc = AnnotationDoc(
        "s", (MacroEventAnn("m0", "x", (EventAnn("e0", "y", (panel_a, panel_b)),)),)
    )
    violations = validate_annotations(doc)
    assert len(violations) >= 3  # empty label, duplicate orders, dangling agent on b's action
    assert all(isinstance(v, Violation) for v in violations)
    assert all(v.path.startswith("$.macro_events") for v in violations)


def test_iter_panels_and_count():
    doc = make_doc()
    triples = list(doc.iter_panels())
    assert doc.panel_count() == 4 == len(triples)
    assert [p.id for _, _, p in triples] == ["0_0_0", "0_0_1", "0_1_0", "1_0_0"]
    assert triples[0][0].id == "m0" and triples[0][1].id == "e0"


PANEL = ("macro_events", 0, "events", 0, "panels", 0)
# where make_doc() holds an instance of each annotation class
WIRE_STEPS = {
    AnnotationDoc: (),
    MacroEventAnn: ("macro_events", 0),
    EventAnn: ("macro_events", 0, "events", 0),
    PanelAnn: PANEL,
    CharacterAnn: PANEL + ("characters", 0),
    ObjectAnn: PANEL + ("objects", 0),
    ActionAnn: PANEL + ("actions", 0),
    DialogueAnn: PANEL + ("dialogues", 0),
}
WIRE_FIELDS = [(cls, f) for cls in WIRE_STEPS for f in fields(cls)]
WIRE_IDS = [f"{cls.__name__}.{f.name}" for cls, f in WIRE_FIELDS]


def at(node, steps):
    """The node `steps` leads to, in a JSON object or in an AnnotationDoc."""
    for step in steps:
        node = node[step] if isinstance(node, dict) or isinstance(step, int) else getattr(node, step)
    return node


def json_path(steps, key):
    return "$" + "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in steps) + f".{key}"


@pytest.mark.parametrize("value", [{}, True], ids=repr)
@pytest.mark.parametrize("cls, field", WIRE_FIELDS, ids=WIRE_IDS)
def test_mistyped_field_of_every_tier_names_its_path(cls, field, value):
    obj = json.loads(make_doc().to_json_bytes())
    at(obj, WIRE_STEPS[cls])[field.name] = value
    with pytest.raises(SchemaViolation) as exc:
        parse_annotations(json.dumps(obj).encode())
    assert exc.value.path == json_path(WIRE_STEPS[cls], field.name)


@pytest.mark.parametrize("cls, field", WIRE_FIELDS, ids=WIRE_IDS)
def test_missing_field_of_every_tier_reads_as_its_default(cls, field):
    obj = json.loads(make_doc().to_json_bytes())
    # no references into the panel, so any one content list may go
    for action in at(obj, PANEL)["actions"]:
        action["agent"] = action["target"] = None
    for dialogue in at(obj, PANEL)["dialogues"]:
        dialogue["speaker"] = None
    del at(obj, WIRE_STEPS[cls])[field.name]
    raw = json.dumps(obj).encode()
    if field.default is MISSING or field.name == "schema_version":
        with pytest.raises(SchemaViolation, match="missing required field") as exc:
            parse_annotations(raw)
        assert exc.value.path == json_path(WIRE_STEPS[cls], field.name)
    else:
        assert getattr(at(parse_annotations(raw), WIRE_STEPS[cls]), field.name) == field.default


def eager_read(cls, obj, path):
    """The annotation reader as it was before lazy paths: require() on every
    field, and each nested item's path spelled out before it is read. The
    oracle for annotations._read."""
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
            value = tuple(eager_read(item, v, f"{path}.{key}[{i}]") for i, v in enumerate(value))
        values.append(value)
    return cls(*values)


def read_outcome(read, obj, where):
    """What a reader returns for the document `obj`, or the class, path and
    message of what it raises."""
    try:
        return read(AnnotationDoc, obj, where)
    except SchemaViolation as exc:
        return type(exc), exc.path, str(exc)


def assert_readers_agree(obj):
    assert read_outcome(_read, obj, None) == read_outcome(eager_read, obj, "$")


def wire_objects(node, cls=AnnotationDoc):
    """(object, class) of every annotation object in a JSON document, nested
    tiers included; a part that is no list of objects is not entered."""
    yield node, cls
    for key, _, item, _ in _WIRE[cls]:
        children = node.get(key)
        if item is not None and item is not str and isinstance(children, list):
            for child in children:
                if isinstance(child, dict):
                    yield from wire_objects(child, item)


# a value of each JSON type, and lists that hold a wrong item
WRONG_VALUES = [{}, [], "x", "", 0, 7, -1, 1.5, True, False, [None], [7], ["x"], [{}], [[]]]
FAULT_DOCS = {"mini": make_doc, "battle": lambda: generate_fixture("battle")}


@pytest.mark.parametrize("name", sorted(FAULT_DOCS))
def test_reader_matches_the_eager_oracle_on_single_field_faults(name):
    obj = json.loads(FAULT_DOCS[name]().to_json_bytes())
    by_class = {}
    for node, cls in wire_objects(obj):
        by_class.setdefault(cls, []).append(node)
    assert set(by_class) == set(_WIRE)
    faults = 0
    # the first and the last object of each class: every tier, first and later items
    for cls, nodes in by_class.items():
        for node in nodes[:1] + nodes[1:][-1:]:
            for key in [f.name for f in fields(cls)]:
                original = node.pop(key)
                assert_readers_agree(obj)  # the field deleted
                for value in [None] + WRONG_VALUES:
                    node[key] = value
                    assert_readers_agree(obj)
                    faults += 1
                node[key] = original
    assert faults > 400 and read_outcome(_read, obj, None) == FAULT_DOCS[name]()


def test_reader_matches_the_eager_oracle_on_a_non_object_item():
    obj = json.loads(make_doc().to_json_bytes())
    for node, cls in list(wire_objects(obj)):
        for key, _, item, _ in _WIRE[cls]:
            if item is not None and item is not str:
                for i, child in enumerate(node[key]):
                    for value in [None, 5, "x", [], [child]]:
                        node[key][i] = value
                        assert_readers_agree(obj)
                    node[key][i] = child
    assert_readers_agree([])


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_reader_matches_the_eager_oracle_on_random_faults(data):
    obj = json.loads(make_doc().to_json_bytes())
    for _ in range(data.draw(st.integers(1, 3))):
        node, cls = data.draw(st.sampled_from(list(wire_objects(obj))))
        key = data.draw(st.sampled_from([f.name for f in fields(cls)]))
        if data.draw(st.booleans()):
            node.pop(key, None)
        else:
            node[key] = data.draw(json_values)
        assert_readers_agree(obj)


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_annotations_pauses_and_restores_the_collector(enabled, monkeypatch):
    during = []

    def validate(doc):
        during.append(gc.isenabled())
        return validate_annotations(doc)

    monkeypatch.setattr(annotations, "validate_annotations", validate)
    raw = make_doc().to_json_bytes()
    try:
        if not enabled:
            gc.disable()
        assert parse_annotations(raw) == make_doc()
        assert gc.isenabled() is enabled
        with pytest.raises(SchemaViolation):
            parse_annotations(raw.replace(b'"Departure"', b"7"))
        assert gc.isenabled() is enabled
        with pytest.raises(DuplicateId):  # raised after the reader, by validation
            parse_annotations(raw.replace(b'"e1"', b'"e0"'))
        assert gc.isenabled() is enabled
        assert during == [False, False]
    finally:
        gc.enable()


def test_records_are_slotted_and_keep_their_dataclass_behaviour():
    doc = generate_fixture("battle")
    _, event, panel = next(doc.iter_panels())
    records = [doc, doc.macro_events[0], event, panel, *panel.characters, *panel.actions,
               *panel.dialogues, ObjectAnn("o", "rock"), Violation("$", "bad")]
    assert {type(r) for r in records} >= set(_WIRE) - {ObjectAnn} | {Violation}
    for record in records:
        assert not hasattr(record, "__dict__")
        assert replace(record) == record and hash(replace(record)) == hash(record)
        assert asdict(record) == asdict(replace(record))
    assert parse_annotations(doc.to_json_bytes()) == doc


def json_locations(node, cls=AnnotationDoc, path="$"):
    """(JSON path, object, class) of every annotation object below the
    document, spelled out eagerly, in document order."""
    for key, _, item, _ in _WIRE[cls]:
        if item is not None and item is not str:
            for i, child in enumerate(node[key]):
                yield f"{path}.{key}[{i}]", child, item
                yield from json_locations(child, item, f"{path}.{key}[{i}]")


CONTENT = (CharacterAnn, ObjectAnn, ActionAnn, DialogueAnn)


def no_references(obj):
    for _, node, _ in json_locations(obj):
        for key in ("agent", "target", "speaker"):
            if key in node:
                node[key] = None


def blank_every_label(obj):
    for _, node, _ in json_locations(obj):
        if "label" in node:
            node["label"] = "_"
    return [(path, "label must not be blank") for path, node, _ in json_locations(obj)
            if "label" in node]


def one_instance_id(obj):
    no_references(obj)
    content = [(path, node) for path, node, cls in json_locations(obj) if cls in CONTENT]
    for _, node in content:
        node["instance_id"] = "dup"
    return [(path, "duplicate id: dup") for path, _ in content[1:]]


def dangling_references(obj):
    expected = []
    for path, node, _ in json_locations(obj):
        for key in ("agent", "target", "speaker"):
            if key in node:
                node[key] = "ghost"
                expected.append((path, "dangling reference: ghost"))
    return expected


@pytest.mark.parametrize("fault", [blank_every_label, one_instance_id, dangling_references])
def test_every_violation_names_the_path_of_its_object(fault):
    obj = json.loads(generate_fixture("battle").to_json_bytes())
    expected = fault(obj)
    doc = _read(AnnotationDoc, obj, None)
    found = [(v.path, v.message) for v in validate_annotations(doc)]
    assert len(expected) > 10 and sorted(found) == sorted(expected)
