import json
import random

import pytest

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
    parse_annotations,
    validate_annotations,
)
from nkg.errors import DanglingReference, DuplicateId, MalformedJson, SchemaViolation


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
