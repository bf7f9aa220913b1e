import hashlib

import pytest

from nkg.annotations import parse_annotations, validate_annotations
from nkg.fixtures import generate_fixture


def test_all_kinds_validate_and_round_trip():
    for kind in ("battle", "romance", "noise"):
        doc = generate_fixture(kind, seed=3, variance=0.5)
        assert validate_annotations(doc) == []
        assert parse_annotations(doc.to_json_bytes()) == doc


# SHA-256 of each fixture document's canonical bytes, which `nkg fixture` prints
DOC_DIGESTS = {
    ("battle", 0, 0.0): "33320adc5540f8dec21950a9163538180b491eae42eca702d52f6648356a4734",
    ("romance", 0, 0.0): "acbfe4743b2de0740fcc489510169fbcf412c2b51fb6ccd7daeb2f45c1632f63",
    ("noise", 0, 0.0): "070ec750e8f08a24ee2057db5a12b1151a7388cfd9a2b622fc9664479720c6ee",
    ("noise", 0, 0.6): "872dc7d2145441171b65dc2eb1014932896cf54d99ae68ee2adbd6b2f809f3ab",
    ("noise", 1, 0.0): "58bb776f9656882ccc444d62ba38f77436f48c1192ce0f50561b35bacee18c48",
    ("noise", 1, 0.6): "4e8c6d3e2f1b747c86189e093f4162263355f670bf853639a3de6e393ebc2ed8",
    ("noise", 2, 0.0): "ac095a736cd1639563b54ffb838c854bb45154ed4b3f825edcf2cf6e99a90f39",
    ("noise", 2, 0.6): "f84be08a5a1c176a78fa2413693b8eda789c89efbef8bfd46ddb46627e893338",
    ("noise", 3, 0.0): "d07a1ec8123c46dc3abd7661a1821c77ca560c53b4702e3c4c2d54f7c38a7e53",
    ("noise", 3, 0.6): "a01685e6a174ab8a1c2574c910d1b9ec0b6170d0abe93caa486498c0d65234d8",
}


@pytest.mark.parametrize("kind,seed,variance", sorted(DOC_DIGESTS))
def test_document_bytes_match_pinned_digest(kind, seed, variance):
    doc = generate_fixture(kind, seed=seed, variance=variance)
    assert hashlib.sha256(doc.to_json_bytes()).hexdigest() == DOC_DIGESTS[(kind, seed, variance)]


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        generate_fixture("western")
    with pytest.raises(ValueError):
        generate_fixture("noise", seed=1, variance=1.5)


def test_battle_macro_labels():
    doc = generate_fixture("battle")
    assert [m.label for m in doc.macro_events] == [
        "Intro to timeline",
        "Intro main character",
        "Intro second character",
        "Monster intro",
        "Street accident",
        "Meet characters",
        "Formal monster intro",
    ]


def test_battle_shape():
    doc = generate_fixture("battle")
    assert doc.story_id == "battle"
    assert doc.panel_count() == 28
    # orders follow document position and storytime matches reading throughout
    for n, (_, _, panel) in enumerate(doc.iter_panels()):
        assert panel.reading_order == n
        assert panel.storytime_order == n
    first = doc.macro_events[0]
    assert [p.id for e in first.events for p in e.panels] == [
        "0_0_0", "0_0_1", "0_1_0", "0_1_1", "0_2_0", "0_2_1", "0_2_2", "0_2_3",
    ]


def test_battle_charA_appearances():
    doc = generate_fixture("battle")
    panels, events, macros = set(), set(), set()
    for macro, event, panel in doc.iter_panels():
        if any(c.entity_id == "charA" for c in panel.characters):
            panels.add(panel.id)
            events.add(event.id)
            macros.add(macro.id)
    assert len(panels) == 12
    assert len(events) == 4
    assert len(macros) == 2


def test_battle_attack_variants_in_three_panels():
    doc = generate_fixture("battle")
    where = {}
    for _, _, panel in doc.iter_panels():
        for action in panel.actions:
            where.setdefault(action.label, []).append(panel.id)
    assert sorted(where["fight"] + where["strike"] + where["hit"]) == [
        "1_0_0", "3_1_1", "4_0_0",
    ]
    assert "attack" not in where  # only the variants appear on the surface


def test_battle_monster_intro_dialogue():
    doc = generate_fixture("battle")
    event = next(
        e for m in doc.macro_events for e in m.events if e.label == "Monster intro"
    )
    dialogues = [(p.id, d) for p in event.panels for d in p.dialogues]
    assert len(dialogues) == 4
    assert len({pid for pid, _ in dialogues}) == 3
    speakers = set()
    for p in event.panels:
        by_instance = {c.instance_id: c.entity_id for c in p.characters}
        speakers.update(by_instance[d.speaker] for d in p.dialogues if d.speaker)
    assert speakers == {"charA", "monster"}


def test_every_event_carries_dialogue():
    # eval protocol relies on no dialogue-free events in the shipped stories
    for kind in ("battle", "romance"):
        doc = generate_fixture(kind)
        for macro in doc.macro_events:
            for event in macro.events:
                assert any(p.dialogues for p in event.panels), event.id


def test_romance_subevents():
    doc = generate_fixture("romance")
    assert [m.label for m in doc.macro_events] == [
        "Message from family",
        "Shock by message",
        "Think of family",
    ]
    think = doc.macro_events[2]
    assert [e.label for e in think.events] == [
        "Intro",
        "Get new rice cooker",
        "Test new rice cooker",
        "Eat and think of family",
    ]


def test_romance_label_mismatch_in_distinct_panels():
    doc = generate_fixture("romance")
    panels = {}
    for _, _, panel in doc.iter_panels():
        for action in panel.actions:
            panels.setdefault(action.label, set()).add(panel.id)
    assert panels["insert"] and panels["insert_into"]
    assert panels["insert"].isdisjoint(panels["insert_into"])


def test_noise_determinism():
    a = generate_fixture("noise", seed=1, variance=0.0)
    b = generate_fixture("noise", seed=1, variance=0.0)
    assert a.to_json_bytes() == b.to_json_bytes()
    c = generate_fixture("noise", seed=2, variance=0.0)
    assert c.to_json_bytes() != a.to_json_bytes()


def test_noise_validates_across_settings():
    for seed in range(8):
        for variance in (0.0, 0.3, 0.7, 1.0):
            doc = generate_fixture("noise", seed=seed, variance=variance)
            assert validate_annotations(doc) == [], (seed, variance)


def test_noise_variance_drives_storytime_divergence():
    calm = generate_fixture("noise", seed=5, variance=0.0)
    assert all(p.reading_order == p.storytime_order for _, _, p in calm.iter_panels())
    diverged = 0
    for seed in range(8):
        wild = generate_fixture("noise", seed=seed, variance=1.0)
        if any(p.reading_order != p.storytime_order for _, _, p in wild.iter_panels()):
            diverged += 1
    assert diverged >= 6  # transpositions can cancel, but rarely


def test_noise_inflections_appear_under_high_variance():
    seen = set()
    for seed in range(6):
        doc = generate_fixture("noise", seed=seed, variance=1.0)
        for _, _, panel in doc.iter_panels():
            seen.update(a.label for a in panel.actions)
    assert any(label.endswith(("s", "ing", "ed")) for label in seen)
