import csv
import hashlib
import io
import json
import logging
import random
import string
from dataclasses import fields, replace

import pytest

from nkg import resources
from nkg.builder import build_all
from nkg.cli import main
from nkg.embedding import HashedNgramProvider
from nkg.errors import DuplicateElements, EmptyGold, MalformedJson, SchemaViolation
from nkg.evaluation import (
    _ROWS,
    EvalReport,
    GoldReference,
    TaskScore,
    build_gold,
    load_gold_labels,
    ordering_accuracy,
    render_report,
    run_eval,
    set_f1,
    token_f1,
    tokenize,
)
from nkg.fixtures import generate_fixture
from nkg.lexicon import SynonymLexicon
from nkg.normalize import apply_normalization, build_normalization_map
from nkg.reasoner import character_trajectory
from test_shared_views import coverage

HASHED = HashedNgramProvider()
COMBAT = SynonymLexicon.build([["attack", "strike", "fight", "hit"]], {})

BATTLE_GOLD_FILE = json.dumps(
    {
        "action_clusters": {
            "attack": ["attack", "fight", "strike", "hit"],
            "walk": ["walk"],
            "bow": ["bow"],
            "meet": ["meet"],
            "shout": ["shout"],
        }
    }
)


def eval_bundle(kind, lexicon, gold_file=None, **kwargs):
    doc = generate_fixture(kind, **kwargs)
    raw = build_all(doc)
    gold_labels = set(load_gold_labels(gold_file)) if gold_file else None
    norm_map = build_normalization_map(doc, HASHED, lexicon, 0.75, gold_labels=gold_labels)
    norm = apply_normalization(raw, norm_map)
    gold = build_gold(doc, gold_label_file=gold_file)
    return doc, raw, norm, norm_map, gold


# --- set_f1 -------------------------------------------------------------------


def test_set_f1_examples():
    assert set_f1({"a", "b"}, {"a", "b"}) == (1.0, 1.0, 1.0)
    assert set_f1({"a", "b", "c"}, {"b", "c", "d"}) == (2 / 3, 2 / 3, 2 / 3)
    assert set_f1({"a"}, {"b"}) == (0.0, 0.0, 0.0)
    assert set_f1(set(), {"a"}) == (0.0, 0.0, 0.0)


def test_set_f1_empty_gold_warns(caplog):
    with caplog.at_level(logging.WARNING):
        assert set_f1({"a"}, set()) == (0.0, 0.0, 0.0)
    assert any("empty gold" in r.message for r in caplog.records)


def test_set_f1_properties():
    rng = random.Random(5)
    universe = list(string.ascii_lowercase)
    for _ in range(100):
        a = set(rng.sample(universe, rng.randint(1, 10)))
        b = set(rng.sample(universe, rng.randint(1, 10)))
        pa, ra, fa = set_f1(a, b)
        pb, rb, fb = set_f1(b, a)
        assert fa == fb and pa == rb and ra == pb
        assert 0.0 <= fa <= max(pa, ra) <= 1.0
        assert set_f1(a, a) == (1.0, 1.0, 1.0)


# --- token_f1 -----------------------------------------------------------------


def test_token_f1_examples():
    assert token_f1(["hello there"], ["hello there"]) == (1.0, 1.0, 1.0)
    assert token_f1(["hello there"], ["hello world"]) == (0.5, 0.5, 0.5)
    assert token_f1(["Hello, world!"], ["hello world"]) == (1.0, 1.0, 1.0)
    assert token_f1([], []) == (1.0, 1.0, 1.0)
    assert token_f1(["a"], []) == (0.0, 0.0, 0.0)
    assert token_f1([], ["a"]) == (0.0, 0.0, 0.0)


def token_overlap_oracle(pred_spans, gold_spans):
    """Counts overlap by removing matched tokens from a mutable list."""
    pred = [t for s in pred_spans for t in tokenize(s)]
    gold = [t for s in gold_spans for t in tokenize(s)]
    pool = list(gold)
    overlap = 0
    for token in pred:
        if token in pool:
            pool.remove(token)
            overlap += 1
    return overlap, len(pred), len(gold)


def test_token_f1_matches_counting_oracle():
    rng = random.Random(11)
    vocab = ["go", "stop", "cart", "now", "the", "a", "run!", "Wait,"]
    for _ in range(100):
        pred = [" ".join(rng.choices(vocab, k=rng.randint(0, 6))) for _ in range(rng.randint(0, 3))]
        gold = [" ".join(rng.choices(vocab, k=rng.randint(0, 6))) for _ in range(rng.randint(0, 3))]
        overlap, np, ng = token_overlap_oracle(pred, gold)
        p, r, f1 = token_f1(pred, gold)
        if np == 0 and ng == 0:
            assert (p, r, f1) == (1.0, 1.0, 1.0)
        elif np == 0 or ng == 0:
            assert (p, r, f1) == (0.0, 0.0, 0.0)
        else:
            assert p == overlap / np
            assert r == overlap / ng
            assert f1 == (2 * overlap / (np + ng) if overlap else 0.0)


# --- coverage -----------------------------------------------------------------


def test_coverage_examples():
    assert coverage({"a", "b", "c"}, {"a", "b"}) == 1.0
    assert coverage({"x"}, {"a", "b"}) == 0.0
    assert coverage({"a"}, {"a", "b"}) == 0.5
    with pytest.raises(EmptyGold):
        coverage({"a"}, set())


def test_charA_coverage_is_full():
    doc = generate_fixture("battle")
    graph = build_all(doc)
    gold = build_gold(doc)
    predicted = set(character_trajectory(graph, "charA").panel_ids)
    assert len(gold.trajectory_gold["charA"]) == 12
    assert coverage(predicted, gold.trajectory_gold["charA"]) == 1.0


# --- ordering accuracy --------------------------------------------------------


def ordering_oracle(predicted, gold):
    shared = [x for x in gold if x in predicted]
    if len(shared) < 2:
        if len(shared) == 1 or (not predicted and not gold):
            return 1.0
        return 0.0
    concordant = total = 0
    for i, a in enumerate(shared):
        for b in shared[i + 1:]:
            total += 1
            if predicted.index(a) < predicted.index(b):
                concordant += 1
    return concordant / total


def test_ordering_examples():
    assert ordering_accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert ordering_accuracy([4, 3, 2, 1], [1, 2, 3, 4]) == 0.0
    assert ordering_accuracy([1, 3, 2], [1, 2, 3]) == 2 / 3
    assert ordering_accuracy([], []) == 1.0
    assert ordering_accuracy([1], [1]) == 1.0
    assert ordering_accuracy([1], [2]) == 0.0
    with pytest.raises(DuplicateElements):
        ordering_accuracy([1, 1], [1, 2])
    with pytest.raises(DuplicateElements):
        ordering_accuracy([1, 2], [2, 2])


def test_ordering_matches_pair_counting_oracle():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(0, 20)
        gold = list(range(n))
        predicted = rng.sample(gold, rng.randint(0, n)) if n else []
        extra = [f"x{i}" for i in range(rng.randint(0, 3))]
        predicted = predicted + extra
        rng.shuffle(predicted)
        assert ordering_accuracy(predicted, gold) == ordering_oracle(predicted, gold)


def test_ordering_relabel_invariance():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(2, 12)
        gold = list(range(n))
        predicted = rng.sample(gold, n)
        relabel = {i: f"node-{i * 7}" for i in gold}
        assert ordering_accuracy(predicted, gold) == ordering_accuracy(
            [relabel[x] for x in predicted], [relabel[x] for x in gold]
        )


# --- gold building ------------------------------------------------------------


def test_build_gold_structure():
    doc = generate_fixture("romance")
    gold = build_gold(doc)
    macro = next(m for m in doc.macro_events if m.label == "Think of family")
    assert len(gold.summary_gold[macro.id]) == 4
    for m in doc.macro_events:
        want = sorted(
            (p.id for e in m.events for p in e.panels),
            key=lambda pid: next(
                p.reading_order for _, _, p in doc.iter_panels() if p.id == pid
            ),
        )
        assert list(gold.order_gold[m.id]) == want
    total_dialogues = sum(len(v) for v in gold.dialogue_gold.values())
    assert total_dialogues == sum(len(p.dialogues) for _, _, p in doc.iter_panels())


def test_build_gold_without_characters():
    from nkg.annotations import parse_annotations

    doc = parse_annotations(
        json.dumps(
            {
                "schema_version": 1,
                "story_id": "s",
                "macro_events": [
                    {
                        "id": "m0",
                        "label": "L",
                        "events": [
                            {
                                "id": "e0_0",
                                "label": "E",
                                "panels": [
                                    {"id": "0_0_0", "reading_order": 0, "storytime_order": 0}
                                ],
                            }
                        ],
                    }
                ],
            }
        )
    )
    gold = build_gold(doc)
    assert gold.trajectory_gold == {}
    assert gold.action_clusters == {}


def test_gold_label_file_precedence():
    doc = generate_fixture("battle")
    from_file = build_gold(doc, gold_label_file=BATTLE_GOLD_FILE)
    assert from_file.action_clusters["attack"] == frozenset(
        {"attack", "fight", "strike", "hit"}
    )
    norm_map = build_normalization_map(doc, HASHED, COMBAT, 0.75)
    from_map = build_gold(doc, normalization_map=norm_map)
    merged = next(c for c in norm_map.clusters if "fight" in c.members)
    assert from_map.action_clusters[merged.canonical] == frozenset(merged.members)
    singletons = build_gold(doc)
    assert singletons.action_clusters["fight"] == frozenset({"fight"})


def test_gold_label_file_rejects():
    with pytest.raises(MalformedJson):
        load_gold_labels(b"{")
    with pytest.raises(SchemaViolation):
        load_gold_labels(json.dumps({"clusters": {}}))
    with pytest.raises(SchemaViolation):
        load_gold_labels(json.dumps({"action_clusters": {"a": "b"}}))


@pytest.mark.parametrize(
    "clusters, path",
    [
        ({"attack": ["", "fight"]}, "$.action_clusters['attack']"),
        ({"attack": ["fight"], "hit": ["hit", "_"]}, "$.action_clusters['hit']"),
        ({"attack": ["fight"], " _": ["hit"]}, "$.action_clusters[' _']"),
        ({"attack": ["fight", 3]}, "$.action_clusters['attack']"),
    ],
)
def test_gold_label_file_rejects_blank_labels(clusters, path):
    with pytest.raises(SchemaViolation) as info:
        load_gold_labels(json.dumps({"action_clusters": clusters}))
    assert info.value.path == path


@pytest.mark.parametrize(
    "clusters, path, label",
    [
        # one member in two clusters
        (
            {"attack": ["fight", "strike"], "hit": ["strike", "hit"]},
            "$.action_clusters['hit']",
            "strike",
        ),
        # a canonical is a member of its own cluster, so it may not join another
        ({"attack": ["fight"], "fight": ["brawl"]}, "$.action_clusters['fight']", "fight"),
        ({"fight": ["brawl"], "attack": ["fight"]}, "$.action_clusters['attack']", "fight"),
    ],
)
def test_gold_label_file_rejects_overlapping_clusters(clusters, path, label):
    with pytest.raises(SchemaViolation) as info:
        load_gold_labels(json.dumps({"action_clusters": clusters}))
    assert info.value.path == path
    assert repr(label) in info.value.reason


def test_gold_label_file_keeps_a_canonical_listed_in_its_own_members():
    clusters = load_gold_labels(json.dumps({"action_clusters": {"attack": ["attack", "hit"]}}))
    assert clusters == {"attack": frozenset({"attack", "hit"})}


# --- run_eval -----------------------------------------------------------------


def rows_by(report, task, variant):
    return {
        r.macro_event_id: r for r in report.rows if r.task == task and r.variant == variant
    }


def test_perfect_information_scores():
    for kind, kwargs in (
        ("battle", {}),
        ("romance", {}),
        ("noise", {"seed": 0, "variance": 0.7}),
        ("noise", {"seed": 5, "variance": 0.2}),
    ):
        doc, raw, norm, norm_map, gold = eval_bundle(kind, COMBAT, **kwargs)
        report = run_eval(doc, raw, norm, gold, norm_map=norm_map)
        for task in ("T2", "T3", "T4", "T5"):
            for row in rows_by(report, task, "raw").values():
                assert row.f1 == 1.0, (kind, kwargs, task, row)


def test_romance_degradation():
    doc, raw, norm, norm_map, gold = eval_bundle("romance", SynonymLexicon.empty())
    report = run_eval(doc, raw, norm, gold, norm_map=norm_map)
    macro = next(m for m in doc.macro_events if m.label == "Think of family")
    raw_rows = rows_by(report, "T1", "raw")
    norm_rows = rows_by(report, "T1", "normalized")
    assert norm_rows[macro.id].f1 < raw_rows[macro.id].f1
    assert raw_rows[macro.id].f1 == 1.0
    assert norm_rows[macro.id].f1 == pytest.approx(8 / 9)


def test_battle_equality():
    doc, raw, norm, norm_map, gold = eval_bundle(
        "battle", COMBAT, gold_file=BATTLE_GOLD_FILE
    )
    report = run_eval(doc, raw, norm, gold, norm_map=norm_map)
    raw_rows = rows_by(report, "T1", "raw")
    norm_rows = rows_by(report, "T1", "normalized")
    assert set(raw_rows) == set(norm_rows) == {m.id for m in doc.macro_events}
    for macro_id, row in raw_rows.items():
        assert norm_rows[macro_id].f1 == row.f1


def test_gold_cluster_without_instances_leaves_the_report_unchanged():
    doc, raw, norm, norm_map, gold = eval_bundle("battle", COMBAT, gold_file=BATTLE_GOLD_FILE)
    report = run_eval(doc, raw, norm, gold, norm_map=norm_map)
    clusters = {**json.loads(BATTLE_GOLD_FILE)["action_clusters"], "somersault": ["cartwheel"]}
    extra = build_gold(doc, gold_label_file=json.dumps({"action_clusters": clusters}))
    assert "somersault" in extra.action_clusters
    again = run_eval(doc, raw, norm, extra, norm_map=norm_map)
    assert again.rows == report.rows
    assert again.to_json_bytes() == report.to_json_bytes()


def test_report_shape_and_determinism():
    doc, raw, norm, norm_map, gold = eval_bundle("romance", COMBAT)
    report = run_eval(doc, raw, norm, gold, norm_map=norm_map)
    n_macros = len(doc.macro_events)
    # T1 twice per macro, T2..T5 once
    assert len(report.rows) == n_macros * 6
    again = run_eval(doc, raw, norm, gold, norm_map=norm_map)
    assert report.to_json_bytes() == again.to_json_bytes()


def test_report_metadata_echo():
    doc, raw, norm, norm_map, gold = eval_bundle("battle", COMBAT)
    report = run_eval(doc, raw, norm, gold, norm_map=norm_map)
    assert report.metadata["threshold"] == 0.75
    assert report.metadata["provider_id"].startswith("hashed:")
    assert report.metadata["action_cluster_count"] >= 1
    assert report.metadata["ordering_metric"] == "pairwise_concordance"
    assert report.metadata["macro_event_labels"]["m3"] == "Monster intro"


@pytest.mark.parametrize("with_gold", (False, True))
@pytest.mark.parametrize("kind", ("battle", "romance"))
def test_report_rows_follow_one_order(kind, with_gold):
    assert _ROWS == (
        ("T1", "raw"),
        ("T1", "normalized"),
        ("T2", "raw"),
        ("T3", "raw"),
        ("T4", "raw"),
        ("T5", "raw"),
    )
    gold_file = resources.gold_labels_bytes(kind) if with_gold else None
    doc, raw, norm, norm_map, gold = eval_bundle(kind, COMBAT, gold_file=gold_file)
    report = run_eval(doc, raw, norm, gold, norm_map=norm_map)
    got = [(r.macro_event_id, r.task, r.variant) for r in report.rows]
    assert got == [(macro.id, *row) for macro in doc.macro_events for row in _ROWS]


def with_panels_cleared(doc, macro_id, **empty):
    """`doc` with the fields in `empty` set on every panel of one macro-event."""
    macro_events = tuple(
        replace(
            macro,
            events=tuple(
                replace(event, panels=tuple(replace(p, **empty) for p in event.panels))
                for event in macro.events
            ),
        )
        if macro.id == macro_id
        else macro
        for macro in doc.macro_events
    )
    return replace(doc, macro_events=macro_events)


def test_a_task_with_no_unit_in_a_macro_event_reads_zero():
    doc = generate_fixture("battle")
    # m0 keeps its actions but loses its dialogue; m1 keeps its dialogue but
    # loses its actions, so no gold cluster has an instance there
    doc = with_panels_cleared(with_panels_cleared(doc, "m0", dialogues=()), "m1", actions=())
    raw = build_all(doc)
    norm_map = build_normalization_map(doc, HASHED, COMBAT, 0.75)
    norm = apply_normalization(raw, norm_map)
    for gold in (build_gold(doc), build_gold(doc, gold_label_file=BATTLE_GOLD_FILE)):
        rows = {
            (r.macro_event_id, r.task, r.variant): (r.precision, r.recall, r.f1)
            for r in run_eval(doc, raw, norm, gold, norm_map=norm_map).rows
        }
        zero = (0.0, 0.0, 0.0)
        assert rows["m0", "T2", "raw"] == zero
        assert rows["m1", "T1", "raw"] == rows["m1", "T1", "normalized"] == zero
        # the other tasks there still have units and score them
        assert rows["m0", "T1", "raw"] == rows["m1", "T2", "raw"] == (1.0, 1.0, 1.0)


# --- rendering ----------------------------------------------------------------



def test_json_csv_round_trip_exact():
    doc, raw, norm, norm_map, gold = eval_bundle("romance", SynonymLexicon.empty())
    report = run_eval(doc, raw, norm, gold, norm_map=norm_map)
    payload = json.loads(render_report(report, "json"))
    reader = csv.DictReader(io.StringIO(render_report(report, "csv").decode()))
    csv_rows = list(reader)
    assert len(csv_rows) == len(payload["rows"])
    for got, want in zip(csv_rows, payload["rows"]):
        assert got["task"] == want["task"]
        assert got["macro_event_id"] == want["macro_event_id"]
        assert got["variant"] == want["variant"]
        for field in ("precision", "recall", "f1"):
            assert float(got[field]) == want[field]


def test_csv_header_and_row_keys_are_the_task_score_fields():
    doc, raw, norm, norm_map, gold = eval_bundle("romance", SynonymLexicon.empty())
    report = run_eval(doc, raw, norm, gold, norm_map=norm_map)
    names = [f.name for f in fields(TaskScore)]
    header = render_report(report, "csv").decode().splitlines()[0]
    assert header.split(",") == names == [
        "task", "macro_event_id", "variant", "precision", "recall", "f1"
    ]
    assert list(report.rows[0].as_dict()) == names
    assert sorted(json.loads(render_report(report, "json"))["rows"][0]) == sorted(names)


def test_markdown_layout():
    doc, raw, norm, norm_map, gold = eval_bundle("romance", COMBAT)
    report = run_eval(doc, raw, norm, gold, norm_map=norm_map)
    lines = render_report(report, "markdown").decode().splitlines()
    assert lines[0] == "| macro-event | T1 raw | T1 norm | T2 | T3 | T5 |"
    data = lines[2:]
    assert len(data) == 3
    labels = [line.split("|")[1].strip() for line in data]
    assert labels == ["Message from family", "Shock by message", "Think of family"]
    for line in data:
        cells = [c.strip() for c in line.strip("|").split("|")]
        assert len(cells) == 6
    assert render_report(report, "md") == render_report(report, "markdown")


def test_markdown_label_cell_escapes_bars_and_line_breaks():
    doc = generate_fixture("romance")
    first, *rest = doc.macro_events
    doc = replace(doc, macro_events=(replace(first, label="Letter | news\nfrom home"), *rest))
    raw = build_all(doc)
    norm_map = build_normalization_map(doc, HASHED, COMBAT, 0.75)
    norm = apply_normalization(raw, norm_map)
    report = run_eval(doc, raw, norm, build_gold(doc), norm_map=norm_map)
    lines = render_report(report, "md").decode().splitlines()
    assert len(lines) == 2 + len(doc.macro_events)
    assert lines[2].startswith("| Letter \\| news from home | ")
    for line in lines:
        assert line.replace("\\|", "").count("|") == 7


def test_markdown_empty_report():
    report = EvalReport("empty", ())
    lines = render_report(report, "markdown").decode().splitlines()
    assert len(lines) == 2 and lines[0].startswith("| macro-event")


def test_plotdata_layout():
    doc, raw, norm, norm_map, gold = eval_bundle("battle", COMBAT)
    report = run_eval(doc, raw, norm, gold, norm_map=norm_map)
    reader = csv.reader(io.StringIO(render_report(report, "plotdata").decode()))
    rows = list(reader)
    assert rows[0] == ["macro_event", "task", "variant", "f1"]
    assert len(rows) == len(report.rows) + 1
    for cells, row in zip(rows[1:], report.rows):
        assert cells[:3] == [row.macro_event_id, row.task, row.variant]
        assert float(cells[3]) == row.f1


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render_report(EvalReport("s", ()), "xml")


# --- pinned report bytes ------------------------------------------------------


def noise_gold_bytes(doc) -> bytes:
    """A gold file for a noise story that splits what the map merges: every
    action label is its own cluster, so inflections count as different actions."""
    labels = sorted({a.label for _, _, p in doc.iter_panels() for a in p.actions})
    return json.dumps({"action_clusters": {label: [label] for label in labels}}).encode()


# SHA-256 of the `nkg eval` json report, keyed by (fixture, seed, variance,
# with a gold file); recorded before the reasoner's action index replaced
# the per-query scans, so report bytes must not change without a reason on
# record
EVAL_REPORT_DIGESTS = {
    ("battle", 0, 0.0, False): "0d8370a6fb8df438d27b6247a24fb125f080151ce371fccaa0ac4d424f1ca094",
    ("battle", 0, 0.0, True): "0d8370a6fb8df438d27b6247a24fb125f080151ce371fccaa0ac4d424f1ca094",
    ("romance", 0, 0.0, False): "9d7393f1da978aaf9dae46f013afd9e55f878de124ee218eef22344364e29dea",
    ("romance", 0, 0.0, True): "c140693d37f4a5dfcb14c1ecb2e8c623142ff50a3da1bf6e88187d0e5cb9f1b2",
    ("noise", 0, 0.0, False): "13105206de0ffa2f3140047a2c81d889cbc3c580c3b974e66e0f8ee7ecccfbe8",
    ("noise", 0, 0.0, True): "13105206de0ffa2f3140047a2c81d889cbc3c580c3b974e66e0f8ee7ecccfbe8",
    ("noise", 0, 0.6, False): "09caa5ff8241badd8b3fee8a3b6b0df4e80805dae5ead975342fefc75c8050fa",
    ("noise", 0, 0.6, True): "09caa5ff8241badd8b3fee8a3b6b0df4e80805dae5ead975342fefc75c8050fa",
    ("noise", 1, 0.0, False): "5fc02c6dfa8e13b0b9952dafbb461adf82e609bbfde9cf4b4580eb1d6aebcd0a",
    ("noise", 1, 0.0, True): "5fc02c6dfa8e13b0b9952dafbb461adf82e609bbfde9cf4b4580eb1d6aebcd0a",
    ("noise", 1, 0.6, False): "d6caf9b760aa61954732a88eaa4299f435bdc653f99e142c2a505e9610e31b6b",
    ("noise", 1, 0.6, True): "8b844351daf273d4b03f67a8b89ff589545b2978137f8a9f480534b736d29fa3",
    ("noise", 2, 0.0, False): "80ceb30d0be45c5f67563c96f9a4b6cc91dfa8ed940b9bb9c08d202c3ab9b66d",
    ("noise", 2, 0.0, True): "80ceb30d0be45c5f67563c96f9a4b6cc91dfa8ed940b9bb9c08d202c3ab9b66d",
    ("noise", 2, 0.6, False): "80ceb30d0be45c5f67563c96f9a4b6cc91dfa8ed940b9bb9c08d202c3ab9b66d",
    ("noise", 2, 0.6, True): "80ceb30d0be45c5f67563c96f9a4b6cc91dfa8ed940b9bb9c08d202c3ab9b66d",
    ("noise", 3, 0.0, False): "16d727ed69cadc97f126863b0007a105cc24c66faaac075496599efb705d26b2",
    ("noise", 3, 0.0, True): "16d727ed69cadc97f126863b0007a105cc24c66faaac075496599efb705d26b2",
    ("noise", 3, 0.6, False): "e8083cfe7aa91c1b8963ca0f17ee664e4e5a6d87c05d33e6cde4046c5732a6ab",
    ("noise", 3, 0.6, True): "1161ead953548c4ba76a431af8f75dfe66ef41fbb65dd5ce12cc14c387e869c3",
}
EVAL_STORIES = [("battle", 0, 0.0), ("romance", 0, 0.0)] + [
    ("noise", seed, variance) for seed in range(4) for variance in (0.0, 0.6)
]


def eval_report_digest(tmp_path, kind, seed, variance, with_gold):
    doc = generate_fixture(kind, seed=seed, variance=variance)
    doc_path = tmp_path / "doc.json"
    doc_path.write_bytes(doc.to_json_bytes())
    argv = ["eval", "--input", str(doc_path), "--output", str(tmp_path / "report.json")]
    if with_gold:
        gold_path = tmp_path / "gold.json"
        gold_path.write_bytes(
            resources.gold_labels_bytes(kind) if kind != "noise" else noise_gold_bytes(doc)
        )
        argv += ["--gold", str(gold_path)]
    assert main(argv) == 0
    return hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("kind,seed,variance", EVAL_STORIES)
# each id keeps the leading "False-" it had when a second bool led the key
@pytest.mark.parametrize("with_gold", (False, True), ids=lambda with_gold: f"False-{with_gold}")
def test_eval_report_bytes_match_pinned_digest(tmp_path, kind, seed, variance, with_gold):
    key = (kind, seed, variance, with_gold)
    digest = eval_report_digest(tmp_path, *key)
    assert digest == EVAL_REPORT_DIGESTS[key]


# --- the report writer against json.dumps ------------------------------------


def dumped_report(report):
    """The report's bytes as json.dumps lays them out: the writer's oracle."""
    payload = {
        "schema_version": 1,
        "story_id": report.story_id,
        "metadata": report.metadata,
        "rows": [row.as_dict() for row in report.rows],
    }
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


@pytest.mark.parametrize("kind,seed,variance", EVAL_STORIES)
def test_report_writer_bytes_equal_json_dumps(kind, seed, variance):
    doc = generate_fixture(kind, seed=seed, variance=variance)
    raw = build_all(doc)
    norm_map = build_normalization_map(doc, HASHED, COMBAT, 0.75)
    norm = apply_normalization(raw, norm_map)
    gold = build_gold(doc, normalization_map=norm_map)
    report = run_eval(doc, raw, norm, gold, norm_map=norm_map)
    assert report.to_json_bytes() == dumped_report(report)


@pytest.mark.parametrize(
    "report",
    [
        EvalReport("s", ()),
        EvalReport("", (), {}),
        EvalReport(
            'st\u00f6ry "\\ 1\n',
            (
                TaskScore("T1", "m\u00e9\t0", "raw", 0.1 + 0.2, 2 / 3, 1e-17),
                TaskScore("T2", "m1", "normalized", float("nan"), float("inf"), -float("inf")),
                TaskScore("T3", "m2", "raw", 1, True, None),
                TaskScore("T4", "m3", "raw", -0.0, 1e300, 5e-324),
            ),
            {
                "macro_event_labels": {"m\u00e9\t0": 'a "b"\n\u2713', "m1": ""},
                "nested": [[], {}, [1, {"k": [2.5]}]],
                "threshold": 0.75,
            },
        ),
    ],
    ids=["empty", "no-story-id", "escapes-and-odd-values"],
)
def test_report_writer_bytes_equal_json_dumps_on_odd_reports(report):
    assert report.to_json_bytes() == dumped_report(report)
