"""Acceptance gate: one test per release criterion.

Run with -v to get one pass/fail line per criterion:

    python3 -m pytest tests/test_acceptance.py -v

Criteria (all exact unless stated):
  1  story-fixture replication of the five worked examples
  2  clustering equals a BFS connected-components oracle, 200 random trials
  3  threshold monotonicity and refinement, 50 random label sets
  4  normalization preserves topology and is idempotent on all fixtures
  5  degradation direction: romance T1 drops under normalization, battle ties
  6  metric correctness against independent counting oracles
  7  serialization stability (build -> bytes -> parse -> bytes) on all fixtures
  8  perfect-information sanity: T3/T4 score 1.0 on every fixture
"""

import itertools
import json
import random
import string

import numpy as np

from nkg import resources
from nkg.builder import build_all
from nkg.embedding import HashedNgramProvider, VectorFileProvider
from nkg.evaluation import (
    build_gold,
    ordering_accuracy,
    run_eval,
    set_f1,
    token_f1,
    tokenize,
)
from nkg.fixtures import generate_fixture
from nkg.graph import deserialize
from nkg.lexicon import SynonymLexicon
from nkg.normalize import (
    apply_normalization,
    build_normalization_map,
    cluster_labels,
    linked,
)
from nkg.reasoner import (
    character_trajectory,
    reconstruct_timeline,
    retrieve_actions,
    summarize_event,
    trace_dialogue,
)
from test_shared_views import coverage

HASHED = HashedNgramProvider()


def all_fixtures():
    """The fixture matrix every whole-corpus criterion runs over."""
    yield "battle", generate_fixture("battle")
    yield "romance", generate_fixture("romance")
    for seed, variance in ((0, 0.0), (1, 0.3), (2, 0.6), (3, 1.0)):
        yield f"noise[{seed},{variance}]", generate_fixture(
            "noise", seed=seed, variance=variance
        )


def normalized_battle():
    doc = generate_fixture("battle")
    raw = build_all(doc)
    gold_labels = set(
        json.loads(resources.gold_labels_bytes("battle"))["action_clusters"]
    )
    norm_map = build_normalization_map(
        doc, HASHED, resources.default_lexicon(), 0.75, gold_labels=gold_labels
    )
    return doc, raw, apply_normalization(raw, norm_map), norm_map


def test_criterion_1_fixture_replication():
    doc, raw, norm, norm_map = normalized_battle()
    gold = build_gold(doc, gold_label_file=resources.gold_labels_bytes("battle"))

    hits = retrieve_actions(norm, "attack", "normalized", norm_map=norm_map)
    assert [h.panel_id for h in hits] == ["1_0_0", "3_1_1", "4_0_0"]
    assert [h.surface_label for h in hits] == ["fight", "strike", "hit"]

    trace = trace_dialogue(raw, "e3_0")
    assert len(trace.entries) == 4
    assert len({p for p, _, _, _ in trace.entries}) == 3
    assert len({s for _, _, s, _ in trace.entries}) == 2

    traj = character_trajectory(raw, "charA")
    assert (len(traj.panel_ids), len(traj.event_ids), len(traj.macro_event_ids)) == (
        12,
        4,
        2,
    )
    assert coverage(set(traj.panel_ids), gold.trajectory_gold["charA"]) == 1.0

    timeline = reconstruct_timeline(raw, "m0", "reading")
    assert list(timeline.panel_ids) == list(gold.order_gold["m0"])
    assert timeline.panel_ids[0] == "0_0_0" and timeline.panel_ids[-1] == "0_2_3"
    assert ordering_accuracy(timeline.panel_ids, gold.order_gold["m0"]) == 1.0

    romance = generate_fixture("romance")
    romance_graph = build_all(romance)
    macro = next(m for m in romance.macro_events if m.label == "Think of family")
    summary = summarize_event(romance_graph, macro.id)
    assert [label for _, label in summary.children] == [
        "Intro",
        "Get new rice cooker",
        "Test new rice cooker",
        "Eat and think of family",
    ]


def _random_labels(rng, max_labels):
    return {
        "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 8)))
        for _ in range(rng.randint(1, max_labels))
    }


def _random_provider(rng, labels):
    dim = rng.choice((8, 16, 32))
    vectors = {}
    for label in labels:
        vec = np.array([rng.gauss(0, 1) for _ in range(dim)])
        vectors[label] = vec / np.linalg.norm(vec)
    return VectorFileProvider(vectors, dim, source="acceptance")


def _bfs_components(labels, provider, lexicon, threshold):
    ordered = sorted(labels)
    link = {
        (a, b): linked(a, b, provider, lexicon, threshold)
        for a, b in itertools.permutations(ordered, 2)
    }
    seen, components = set(), []
    for start in ordered:
        if start in seen:
            continue
        component, queue = [], [start]
        seen.add(start)
        while queue:
            current = queue.pop(0)
            component.append(current)
            for other in ordered:
                if other not in seen and link[(current, other)]:
                    seen.add(other)
                    queue.append(other)
        components.append(sorted(component))
    return sorted(components)


def test_criterion_2_clustering_oracle_200_trials():
    rng = random.Random(20240917)
    for trial in range(200):
        labels = _random_labels(rng, 50)
        provider = _random_provider(rng, labels)
        lexicon = SynonymLexicon.empty()
        if rng.random() < 0.25 and len(labels) >= 4:
            lexicon = SynonymLexicon.build([rng.sample(sorted(labels), 3)], {})
        threshold = rng.random()
        got = [
            list(c.members) for c in cluster_labels(labels, provider, lexicon, threshold)
        ]
        want = _bfs_components(labels, provider, lexicon, threshold)
        assert got == want, f"trial {trial} diverged from BFS oracle"


def test_criterion_3_threshold_monotonicity_50_sets():
    rng = random.Random(31)
    thresholds = (0.0, 0.25, 0.5, 0.75, 1.0)
    for trial in range(50):
        labels = _random_labels(rng, 30)
        provider = _random_provider(rng, labels)
        runs = [
            cluster_labels(labels, provider, SynonymLexicon.empty(), t)
            for t in thresholds
        ]
        counts = [len(run) for run in runs]
        assert counts == sorted(counts), f"trial {trial}: counts not monotone {counts}"
        for coarse, fine in zip(runs, runs[1:]):
            coarse_sets = [set(c.members) for c in coarse]
            for cluster in fine:
                members = set(cluster.members)
                assert any(
                    members <= s for s in coarse_sets
                ), f"trial {trial}: {members} not a refinement"


def test_criterion_4_normalization_topology_and_idempotence():
    lexicon = resources.default_lexicon()
    for name, doc in all_fixtures():
        graph = build_all(doc)
        norm_map = build_normalization_map(doc, HASHED, lexicon, 0.75)
        normalized = apply_normalization(graph, norm_map)
        assert {n.id for n in normalized.nodes()} == {n.id for n in graph.nodes()}, name
        assert {e.key() for e in normalized.edges()} == {
            e.key() for e in graph.edges()
        }, name
        thawed = json.loads(normalized.to_json_bytes())
        thawed["normalized"] = False
        again = apply_normalization(
            deserialize(json.dumps(thawed).encode()), norm_map
        )
        assert again.to_json_bytes() == normalized.to_json_bytes(), name


def test_criterion_5_degradation_direction():
    romance = generate_fixture("romance")
    romance_raw = build_all(romance)
    romance_map = build_normalization_map(
        romance, HASHED, resources.default_lexicon(), 0.75
    )
    romance_norm = apply_normalization(romance_raw, romance_map)
    gold = build_gold(romance, gold_label_file=resources.gold_labels_bytes("romance"))
    report = run_eval(romance, romance_raw, romance_norm, gold, norm_map=romance_map)
    affected = next(m.id for m in romance.macro_events if m.label == "Think of family")
    t1 = {
        (r.macro_event_id, r.variant): r.f1 for r in report.rows if r.task == "T1"
    }
    assert t1[(affected, "normalized")] < t1[(affected, "raw")]

    doc, raw, norm, norm_map = normalized_battle()
    gold = build_gold(doc, gold_label_file=resources.gold_labels_bytes("battle"))
    report = run_eval(doc, raw, norm, gold, norm_map=norm_map)
    for macro in doc.macro_events:
        scores = {
            r.variant: r.f1
            for r in report.rows
            if r.task == "T1" and r.macro_event_id == macro.id
        }
        assert scores["raw"] == scores["normalized"], macro.id


def test_criterion_6_metric_correctness():
    assert set_f1({"a", "b", "c"}, {"b", "c", "d"}) == (2 / 3, 2 / 3, 2 / 3)

    rng = random.Random(66)
    vocab = ["cart", "go", "now", "run", "stop!", "the", "There,", "wait"]
    for _ in range(100):
        pred = [
            " ".join(rng.choices(vocab, k=rng.randint(0, 6)))
            for _ in range(rng.randint(0, 3))
        ]
        gold = [
            " ".join(rng.choices(vocab, k=rng.randint(0, 6)))
            for _ in range(rng.randint(0, 3))
        ]
        pred_tokens = [t for s in pred for t in tokenize(s)]
        gold_tokens = [t for s in gold for t in tokenize(s)]
        pool = list(gold_tokens)
        overlap = 0
        for token in pred_tokens:
            if token in pool:
                pool.remove(token)
                overlap += 1
        got = token_f1(pred, gold)
        if not pred_tokens and not gold_tokens:
            assert got == (1.0, 1.0, 1.0)
        elif not pred_tokens or not gold_tokens:
            assert got == (0.0, 0.0, 0.0)
        else:
            want_f1 = 2 * overlap / (len(pred_tokens) + len(gold_tokens)) if overlap else 0.0
            assert got == (overlap / len(pred_tokens), overlap / len(gold_tokens), want_f1)

    for _ in range(100):
        n = rng.randint(0, 20)
        gold_seq = list(range(n))
        predicted = rng.sample(gold_seq, rng.randint(0, n)) if n else []
        rng.shuffle(predicted)
        shared = [x for x in gold_seq if x in predicted]
        if len(shared) < 2:
            want = 1.0 if len(shared) == 1 or (not predicted and not gold_seq) else 0.0
        else:
            concordant = total = 0
            for i, a in enumerate(shared):
                for b in shared[i + 1:]:
                    total += 1
                    if predicted.index(a) < predicted.index(b):
                        concordant += 1
            want = concordant / total
        assert ordering_accuracy(predicted, gold_seq) == want


def test_criterion_7_serialization_stability():
    lexicon = resources.default_lexicon()
    for name, doc in all_fixtures():
        graph = build_all(doc)
        first = graph.to_json_bytes()
        second = deserialize(first).to_json_bytes()
        assert first == second, name
        norm_map = build_normalization_map(doc, HASHED, lexicon, 0.75)
        normalized = apply_normalization(graph, norm_map)
        first = normalized.to_json_bytes()
        assert deserialize(first).to_json_bytes() == first, name


def test_criterion_8_perfect_information_sanity():
    lexicon = resources.default_lexicon()
    for name, doc in all_fixtures():
        raw = build_all(doc)
        norm_map = build_normalization_map(doc, HASHED, lexicon, 0.75)
        norm = apply_normalization(raw, norm_map)
        gold = build_gold(doc)
        report = run_eval(doc, raw, norm, gold, norm_map=norm_map)
        for row in report.rows:
            if row.task in ("T3", "T4"):
                assert row.f1 == 1.0, (name, row)
