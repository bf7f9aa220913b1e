"""The label-free views a relabeled graph shares with its source, and T1 and
T3 scored from tallies, each against its oracle; and T2 to T5, which read
only those views, scoring the same on a normalized graph as on its source.

The view oracles are test_reasoner's per-call references and
test_properties' scanning action retrieval. The scorer oracles are the
set-based T1 and T3 that run_eval used before it scored from tallies: T1
collects each cluster's (panel, instance) hits as sets per macro-event and
scores them with set_f1, and T3 intersects each character's whole
trajectory with every macro-event's panels and scores it with coverage.
"""

import itertools
import json
from dataclasses import replace

import pytest
from hypothesis import given

from nkg import reasoner, resources
from nkg.builder import build_all
from nkg.errors import EmptyGold
from nkg.evaluation import (
    VARIANTS,
    _mean_triple,
    _score_t1,
    build_gold,
    run_eval,
    set_f1,
)
from nkg.fixtures import generate_fixture
from nkg.graph import NodeKind, deserialize
from nkg.normalize import apply_normalization, build_normalization_map
from nkg.reasoner import (
    ORDER_KINDS,
    STORY_SCOPE,
    character_trajectory,
    reconstruct_timeline,
    retrieve_actions,
    summarize_event,
    trace_dialogue,
)
from test_properties import HASHED, LEXICON, PROPERTY_SETTINGS, documents, scan_retrieve_actions
from test_reasoner import (
    ids_of,
    memo_builds,  # noqa: F401  (a fixture)
    oracle_character_trajectory,
    oracle_reconstruct_timeline,
    oracle_summarize_event,
    oracle_trace_dialogue,
    shuffled_orders,
)

# each view the reasoner keeps, as it reads it
LABEL_FREE_VIEWS = {
    "reading scopes": lambda graph: reasoner._scopes(graph, "reading"),
    "storytime scopes": lambda graph: reasoner._scopes(graph, "storytime"),
    "action order": reasoner._action_order,
    "dialogues": reasoner._dialogues,
    "trajectories": reasoner._trajectories,
    "children": reasoner._children,
}
LABEL_VIEWS = {
    "surface folds": lambda graph: reasoner._actions_by(graph, "surface_fold"),
    "canonical labels": lambda graph: reasoner._actions_by(graph, "canonical"),
    "summaries": reasoner._summaries,
}

STORIES = {
    "battle": lambda: generate_fixture("battle"),
    "romance": lambda: generate_fixture("romance"),
    **{
        f"noise-{seed}-{variance}": (
            lambda seed=seed, variance=variance: generate_fixture(
                "noise", seed=seed, variance=variance
            )
        )
        for seed in range(4)
        for variance in (0.0, 0.6)
    },
    **{
        f"shuffled-noise-{seed}": (
            lambda seed=seed: shuffled_orders(generate_fixture("noise", seed=seed, variance=0.6), seed)
        )
        for seed in range(4)
    },
    "shuffled-battle": lambda: shuffled_orders(generate_fixture("battle"), 5),
}


def normalized_pair(doc):
    raw = build_all(doc)
    norm_map = build_normalization_map(doc, HASHED, LEXICON, 0.75)
    return raw, apply_normalization(raw, norm_map), norm_map


def every_query(graph, raw, norm_map):
    """One query of each kind on every id and label of the raw graph, made
    on `graph`, which is that graph or its normalized copy."""
    for node in raw.nodes(NodeKind.CHARACTER):
        character_trajectory(graph, node.attrs["entity_id"])
    for scope, order in itertools.product(
        [STORY_SCOPE, *ids_of(raw, NodeKind.EVENT, NodeKind.MACRO_EVENT)], ORDER_KINDS
    ):
        reconstruct_timeline(graph, scope, order)
    for event_id in ids_of(raw, NodeKind.EVENT):
        trace_dialogue(graph, event_id)
    for node_id in ids_of(raw, NodeKind.EVENT, NodeKind.MACRO_EVENT):
        summarize_event(graph, node_id)
    for node in raw.nodes(NodeKind.ACTION):
        retrieve_actions(graph, node.label(), "raw")
        if graph.normalized:
            retrieve_actions(graph, node.label(), "normalized", norm_map=norm_map)


# --- the shared views ----------------------------------------------------------


@pytest.mark.parametrize("first", VARIANTS)
def test_shared_views_are_one_object_and_label_views_each_graphs_own(first):
    raw, norm, _ = normalized_pair(generate_fixture("noise", seed=3, variance=0.6))
    graphs = {"raw": raw, "normalized": norm}
    order = [graphs[first], *(g for g in graphs.values() if g is not graphs[first])]
    for name, view in LABEL_FREE_VIEWS.items():
        built = [view(graph) for graph in order]
        assert built[0] is built[1] is view(raw) is view(norm), name
    for name, view in LABEL_VIEWS.items():
        built = [view(graph) for graph in order]
        assert built[0] is not built[1], name
        for graph, own in zip(order, built):
            assert view(graph) is own, name  # kept
            # and the graph's own: what a copy that shares nothing builds
            assert own == view(deserialize(graph.to_json_bytes())), name
    # the story's labels change, so a label view shared would be caught
    for view in LABEL_VIEWS.values():
        assert view(raw) != view(norm) or view is LABEL_VIEWS["surface folds"]


def test_a_relabeled_graph_builds_only_the_views_that_read_labels(memo_builds):  # noqa: F811
    raw, norm, norm_map = normalized_pair(generate_fixture("battle"))
    every_query(raw, raw, norm_map)
    memo_builds.clear()
    every_query(norm, raw, norm_map)
    assert sorted(map(str, memo_builds)) == sorted(
        map(str, [("actions_by", "surface_fold"), ("actions_by", "canonical"), "summaries"])
    )


def assert_views_match_oracles(doc, first):
    """Every query on both graphs equals its oracle, the shared views built
    on the graph named `first`."""
    raw, norm, norm_map = normalized_pair(doc)
    for graph in (raw, norm) if first == "raw" else (norm, raw):
        for node in graph.nodes(NodeKind.CHARACTER):
            entity = node.attrs["entity_id"]
            want = oracle_character_trajectory(graph, entity)
            assert character_trajectory(graph, entity) == want
        scopes = [STORY_SCOPE, *ids_of(graph, NodeKind.EVENT, NodeKind.MACRO_EVENT)]
        for scope, order in itertools.product(scopes, ORDER_KINDS):
            want = oracle_reconstruct_timeline(graph, scope, order)
            assert reconstruct_timeline(graph, scope, order) == want
        for event_id in ids_of(graph, NodeKind.EVENT):
            assert trace_dialogue(graph, event_id) == oracle_trace_dialogue(graph, event_id)
        for node_id in ids_of(graph, NodeKind.EVENT, NodeKind.MACRO_EVENT):
            assert summarize_event(graph, node_id) == oracle_summarize_event(graph, node_id)
        actions = graph.nodes(NodeKind.ACTION)
        labels = {n.label() for n in actions} | {n.attrs.get("surface_label", "") for n in actions}
        for label in sorted(labels - {""}):
            want = scan_retrieve_actions(graph, label, "raw")
            assert retrieve_actions(graph, label, "raw") == want
            if graph.normalized:
                want = scan_retrieve_actions(graph, label, "normalized", norm_map)
                assert retrieve_actions(graph, label, "normalized", norm_map=norm_map) == want


@pytest.mark.parametrize("first", VARIANTS)
@pytest.mark.parametrize("name", sorted(STORIES))
def test_shared_views_match_the_oracles(name, first):
    assert_views_match_oracles(STORIES[name](), first)


@PROPERTY_SETTINGS
@given(documents())
def test_shared_views_match_the_oracles_on_generated_documents(doc):
    for first in VARIANTS:
        assert_views_match_oracles(doc, first)


# --- T1 and T3 from tallies ----------------------------------------------------


def oracle_by_macro(pairs, macro_of):
    """(panel id, action instance id) pairs -> instance ids per macro-event."""
    split = {}
    for panel_id, instance_id in pairs:
        macro_id = macro_of.get(panel_id)
        if macro_id is not None:
            split.setdefault(macro_id, set()).add(instance_id)
    return split


def oracle_score_t1(graph, variant, gold, macro_of, gold_by_macro, norm_map):
    per_macro = {}
    for canonical in sorted(gold.action_clusters):
        gold_split = gold_by_macro.get(canonical)
        if not gold_split:
            continue
        found = []
        for query in sorted({canonical} | set(gold.action_clusters[canonical])):
            hits = retrieve_actions(graph, query, variant, norm_map=norm_map)
            found.extend((h.panel_id, h.action_instance_id) for h in hits)
        found_by_macro = oracle_by_macro(found, macro_of)
        for macro_id, gold_instances in gold_split.items():
            per_macro.setdefault(macro_id, []).append(
                set_f1(found_by_macro.get(macro_id, set()), gold_instances)
            )
    return per_macro


def coverage(predicted: set, gold: set) -> float:
    """Fraction of gold items retrieved."""
    predicted, gold = set(predicted), set(gold)
    if not gold:
        raise EmptyGold("coverage needs a nonempty gold set")
    return len(predicted & gold) / len(gold)


def oracle_t3(doc, graph, gold):
    """Macro-event id -> its T3 triple."""
    scores = {}
    for macro in doc.macro_events:
        macro_panel_ids = {p.id for e in macro.events for p in e.panels}
        entities = sorted(e for e, panels in gold.trajectory_gold.items() if panels & macro_panel_ids)
        per_entity = []
        for entity in entities:
            score = coverage(
                macro_panel_ids.intersection(character_trajectory(graph, entity).panel_ids),
                gold.trajectory_gold[entity] & macro_panel_ids,
            )
            per_entity.append((score, score, score))
        scores[macro.id] = _mean_triple(per_entity)
    return scores


def t1_inputs(doc, gold):
    """macro_of and gold_by_macro as run_eval hands them to _score_t1."""
    member_to_canonical = {m: c for c, members in gold.action_clusters.items() for m in members}
    macro_of, gold_by_macro = {}, {}
    for macro, _, panel in doc.iter_panels():
        macro_of[panel.id] = macro.id
        for action in panel.actions:
            canonical = member_to_canonical.get(action.label, action.label)
            gold_by_macro.setdefault(canonical, {}).setdefault(macro.id, set()).add(
                action.instance_id
            )
    return macro_of, gold_by_macro


def own_cluster_gold(doc) -> bytes:
    """A gold file with every action label its own cluster."""
    labels = sorted({a.label for _, _, p in doc.iter_panels() for a in p.actions})
    return json.dumps({"action_clusters": {label: [label] for label in labels}}).encode()


def assert_tallies_match_oracles(doc, gold_files):
    raw, norm, norm_map = normalized_pair(doc)
    golds = [build_gold(doc, normalization_map=norm_map)]
    golds += [build_gold(doc, gold_label_file=data) for data in gold_files]
    # gold trajectories that also name every third panel, so that T3 reads
    # below 1 and its means have rounding to get wrong
    panel_ids = [panel.id for _, _, panel in doc.iter_panels()]
    widened = {e: panels | set(panel_ids[::3]) for e, panels in golds[0].trajectory_gold.items()}
    golds.append(replace(golds[0], trajectory_gold=widened))
    for gold in golds:
        macro_of, gold_by_macro = t1_inputs(doc, gold)
        for variant, graph in zip(VARIANTS, (raw, norm)):
            args = (graph, variant, gold, macro_of, gold_by_macro, norm_map)
            assert _score_t1(*args) == oracle_score_t1(*args)
        # T3 runs on the raw graph only, so the normalized graph's rows come
        # from a report that passes it as the raw one
        for graph in (raw, norm):
            report = run_eval(doc, graph, norm, gold, norm_map=norm_map)
            t3 = {r.macro_event_id: (r.precision, r.recall, r.f1) for r in report.rows
                  if r.task == "T3"}
            assert t3 == oracle_t3(doc, graph, gold)


@pytest.mark.parametrize("name", sorted(STORIES))
def test_tally_scores_match_the_set_oracles(name):
    doc = STORIES[name]()
    gold_files = [own_cluster_gold(doc)]
    if name in ("battle", "romance"):
        gold_files.append(resources.gold_labels_bytes(name))
    assert_tallies_match_oracles(doc, gold_files)


@PROPERTY_SETTINGS
@given(documents())
def test_tally_scores_match_the_set_oracles_on_generated_documents(doc):
    assert_tallies_match_oracles(doc, [own_cluster_gold(doc)])


# --- T2 to T5 on either graph ---------------------------------------------------


def later_task_rows(report):
    return [row for row in report.rows if row.task != "T1"]


def assert_later_tasks_read_no_labels(doc):
    """T2 to T5 score a normalized graph, and a copy of it that builds its own
    views, as they score the raw graph, at a threshold that merges every
    cosine pair, the default, and one that leaves only lexical links."""
    raw = build_all(doc)
    for threshold in (0.0, 0.75, 1.0):
        norm_map = build_normalization_map(doc, HASHED, LEXICON, threshold)
        norm = apply_normalization(raw, norm_map)
        gold = build_gold(doc, normalization_map=norm_map)
        want = later_task_rows(run_eval(doc, raw, norm, gold, norm_map=norm_map))
        for graph in (norm, deserialize(norm.to_json_bytes())):
            got = run_eval(doc, graph, norm, gold, norm_map=norm_map)
            assert later_task_rows(got) == want, threshold


@pytest.mark.parametrize("name", sorted(STORIES))
def test_later_tasks_score_alike_on_both_graphs(name):
    assert_later_tasks_read_no_labels(STORIES[name]())


@PROPERTY_SETTINGS
@given(documents())
def test_later_tasks_score_alike_on_both_graphs_on_generated_documents(doc):
    assert_later_tasks_read_no_labels(doc)
