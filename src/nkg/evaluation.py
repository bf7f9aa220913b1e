"""Scoring harness: metrics, gold references, and raw-vs-normalized reports.

The five reasoning tasks are scored per macro-event. Action retrieval is
always scored on both the raw and the normalized graph; the remaining
tasks run on the raw graph unless the caller asks for both variants.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import string
from collections import Counter
from dataclasses import dataclass, field

from .annotations import AnnotationDoc
from .errors import DuplicateElements, EmptyGold, SchemaViolation
from .graph import NarrativeGraph
from .jsonio import load_object, require
from .lexicon import is_label
from .normalize import ACTION_POOL, EVENT_POOL, NormalizationMap
from .reasoner import (
    character_trajectory,
    reconstruct_timeline,
    retrieve_actions,
    summarize_event,
    trace_dialogue,
)

log = logging.getLogger(__name__)

VARIANTS = ("raw", "normalized")
REPORT_FORMATS = ("json", "csv", "markdown", "plotdata")

_MARKDOWN_COLUMNS = (
    ("T1", "raw"),
    ("T1", "normalized"),
    ("T2", "raw"),
    ("T3", "raw"),
    ("T5", "raw"),
)

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


# --- metrics ----------------------------------------------------------------


def set_f1(predicted: set, gold: set) -> tuple[float, float, float]:
    """Set precision/recall/F1; empty gold scores (0, 0, 0) with a warning."""
    predicted, gold = set(predicted), set(gold)
    if not gold:
        log.warning("set_f1 called with empty gold set; scoring (0, 0, 0)")
        return (0.0, 0.0, 0.0)
    overlap = len(predicted & gold)
    precision = overlap / len(predicted) if predicted else 0.0
    recall = overlap / len(gold)
    # 2|P∩G| / (|P|+|G|) keeps rationals like 2/3 exact in floating point
    f1 = 2 * overlap / (len(predicted) + len(gold)) if overlap else 0.0
    return (precision, recall, f1)


def tokenize(span: str) -> list[str]:
    """Lowercase whitespace tokens with punctuation characters removed."""
    return span.translate(_PUNCT_TABLE).lower().split()


def token_f1(predicted_spans, gold_spans) -> tuple[float, float, float]:
    """Multiset token overlap between two lists of text spans."""
    pred = Counter(t for span in predicted_spans for t in tokenize(span))
    gold = Counter(t for span in gold_spans for t in tokenize(span))
    total_pred, total_gold = sum(pred.values()), sum(gold.values())
    if total_pred == 0 and total_gold == 0:
        return (1.0, 1.0, 1.0)
    if total_pred == 0 or total_gold == 0:
        return (0.0, 0.0, 0.0)
    overlap = sum(min(count, gold[token]) for token, count in pred.items())
    precision = overlap / total_pred
    recall = overlap / total_gold
    f1 = 2 * overlap / (total_pred + total_gold) if overlap else 0.0
    return (precision, recall, f1)


def coverage(predicted: set, gold: set) -> float:
    """Fraction of gold items retrieved."""
    predicted, gold = set(predicted), set(gold)
    if not gold:
        raise EmptyGold("coverage needs a nonempty gold set")
    return len(predicted & gold) / len(gold)


def ordering_accuracy(predicted, gold) -> float:
    """Pairwise order agreement on the shared elements of two sequences.

    With fewer than two shared elements the score degenerates: a single
    shared element (or two empty inputs) counts as full agreement, no
    shared elements as none.
    """
    predicted, gold = list(predicted), list(gold)
    for name, seq in (("predicted", predicted), ("gold", gold)):
        if len(seq) != len(set(seq)):
            raise DuplicateElements(f"{name} sequence contains duplicates")
    shared = set(predicted) & set(gold)
    if len(shared) < 2:
        if len(shared) == 1 or (not predicted and not gold):
            return 1.0
        return 0.0
    pred_rank = {item: i for i, item in enumerate(predicted) if item in shared}
    gold_order = [item for item in gold if item in shared]
    concordant = total = 0
    for i in range(len(gold_order)):
        for j in range(i + 1, len(gold_order)):
            total += 1
            if pred_rank[gold_order[i]] < pred_rank[gold_order[j]]:
                concordant += 1
    return concordant / total


# --- gold references --------------------------------------------------------


@dataclass(frozen=True)
class GoldReference:
    action_clusters: dict[str, frozenset[str]]
    dialogue_gold: dict[str, tuple[tuple[str, str | None, str], ...]]
    trajectory_gold: dict[str, frozenset[str]]
    order_gold: dict[str, tuple[str, ...]]
    summary_gold: dict[str, frozenset[str]]


def load_gold_labels(raw: bytes | str) -> dict[str, frozenset[str]]:
    """Parse a gold label file: {"action_clusters": {canonical: [members]}}.

    No label may sit in two clusters; a canonical counts as a member of its
    own cluster."""
    data = load_object(raw, "gold label file")
    clusters: dict[str, frozenset[str]] = {}
    cluster_of: dict[str, str] = {}
    for canonical, members in require(data, "action_clusters", dict, "$").items():
        path = f"$.action_clusters[{canonical!r}]"
        if not isinstance(members, list) or not all(map(is_label, [canonical, *members])):
            raise SchemaViolation(path, "canonical and members must be nonblank strings")
        for label in (canonical, *members):
            other = cluster_of.setdefault(label, canonical)
            if other != canonical:
                raise SchemaViolation(path, f"label {label!r} is also in cluster {other!r}")
        clusters[canonical] = frozenset(members)
    return clusters


def build_gold(
    doc: AnnotationDoc,
    normalization_map: NormalizationMap | None = None,
    gold_label_file: bytes | str | None = None,
) -> GoldReference:
    """Derive all task gold from the annotations.

    Action clusters come from the gold label file when given, otherwise
    from the normalization map, otherwise every label is its own cluster.
    """
    if gold_label_file is not None:
        action_clusters = load_gold_labels(gold_label_file)
    elif normalization_map is not None:
        action_clusters = {
            c.canonical: frozenset(c.members)
            for c in normalization_map.clusters
            if c.pool == ACTION_POOL
        }
    else:
        labels = {a.label for _, _, p in doc.iter_panels() for a in p.actions}
        action_clusters = {label: frozenset({label}) for label in sorted(labels)}

    dialogue_gold: dict[str, tuple] = {}
    trajectory: dict[str, set[str]] = {}
    order_gold: dict[str, tuple[str, ...]] = {}
    summary_gold: dict[str, frozenset[str]] = {}

    by_reading = lambda panels: tuple(
        p.id for p in sorted(panels, key=lambda p: p.reading_order)
    )
    all_panels = [p for _, _, p in doc.iter_panels()]
    order_gold["story"] = by_reading(all_panels)
    for macro in doc.macro_events:
        macro_panels = [p for e in macro.events for p in e.panels]
        order_gold[macro.id] = by_reading(macro_panels)
        summary_gold[macro.id] = frozenset(e.id for e in macro.events)
        for event in macro.events:
            order_gold[event.id] = by_reading(event.panels)
            summary_gold[event.id] = frozenset(p.id for p in event.panels)
            entries = []
            for panel in event.panels:
                speakers = {c.instance_id: c.entity_id for c in panel.characters}
                for dlg in panel.dialogues:
                    entries.append(
                        (panel.id, speakers.get(dlg.speaker) if dlg.speaker else None, dlg.text)
                    )
                for char in panel.characters:
                    trajectory.setdefault(char.entity_id, set()).add(panel.id)
            dialogue_gold[event.id] = tuple(entries)

    return GoldReference(
        action_clusters=action_clusters,
        dialogue_gold=dialogue_gold,
        trajectory_gold={e: frozenset(panels) for e, panels in trajectory.items()},
        order_gold=order_gold,
        summary_gold=summary_gold,
    )


# --- report assembly --------------------------------------------------------


@dataclass(frozen=True)
class TaskScore:
    task: str
    macro_event_id: str
    variant: str
    precision: float
    recall: float
    f1: float

    def as_dict(self) -> dict:
        return {
            "task": self.task,
            "macro_event_id": self.macro_event_id,
            "variant": self.variant,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


@dataclass(frozen=True)
class EvalReport:
    story_id: str
    rows: tuple[TaskScore, ...]
    metadata: dict = field(default_factory=dict)

    def to_json_bytes(self) -> bytes:
        payload = {
            "schema_version": 1,
            "story_id": self.story_id,
            "metadata": self.metadata,
            "rows": [row.as_dict() for row in self.rows],
        }
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def _mean_triple(triples) -> tuple[float, float, float]:
    triples = list(triples)
    if not triples:
        return (0.0, 0.0, 0.0)
    n = len(triples)
    return tuple(sum(t[i] for t in triples) / n for i in range(3))


def _by_macro(pairs, macro_of: dict[str, str]) -> dict[str, set[str]]:
    """(panel id, action instance id) pairs -> instance ids per macro-event."""
    split: dict[str, set[str]] = {}
    for panel_id, instance_id in pairs:
        macro_id = macro_of.get(panel_id)
        if macro_id is not None:
            split.setdefault(macro_id, set()).add(instance_id)
    return split


def _score_t1(graph, variant, gold, macro_of, action_gold, norm_map):
    """Per macro-event, the set P/R/F1 of each gold cluster with instances there.

    `action_gold` maps a cluster to its gold (panel id, instance id) pairs and
    `macro_of` a panel to its macro-event. Each cluster's queries run once,
    story-wide, and the hits are split by macro-event like the gold.
    """
    per_macro: dict[str, list] = {}
    for canonical in sorted(gold.action_clusters):
        gold_by_macro = _by_macro(action_gold.get(canonical, ()), macro_of)
        if not gold_by_macro:
            continue
        found = []
        for query in sorted({canonical} | set(gold.action_clusters[canonical])):
            if variant == "raw":
                hits = retrieve_actions(graph, query, "raw")
            else:
                hits = retrieve_actions(graph, query, "normalized", norm_map=norm_map)
            found.extend((h.panel_id, h.action_instance_id) for h in hits)
        found_by_macro = _by_macro(found, macro_of)
        for macro_id, gold_instances in gold_by_macro.items():
            per_macro.setdefault(macro_id, []).append(
                set_f1(found_by_macro.get(macro_id, set()), gold_instances)
            )
    return per_macro


def run_eval(
    doc: AnnotationDoc,
    graph_raw: NarrativeGraph,
    graph_norm: NarrativeGraph,
    gold: GoldReference,
    *,
    norm_map: NormalizationMap | None = None,
    normalized_all: bool = False,
) -> EvalReport:
    """Score the five tasks per macro-event on raw and normalized graphs.

    Action retrieval always runs on both variants; the other tasks add a
    normalized variant only when normalized_all is set.
    """
    member_to_canonical = {
        member: canonical
        for canonical, members in gold.action_clusters.items()
        for member in members
    }
    macro_of: dict[str, str] = {}
    # gold action instances per cluster, as (panel id, instance id) pairs
    action_gold: dict[str, set[tuple[str, str]]] = {}
    for macro, _, panel in doc.iter_panels():
        macro_of[panel.id] = macro.id
        for action in panel.actions:
            canonical = member_to_canonical.get(action.label, action.label)
            action_gold.setdefault(canonical, set()).add((panel.id, action.instance_id))

    graphs = {"raw": graph_raw, "normalized": graph_norm}
    variants = VARIANTS if normalized_all else ("raw",)
    t1 = {
        variant: _score_t1(graphs[variant], variant, gold, macro_of, action_gold, norm_map)
        for variant in VARIANTS
    }
    # each entity's trajectory panels, read once per variant on first use
    trajectories: dict[str, dict[str, set[str]]] = {variant: {} for variant in variants}
    rows: list[TaskScore] = []
    labels: dict[str, str] = {}
    for macro in doc.macro_events:
        labels[macro.id] = macro.label
        macro_panel_ids = {p.id for e in macro.events for p in e.panels}

        for variant in VARIANTS:
            p, r, f1 = _mean_triple(t1[variant].get(macro.id, ()))
            rows.append(TaskScore("T1", macro.id, variant, p, r, f1))

        for variant in variants:
            graph = graphs[variant]

            per_event = []
            for event in macro.events:
                gold_texts = [text for _, _, text in gold.dialogue_gold[event.id]]
                if not gold_texts:
                    continue
                trace = trace_dialogue(graph, event.id)
                per_event.append(
                    token_f1([text for _, _, _, text in trace.entries], gold_texts)
                )
            rows.append(TaskScore("T2", macro.id, variant, *_mean_triple(per_event)))

            entities = sorted(
                e
                for e, panels in gold.trajectory_gold.items()
                if panels & macro_panel_ids
            )
            per_entity = []
            for entity in entities:
                seen = trajectories[variant]
                if entity not in seen:
                    seen[entity] = set(character_trajectory(graph, entity).panel_ids)
                score = coverage(
                    seen[entity] & macro_panel_ids,
                    gold.trajectory_gold[entity] & macro_panel_ids,
                )
                per_entity.append((score, score, score))
            rows.append(TaskScore("T3", macro.id, variant, *_mean_triple(per_entity)))

            timeline = reconstruct_timeline(graph, macro.id, "reading")
            score = ordering_accuracy(timeline.panel_ids, gold.order_gold[macro.id])
            rows.append(TaskScore("T4", macro.id, variant, score, score, score))

            summary = summarize_event(graph, macro.id)
            p, r, f1 = set_f1(
                {cid for cid, _ in summary.children}, gold.summary_gold[macro.id]
            )
            rows.append(TaskScore("T5", macro.id, variant, p, r, f1))

    metadata = {
        "macro_event_labels": labels,
        "ordering_metric": "pairwise_concordance",
        "tasks_normalized": "all" if normalized_all else "T1",
    }
    if norm_map is not None:
        metadata["threshold"] = norm_map.threshold
        metadata["provider_id"] = norm_map.provider_id
        metadata["action_cluster_count"] = sum(
            1 for c in norm_map.clusters if c.pool == ACTION_POOL
        )
        metadata["event_cluster_count"] = sum(
            1 for c in norm_map.clusters if c.pool == EVENT_POOL
        )
    return EvalReport(doc.story_id, tuple(rows), metadata)


# --- rendering --------------------------------------------------------------


def _csv_bytes(header: list[str], rows) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


def _render_csv(report: EvalReport) -> bytes:
    return _csv_bytes(
        ["task", "macro_event_id", "variant", "precision", "recall", "f1"],
        (
            [r.task, r.macro_event_id, r.variant, repr(r.precision), repr(r.recall), repr(r.f1)]
            for r in report.rows
        ),
    )


def _render_plotdata(report: EvalReport) -> bytes:
    return _csv_bytes(
        ["macro_event", "task", "variant", "f1"],
        ([r.macro_event_id, r.task, r.variant, repr(r.f1)] for r in report.rows),
    )


def _render_markdown(report: EvalReport) -> bytes:
    labels = report.metadata.get("macro_event_labels", {})
    by_key = {(r.macro_event_id, r.task, r.variant): r.f1 for r in report.rows}
    macro_ids = []
    for row in report.rows:
        if row.macro_event_id not in macro_ids:
            macro_ids.append(row.macro_event_id)
    header = "| macro-event | T1 raw | T1 norm | T2 | T3 | T5 |"
    rule = "|---|---|---|---|---|---|"
    lines = [header, rule]
    for macro_id in macro_ids:
        cells = [labels.get(macro_id, macro_id)]
        for task, variant in _MARKDOWN_COLUMNS:
            value = by_key.get((macro_id, task, variant))
            cells.append("" if value is None else f"{value:.3f}")
        lines.append("| " + " | ".join(cells) + " |")
    return ("\n".join(lines) + "\n").encode()


def render_report(report: EvalReport, format: str = "json") -> bytes:
    name = {"md": "markdown"}.get(format, format)
    if name == "json":
        return report.to_json_bytes()
    if name == "csv":
        return _render_csv(report)
    if name == "markdown":
        return _render_markdown(report)
    if name == "plotdata":
        return _render_plotdata(report)
    raise ValueError(f"format must be one of {REPORT_FORMATS}, got {format!r}")
