"""Scoring harness: metrics, gold references, and raw-vs-normalized reports.

The five reasoning tasks are scored per macro-event. Action retrieval is
scored on both the raw and the normalized graph. The other four tasks read
only label-free views, which a normalized graph shares with its raw source,
so they are scored once, on the raw graph.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import string
from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from operator import attrgetter

from .annotations import AnnotationDoc
from .errors import DuplicateElements, SchemaViolation
from .graph import NarrativeGraph
from .jsonio import dump_list, load_object, require
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

# each macro-event's rows as (task, variant), in report order
_ROWS = (
    ("T1", "raw"),
    ("T1", "normalized"),
    ("T2", "raw"),
    ("T3", "raw"),
    ("T4", "raw"),
    ("T5", "raw"),
)
_MARKDOWN_COLUMNS = tuple(row for row in _ROWS if row[0] != "T4")

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


# --- metrics ----------------------------------------------------------------


def set_f1(predicted: set, gold: set) -> tuple[float, float, float]:
    """Set precision/recall/F1; empty gold scores (0, 0, 0) with a warning."""
    predicted, gold = set(predicted), set(gold)
    if not gold:
        log.warning("set_f1 called with empty gold set; scoring (0, 0, 0)")
        return (0.0, 0.0, 0.0)
    return _tally_f1(len(predicted & gold), len(predicted), len(gold))


def _tally_f1(overlap: int, predicted: int, gold: int) -> tuple[float, float, float]:
    """P/R/F1 from the sizes of |P∩G|, |P| and a nonempty |G|, for sets and
    for multisets alike."""
    precision = overlap / predicted if predicted else 0.0
    recall = overlap / gold
    # 2|P∩G| / (|P|+|G|) keeps rationals like 2/3 exact in floating point
    f1 = 2 * overlap / (predicted + gold) if overlap else 0.0
    return (precision, recall, f1)


def tokenize(span: str) -> list[str]:
    """Lowercase whitespace tokens with punctuation characters removed."""
    return span.translate(_PUNCT_TABLE).lower().split()


def token_f1(predicted_spans, gold_spans) -> tuple[float, float, float]:
    """Multiset token overlap between two lists of text spans."""
    pred = Counter(t for span in predicted_spans for t in tokenize(span))
    gold = Counter(t for span in gold_spans for t in tokenize(span))
    total_pred, total_gold = sum(pred.values()), sum(gold.values())
    if total_gold == 0:
        return (0.0, 0.0, 0.0) if total_pred else (1.0, 1.0, 1.0)
    overlap = sum(min(count, gold[token]) for token, count in pred.items())
    return _tally_f1(overlap, total_pred, total_gold)


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
        return dict(zip(_SCORE_FIELDS, _score_values(self)))


# the field names, which are a report row's keys in the JSON and its CSV header
_SCORE_FIELDS = tuple(f.name for f in fields(TaskScore))
_score_values = attrgetter(*_SCORE_FIELDS)
_sorted_values = attrgetter(*sorted(_SCORE_FIELDS))
# one row as json.dumps(row.as_dict(), sort_keys=True, indent=2) lays it out
# inside the report's list, filled with _sorted_values
_ROW_TEMPLATE = (
    "{\n" + ",\n".join(f'      "{name}": %s' for name in sorted(_SCORE_FIELDS)) + "\n    }"
)


@dataclass(frozen=True)
class EvalReport:
    story_id: str
    rows: tuple[TaskScore, ...]
    metadata: dict = field(default_factory=dict)

    def to_json_bytes(self) -> bytes:
        """The bytes of json.dumps(payload, sort_keys=True, indent=2) and a
        newline, payload being schema_version, story_id, metadata and the
        rows as dicts. Each row fills one template; the metadata goes
        through json.dumps, indented one level in, since JSON text holds
        no raw newline."""
        rows = dump_list(
            [
                _ROW_TEMPLATE % tuple(map(_json_scalar, _sorted_values(row)))
                for row in self.rows
            ],
            2,
        )
        metadata = json.dumps(self.metadata, sort_keys=True, indent=2).replace("\n", "\n  ")
        return (
            f'{{\n  "metadata": {metadata},\n  "rows": {rows},\n  "schema_version": 1,\n'
            f'  "story_id": {_json_scalar(self.story_id)}\n}}\n'
        ).encode()


def _json_scalar(value) -> str:
    """A str or a finite float as json.dumps writes it; else json.dumps."""
    if value.__class__ is str:
        return encode_basestring_ascii(value)
    if value.__class__ is float and value - value == 0.0:
        return float.__repr__(value)
    return json.dumps(value)


def _mean_triple(triples) -> tuple[float, float, float]:
    triples = list(triples)
    if not triples:
        return (0.0, 0.0, 0.0)
    n = len(triples)
    return tuple(sum(t[i] for t in triples) / n for i in range(3))


def _score_t1(graph, variant, gold, macro_of, gold_by_macro, norm_map):
    """Per macro-event, the set P/R/F1 of each gold cluster with instances there.

    `gold_by_macro` maps a cluster to its gold instance ids per macro-event
    and `macro_of` a panel to its macro-event. Each cluster's queries run
    once, story-wide. An action index's groups are disjoint, so a cluster's
    hits are the hits of the distinct groups its queries return, each group
    known by its first hit; they are tallied per macro-event, with the true
    positives among them, and scored as set_f1 scores the sets.
    """
    per_macro: dict[str, list] = {}
    for canonical in sorted(gold.action_clusters):
        gold_split = gold_by_macro.get(canonical)
        if not gold_split:
            continue
        groups = set()
        found: dict[str, int] = {}
        hits_gold: dict[str, int] = {}
        for query in sorted({canonical} | set(gold.action_clusters[canonical])):
            # raw retrieval ignores the map
            hits = retrieve_actions(graph, query, variant, norm_map=norm_map)
            if not hits or hits[0].action_instance_id in groups:
                continue
            groups.add(hits[0].action_instance_id)
            for hit in hits:
                macro_id = macro_of.get(hit.panel_id)
                if macro_id is not None:
                    found[macro_id] = found.get(macro_id, 0) + 1
                    if hit.action_instance_id in gold_split.get(macro_id, ()):
                        hits_gold[macro_id] = hits_gold.get(macro_id, 0) + 1
        for macro_id, gold_instances in gold_split.items():
            per_macro.setdefault(macro_id, []).append(
                _tally_f1(hits_gold.get(macro_id, 0), found.get(macro_id, 0), len(gold_instances))
            )
    return per_macro


def _split(panel_ids, macro_of: dict[str, str]) -> dict[str, set[str]]:
    """Panel ids -> those of each macro-event; a panel in none is dropped."""
    split: dict[str, set[str]] = {}
    for panel_id in panel_ids:
        macro_id = macro_of.get(panel_id)
        if macro_id is not None:
            split.setdefault(macro_id, set()).add(panel_id)
    return split


def run_eval(
    doc: AnnotationDoc,
    graph_raw: NarrativeGraph,
    graph_norm: NarrativeGraph,
    gold: GoldReference,
    *,
    norm_map: NormalizationMap | None = None,
) -> EvalReport:
    """Score the five tasks per macro-event.

    Each task scores units: a gold action cluster with instances in the
    macro-event (T1), an event with dialogue (T2), a character with gold
    panels there (T3), and the macro-event itself (T4, T5). Every row in
    `_ROWS` is the mean of its units, (0, 0, 0) when it has none. Action
    retrieval runs on both the raw and the normalized graph. The other four
    tasks read only label-free views, which the normalized graph shares
    with the raw one, so they run once, on the raw graph.
    """
    member_to_canonical = {
        member: canonical
        for canonical, members in gold.action_clusters.items()
        for member in members
    }
    macro_of: dict[str, str] = {}
    # gold action instance ids per cluster, split by macro-event once for both variants
    gold_by_macro: dict[str, dict[str, set[str]]] = {}
    for macro, _, panel in doc.iter_panels():
        macro_of[panel.id] = macro.id
        for action in panel.actions:
            canonical = member_to_canonical.get(action.label, action.label)
            split = gold_by_macro.setdefault(canonical, {})
            split.setdefault(macro.id, set()).add(action.instance_id)

    # each row's unit scores per macro-event
    units = {row: defaultdict(list) for row in _ROWS}
    for variant, graph in zip(VARIANTS, (graph_raw, graph_norm)):
        t1 = _score_t1(graph, variant, gold, macro_of, gold_by_macro, norm_map)
        units["T1", variant].update(t1)
    for macro in doc.macro_events:
        for event in macro.events:
            gold_texts = [text for _, _, text in gold.dialogue_gold[event.id]]
            if gold_texts:
                trace = trace_dialogue(graph_raw, event.id)
                score = token_f1([text for _, _, _, text in trace.entries], gold_texts)
                units["T2", "raw"][macro.id].append(score)
        timeline = reconstruct_timeline(graph_raw, macro.id, "reading")
        score = ordering_accuracy(timeline.panel_ids, gold.order_gold[macro.id])
        units["T4", "raw"][macro.id].append((score, score, score))
        summary = summarize_event(graph_raw, macro.id)
        score = set_f1({cid for cid, _ in summary.children}, gold.summary_gold[macro.id])
        units["T5", "raw"][macro.id].append(score)
    for entity in sorted(gold.trajectory_gold):
        gold_split = _split(gold.trajectory_gold[entity], macro_of)
        if not gold_split:
            continue
        found = _split(character_trajectory(graph_raw, entity).panel_ids, macro_of)
        for macro_id, panels in gold_split.items():
            score = len(panels.intersection(found.get(macro_id, ()))) / len(panels)
            units["T3", "raw"][macro_id].append((score, score, score))

    rows = tuple(
        TaskScore(task, macro.id, variant, *_mean_triple(units[task, variant].get(macro.id, ())))
        for macro in doc.macro_events
        for task, variant in _ROWS
    )
    metadata = {
        "macro_event_labels": {macro.id: macro.label for macro in doc.macro_events},
        "ordering_metric": "pairwise_concordance",
        "tasks_normalized": "T1",
    }
    if norm_map is not None:
        metadata["threshold"] = norm_map.threshold
        metadata["provider_id"] = norm_map.provider_id
        pools = Counter(c.pool for c in norm_map.clusters)
        metadata["action_cluster_count"] = pools[ACTION_POOL]
        metadata["event_cluster_count"] = pools[EVENT_POOL]
    return EvalReport(doc.story_id, rows, metadata)


# --- rendering --------------------------------------------------------------


def _csv_bytes(header, rows) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


def _render_csv(report: EvalReport) -> bytes:
    # csv writes a float as its repr
    return _csv_bytes(_SCORE_FIELDS, map(_score_values, report.rows))


def _render_plotdata(report: EvalReport) -> bytes:
    return _csv_bytes(
        ["macro_event", "task", "variant", "f1"],
        ([r.macro_event_id, r.task, r.variant, repr(r.f1)] for r in report.rows),
    )


def _render_markdown(report: EvalReport) -> bytes:
    labels = report.metadata.get("macro_event_labels", {})
    by_key = {(r.macro_event_id, r.task, r.variant): r.f1 for r in report.rows}
    macro_ids = dict.fromkeys(row.macro_event_id for row in report.rows)
    header = "| macro-event | T1 raw | T1 norm | T2 | T3 | T5 |"
    rule = "|---|---|---|---|---|---|"
    lines = [header, rule]
    for macro_id in macro_ids:
        # a label cell holds no column bar and no line break
        cells = [" ".join(labels.get(macro_id, macro_id).replace("|", "\\|").splitlines())]
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
