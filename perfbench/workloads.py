"""The four benchmark workloads: inputs, one measured pass, and output checks.

`prepare` runs in the orchestrating process and writes a workload's inputs
into a directory. The classes run in the measuring worker: `setup` loads
what a user would load once, `run_pass` does one timed unit of work, and
`check` compares a pass's output with the generator's ground truth.

Why these four: `eval-story` is dominated by the reasoner scans inside the
eval harness; `normalize-vocab` by pairwise label clustering; `query-mix`
reads one frozen graph many times, so query-time indexes show as gains and
their build cost as set-up; `ingest` is the write side of the builder and
graph serialization, where work moved into finalize() or deserialization
shows as a loss.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path

from nkg import annotations, builder, evaluation, graph, normalize, reasoner
from nkg.embedding import HashedNgramProvider
from nkg.resources import default_lexicon
from storygen import NOUNS, VERBS, Story, StoryShape, generate
from tracer import QUERY_KINDS

SHAPES = {
    "eval-story": StoryShape(
        panels=320, panels_per_event=4, events_per_macro=5, actions_per_panel=2,
        dialogues_per_panel=1, action_vocab=150, event_vocab=40,
        inflection_rate=0.3, compound_rate=0.5, synonym_rate=0.05, drift=0.2,
    ),
    "normalize-vocab": StoryShape(
        panels=360, panels_per_event=2, events_per_macro=4, actions_per_panel=3,
        dialogues_per_panel=1, action_vocab=440, event_vocab=130,
        inflection_rate=0.3, compound_rate=0.8, synonym_rate=0.03, drift=0.2,
    ),
    "query-mix": StoryShape(
        panels=1000, panels_per_event=4, events_per_macro=5, actions_per_panel=2,
        dialogues_per_panel=1, action_vocab=200, event_vocab=60,
        inflection_rate=0.3, compound_rate=0.5, synonym_rate=0.05, drift=0.2,
    ),
    "ingest": StoryShape(
        panels=2500, panels_per_event=4, events_per_macro=5, actions_per_panel=2,
        dialogues_per_panel=1, action_vocab=200, event_vocab=60,
        inflection_rate=0.3, compound_rate=0.5, synonym_rate=0.05, drift=0.2,
    ),
}
THRESHOLD = 0.75
# Queries of each kind in one query-mix pass, in a seeded order. There is no
# record of real query traffic, so every kind gets the same count. nkg's own
# eval (run_eval) was no basis for weights: it makes no fallback queries and
# only macro-event timelines in reading order.
QUERIES_PER_KIND = 150


def sha256(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


# --- inputs (orchestrating process) -----------------------------------------


def prepare(name: str, seed: int, inputs: Path) -> None:
    """Write the workload's generated inputs; graphs are built by nkg itself."""
    story = generate(SHAPES[name], seed)
    (inputs / "doc.json").write_bytes(story.doc_bytes())
    (inputs / "gold.json").write_bytes(story.gold_bytes())
    (inputs / "truth.json").write_text(json.dumps(story.truth))
    if name in ("normalize-vocab", "query-mix"):
        raw = builder.build_all(annotations.parse_annotations(story.doc_bytes()))
        (inputs / "raw.json").write_bytes(raw.to_json_bytes())
    if name == "query-mix":
        gold_labels = set(story.gold["action_clusters"])
        nmap = normalize.build_normalization_map(
            raw, HashedNgramProvider(), default_lexicon(), THRESHOLD, gold_labels
        )
        (inputs / "norm.json").write_bytes(normalize.apply_normalization(raw, nmap).to_json_bytes())
        (inputs / "norm.map.json").write_bytes(nmap.to_json_bytes())
        queries = query_sequence(story, sorted(nmap.pool_labels("action")), seed)
        (inputs / "queries.json").write_text(json.dumps(queries))


def query_sequence(story: Story, mapped: list[str], seed: int) -> list[list[str]]:
    """[kind, argument, order] triples; the order matters only for timelines."""
    rng = random.Random(seed)
    truth = story.truth
    labels = sorted(truth["actions_by_label"])
    mapped_set = set(mapped)
    # compounds the story never uses: the map resolves them by nearest cluster
    unseen = [f"{v}_{n}" for v in VERBS for n in NOUNS if f"{v}_{n}" not in mapped_set]
    macros = [m["id"] for m in story.doc["macro_events"]]
    events = [e["id"] for m in story.doc["macro_events"] for e in m["events"]]
    entities = sorted(truth["panels_by_entity"])

    def scope(i: int) -> str:
        # fixed shares of story, macro-event and event scope, so that every
        # seed asks for the same amount of timeline work
        share = i / QUERIES_PER_KIND
        return "story" if share < 0.1 else rng.choice(macros if share < 0.55 else events)

    draw = {
        "action_raw": lambda i: [rng.choice(labels), ""],
        "action_norm": lambda i: [rng.choice(mapped), ""],
        "action_miss": lambda i: [rng.choice(unseen), ""],
        "timeline": lambda i: [scope(i), ("reading", "storytime")[i % 2]],
        "trajectory": lambda i: [rng.choice(entities), ""],
        "dialogue": lambda i: [rng.choice(events), ""],
        "summary": lambda i: [rng.choice(macros + events), ""],
    }
    queries = [[kind] + draw[kind](i) for kind in QUERY_KINDS for i in range(QUERIES_PER_KIND)]
    rng.shuffle(queries)
    return queries


# --- measured passes (worker process) ---------------------------------------


class Workload:
    """Subclasses give run_pass() -> (output, items, per-query latencies or
    None), digest(output) -> hex string and check(output) -> failures."""

    def __init__(self, inputs: Path):
        self.inputs = inputs
        self.truth = json.loads((inputs / "truth.json").read_text())

    def setup(self) -> None:
        self.lexicon = default_lexicon()


class EvalStory(Workload):
    """`nkg eval --gold` in process: parse, build, normalize, gold, score, render."""

    def setup(self):
        super().setup()
        self.doc_bytes = (self.inputs / "doc.json").read_bytes()
        self.gold_bytes = (self.inputs / "gold.json").read_bytes()

    def run_pass(self):
        doc = annotations.parse_annotations(self.doc_bytes)
        raw = builder.build_all(doc)
        nmap = normalize.build_normalization_map(
            doc, HashedNgramProvider(), self.lexicon, THRESHOLD,
            gold_labels=set(evaluation.load_gold_labels(self.gold_bytes)),
        )
        norm = normalize.apply_normalization(raw, nmap)
        gold = evaluation.build_gold(doc, normalization_map=nmap, gold_label_file=self.gold_bytes)
        report = evaluation.run_eval(doc, raw, norm, gold, norm_map=nmap)
        return evaluation.render_report(report, "json"), self.truth["panels"], None

    def digest(self, output):
        return sha256(output)

    def check(self, output):
        rows = json.loads(output)["rows"]
        return [
            f"{r['task']} {r['macro_event_id']} {r['variant']} f1={r['f1']}, expected 1.0"
            for r in rows
            if r["task"] in ("T3", "T4") and r["f1"] != 1.0
        ]


class NormalizeVocab(Workload):
    """`nkg normalize --gold`: deserialize, cluster both pools, relabel, serialize."""

    def setup(self):
        super().setup()
        self.raw_bytes = (self.inputs / "raw.json").read_bytes()
        self.gold_bytes = (self.inputs / "gold.json").read_bytes()

    def run_pass(self):
        raw = graph.deserialize(self.raw_bytes)
        nmap = normalize.build_normalization_map(
            raw, HashedNgramProvider(), self.lexicon, THRESHOLD,
            gold_labels=set(evaluation.load_gold_labels(self.gold_bytes)),
        )
        norm = normalize.apply_normalization(raw, nmap)
        output = (norm.to_json_bytes(), nmap.to_json_bytes())
        labels = len(nmap.pool_labels("action")) + len(nmap.pool_labels("event"))
        return output, labels, None

    def digest(self, output):
        return sha256(*output)

    def check(self, output):
        canonical = {}
        for cluster in json.loads(output[1])["clusters"]:
            if cluster["pool"] == "action":
                canonical.update(dict.fromkeys(cluster["members"], cluster["canonical"]))
        failures = []
        by_concept: dict[str, set] = {}
        for label, concept in self.truth["concept_of"].items():
            if label not in canonical:
                failures.append(f"action label {label!r} missing from the map")
            else:
                by_concept.setdefault(concept, set()).add(canonical[label])
        failures += [
            f"concept {c!r} split over clusters {sorted(found)}"
            for c, found in by_concept.items()
            if len(found) > 1
        ]
        return failures


class Ingest(Workload):
    """Parse, build, and a serialization round trip of the built graph."""

    def setup(self):
        super().setup()
        self.doc_bytes = (self.inputs / "doc.json").read_bytes()
        self.checked_round_trip = False

    def run_pass(self):
        built = builder.build_all(annotations.parse_annotations(self.doc_bytes))
        data = built.to_json_bytes()
        return (data, graph.NarrativeGraph.from_json_bytes(data)), self.truth["panels"], None

    def digest(self, output):
        return sha256(output[0])

    def check(self, output):
        data, loaded = output
        failures = []
        panels = sum(1 for n in json.loads(data)["nodes"] if n["kind"] == "panel")
        if panels != self.truth["panels"]:
            failures.append(f"{panels} panel nodes, expected {self.truth['panels']}")
        # re-serializing costs a pass's worth of work, so check it once per run
        if not self.checked_round_trip:
            self.checked_round_trip = True
            if loaded.to_json_bytes() != data:
                failures.append("deserialized graph does not re-serialize to the same bytes")
        return failures


class QueryMix(Workload):
    """A closed loop of one client: each query starts when the last returns."""

    def setup(self):
        super().setup()
        self.raw = graph.deserialize((self.inputs / "raw.json").read_bytes())
        self.norm = graph.deserialize((self.inputs / "norm.json").read_bytes())
        self.nmap = normalize.NormalizationMap.from_json_bytes(
            (self.inputs / "norm.map.json").read_bytes()
        )
        self.provider = HashedNgramProvider()
        self.queries = json.loads((self.inputs / "queries.json").read_text())

    def run_pass(self):
        results, latencies = [], []
        for kind, arg, order in self.queries:
            start = time.perf_counter()
            try:
                if kind == "action_raw":
                    result = reasoner.retrieve_actions(self.raw, arg, "raw")
                elif kind in ("action_norm", "action_miss"):
                    result = reasoner.retrieve_actions(
                        self.norm, arg, "normalized", norm_map=self.nmap,
                        lexicon=self.lexicon, provider=self.provider,
                    )
                elif kind == "timeline":
                    result = reasoner.reconstruct_timeline(self.raw, arg, order)
                elif kind == "trajectory":
                    result = reasoner.character_trajectory(self.raw, arg)
                elif kind == "dialogue":
                    result = reasoner.trace_dialogue(self.raw, arg)
                else:
                    result = reasoner.summarize_event(self.raw, arg)
            except Exception as exc:  # noqa: BLE001 - a failed query is counted, not fatal
                result = exc
            latencies.append(time.perf_counter() - start)
            results.append(result)
        return results, len(results), latencies

    @staticmethod
    def _payload(result):
        if isinstance(result, Exception):
            return f"error: {result!r}"
        if isinstance(result, list):
            return [hit.as_dict() for hit in result]
        return result.as_dict()

    def digest(self, output):
        payload = [self._payload(result) for result in output]
        return sha256(json.dumps(payload, sort_keys=True).encode())

    def check(self, output):
        truth = self.truth
        failures = []
        for (kind, arg, order), result in zip(self.queries, output):
            if isinstance(result, Exception):
                failures.append(f"{kind} {arg}: {result!r}")
                continue
            if kind == "action_raw":
                got, want = [h.action_instance_id for h in result], truth["actions_by_label"][arg]
            elif kind == "trajectory":
                got, want = list(result.panel_ids), truth["panels_by_entity"][arg]
            elif kind == "timeline":
                got, want = list(result.panel_ids), truth[f"{order}_order"][arg]
            else:
                continue
            if got != want:
                failures.append(f"{kind} {arg} {order}: {len(got)} results differ from truth")
        return failures


WORKLOADS = {
    "eval-story": EvalStory,
    "normalize-vocab": NormalizeVocab,
    "query-mix": QueryMix,
    "ingest": Ingest,
}
