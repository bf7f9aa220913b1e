"""Scaling sweep: the ROADMAP baseline columns at growing story sizes.

Not gating and never run by a workload. Each size is one wall-clock pass
in this process, so treat the figures as the shape of the curve.
"""

from __future__ import annotations

import os
import platform
import time

import numpy

from nkg import annotations, builder, evaluation, normalize, reasoner
from nkg.embedding import HashedNgramProvider
from nkg.resources import default_lexicon
from storygen import StoryShape, generate

SIZES = (200, 1000, 2000)
BUILD_ONLY_SIZES = (10_000,)


def _shape(panels: int) -> StoryShape:
    # about one distinct action label per five panels, as in the baseline table
    return StoryShape(
        panels=panels, panels_per_event=4, events_per_macro=5, actions_per_panel=2,
        dialogues_per_panel=1, action_vocab=max(20, panels // 5),
        event_vocab=min(panels // 20, 400), inflection_rate=0.3, compound_rate=0.5,
        synonym_rate=0.05, drift=0.2,
    )


def _timed(func, *args, **kwargs):
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return result, time.perf_counter() - start


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu or platform.processor(),
    }


def point(panels: int, seed: int, build_only: bool = False) -> dict:
    story = generate(_shape(panels), seed)
    doc = annotations.parse_annotations(story.doc_bytes())
    raw, build_s = _timed(builder.build_all, doc)
    row = {"panels": panels, "nodes": raw.node_count(), "build_s": build_s}
    if build_only:
        return row
    gold_bytes = story.gold_bytes()
    nmap, map_s = _timed(
        normalize.build_normalization_map, doc, HashedNgramProvider(), default_lexicon(),
        normalize.DEFAULT_THRESHOLD, set(evaluation.load_gold_labels(gold_bytes)),
    )
    norm, apply_s = _timed(normalize.apply_normalization, raw, nmap)
    gold = evaluation.build_gold(doc, normalization_map=nmap, gold_label_file=gold_bytes)
    _, eval_s = _timed(evaluation.run_eval, doc, raw, norm, gold, norm_map=nmap)
    label = min(story.truth["actions_by_label"])
    _, query_s = _timed(reasoner.retrieve_actions, raw, label, "raw")
    _, timeline_s = _timed(reasoner.reconstruct_timeline, raw, "story", "reading")
    row.update(
        labels=len(nmap.pool_labels("action")), norm_map_s=map_s, apply_s=apply_s,
        eval_s=eval_s, raw_action_query_ms=query_s * 1000, timeline_ms=timeline_s * 1000,
    )
    return row


def sweep(seed: int = 1) -> dict:
    rows = [point(n, seed) for n in SIZES]
    rows += [point(n, seed, build_only=True) for n in BUILD_ONLY_SIZES]
    return {"machine": machine(), "seed": seed, "rows": rows}
