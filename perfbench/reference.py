"""Host-speed reference: a fixed piece of work that never calls nkg.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within minutes, far more than the bounds in BENCHMARK.json allow. So the
worker times `reference()` after set-up and between passes, and run.py
reports every gated timing at the speed of a host on which `reference()`
takes REFERENCE_S: a pass of `s` seconds timed next to references of `r`
seconds counts as `s * REFERENCE_S / r`.

The reference mixes the kinds of work nkg's passes do: interpreter loops,
string-keyed dicts, small numpy calls, building many small objects, and the
benchmark's own story generator with a JSON round trip. It never calls nkg, so a change to nkg
moves the scaled figures as much as it moves the raw ones.
"""

from __future__ import annotations

import json
import time

import numpy as np

from storygen import StoryShape, generate

# About the median of reference() on a 2-vCPU Intel Xeon host. It only sets
# the units: any fixed value compares two commits the same way.
REFERENCE_S = 0.15

_SHAPE = StoryShape(
    panels=60, panels_per_event=4, events_per_macro=5, actions_per_panel=2,
    dialogues_per_panel=1, action_vocab=40, event_vocab=10,
    inflection_rate=0.3, compound_rate=0.5, synonym_rate=0.05, drift=0.2,
)
_VECTORS = [np.random.default_rng(i).random(64) for i in range(200)]


def _loop() -> int:
    total = 0
    for i in range(350_000):
        total += i * i
    return total


def _dicts() -> int:
    counts: dict[str, int] = {}
    for i in range(80_000):
        key = "k%d" % (i % 997)
        counts[key] = counts.get(key, 0) + i
    return len(counts)


def _objects() -> int:
    # in batches, so that the reference adds little to a worker's peak RSS
    built = 0
    for batch in range(8):
        rows = [{"id": "p%d" % i, "pair": [i, i + 1], "text": str(i)}
                for i in range(batch * 5_000, (batch + 1) * 5_000)]
        built += len(rows)
    return built


def _numpy() -> float:
    total = 0.0
    for _ in range(7):
        for a in _VECTORS:
            for b in _VECTORS[:20]:
                total += float(np.dot(a, b))
    return total


def _stories() -> int:
    size = 0
    for seed in range(10):
        size += len(json.loads(generate(_SHAPE, seed).doc_bytes())["macro_events"])
    return size


def reference() -> float:
    """Seconds one run of the fixed work takes on this host right now."""
    start = time.perf_counter()
    _loop()
    _dicts()
    _objects()
    _numpy()
    _stories()
    return time.perf_counter() - start
