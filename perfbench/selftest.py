"""Tests of the benchmark itself; not part of the package's test suite.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import storygen  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from nkg.annotations import parse_annotations, validate_annotations  # noqa: E402
from nkg.lexicon import lexical_key  # noqa: E402
from nkg.resources import default_lexicon  # noqa: E402

SMALL = {
    name: dataclasses.replace(shape, panels=60, action_vocab=min(shape.action_vocab, 60),
                              event_vocab=10)
    for name, shape in workloads.SHAPES.items()
}


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "SHAPES", SMALL)


def _prepared(name: str, seed: int, tmp_path: Path):
    workloads.prepare(name, seed, tmp_path)
    workload = workloads.WORKLOADS[name](tmp_path)
    workload.setup()
    return workload


def test_same_seed_same_bytes_and_different_seeds_differ():
    for shape in SMALL.values():
        a, b, c = (storygen.generate(shape, seed) for seed in (3, 3, 4))
        assert a.doc_bytes() == b.doc_bytes() and a.gold_bytes() == b.gold_bytes()
        assert a.truth == b.truth
        assert a.doc_bytes() != c.doc_bytes()


@pytest.mark.parametrize("name", sorted(workloads.SHAPES))
def test_generated_documents_validate(name):
    story = storygen.generate(workloads.SHAPES[name], 7)
    doc = parse_annotations(story.doc_bytes())
    assert validate_annotations(doc) == []
    assert doc.panel_count() == workloads.SHAPES[name].panels == story.truth["panels"]
    labels = {a.label for _, _, p in doc.iter_panels() for a in p.actions}
    assert len(labels) == workloads.SHAPES[name].action_vocab


def test_every_concept_label_folds_to_its_concept():
    lexicon = default_lexicon()
    for shape in workloads.SHAPES.values():
        story = storygen.generate(shape, 11)
        for label, concept in story.truth["concept_of"].items():
            key, want = lexical_key(label, lexicon), lexical_key(concept, lexicon)
            assert key == want or lexicon.same_group(key, want), (label, concept)


def _bindings():
    found = {}
    for name, module in sys.modules.items():
        if name == "nkg" or name.startswith("nkg.") or name == "workloads":
            for key, value in vars(module).items():
                found[(name, key)] = value
                if isinstance(value, type):
                    found.update({(name, key, k): v for k, v in vars(value).items()})
    return found


def test_tracer_restores_every_wrapped_function():
    modules = {n: m for n, m in sys.modules.items() if n == "nkg" or n.startswith("nkg.")}
    before = _bindings()
    trace = tracer.Tracer("t")
    trace.install(modules)
    during = _bindings()
    changed = [k for k in before if during[k] is not before[k]]
    assert ("nkg.evaluation", "retrieve_actions") in changed
    assert ("nkg.lexicon", "fold_label") in changed
    assert ("nkg.graph", "NarrativeGraph", "nodes") in changed
    trace.restore()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_run_reports_every_per_layer_metric(small, tmp_path):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    for name in ("eval-story", "query-mix"):
        inputs = tmp_path / name
        inputs.mkdir()
        run = worker.Run(_prepared(name, 2, inputs), None)
        layers = worker._traced(run, 0.0, 2, None)
        assert sorted(layers) == sorted(m["name"] for m in declared)
        assert run.failed == 0
    assert layers["reasoner.action_miss_p50_ms"] > 0
    assert layers["trace.spans"] > 0


@pytest.mark.parametrize("name", sorted(workloads.SHAPES))
def test_outputs_pass_their_checks(small, tmp_path, name):
    run = worker.Run(_prepared(name, 5, tmp_path), None)
    run.one_pass()
    run.one_pass()  # a second pass must reproduce the first one's digest
    assert run.failed == 0, run.failures
    assert len(run.passes) == 2 and run.digest_status == "unverified"


def test_perturbed_output_fails_the_digest_check(small, tmp_path):
    workload = _prepared("eval-story", 1, tmp_path)
    digest = worker.Run(workload, None)
    digest.one_pass()
    run = worker.Run(workload, digest.first_digest)
    run.one_pass()
    assert run.failed == 0 and run.digest_status == "verified"
    honest = workload.run_pass

    def perturbed():
        report, items, latencies = honest()
        return report.replace(b"T1", b"T9", 1), items, latencies

    workload.run_pass = perturbed
    run.one_pass()
    assert (run.attempted, run.failed) == (2, 1)
    assert "digest" in run.failures[0] and run.digest_status == "mismatch"


def test_wrong_query_result_counts_as_failed(small, tmp_path):
    workload = _prepared("query-mix", 1, tmp_path)
    raw_index = next(i for i, q in enumerate(workload.queries) if q[0] == "action_raw")
    honest = workload.run_pass

    def perturbed():
        results, count, latencies = honest()
        results[raw_index] = results[raw_index][:-1]
        return results, count, latencies

    workload.run_pass = perturbed
    run = worker.Run(workload, None)  # no recorded digest: ground truth still checks
    run.one_pass()
    assert run.failed == 1 and run.attempted == len(workload.queries)


def test_raising_check_counts_every_operation_as_failed(small, tmp_path):
    workload = _prepared("query-mix", 1, tmp_path)

    def broken(output):
        raise KeyError("changed shape")

    workload.check = broken
    run = worker.Run(workload, None)
    run.one_pass()
    assert run.failed == run.attempted == len(workload.queries)
    assert "raised" in run.failures[0]


def test_record_digests_replaces_a_wrong_pinned_digest(small, tmp_path):
    import run as bench

    pinned = tmp_path / "digests.json"
    pinned.write_text(json.dumps({"eval-story": {"5": "0" * 64}}))
    assert bench.record_digests([5], pinned, ("eval-story",)) == 0
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    direct = worker.Run(_prepared("eval-story", 5, inputs), None)
    direct.one_pass()
    assert json.loads(pinned.read_text()) == {"eval-story": {"5": direct.first_digest}}


def test_timings_are_scaled_to_reference_speed():
    import run as bench
    from reference import REFERENCE_S

    # a host half as fast as the reference one: references take twice as long
    result = {"passes": [(2.0, 100, 2 * REFERENCE_S)], "setups": [(0.4, 2 * REFERENCE_S)],
              "peak_rss_mb": 50.0}
    scaled = bench.end_to_end(result)
    assert scaled["items_per_s"]["value"] == pytest.approx(100.0)
    assert scaled["setup_s"]["value"] == pytest.approx(0.2)
    wall = bench.end_to_end(result, scaled=False)
    assert wall["items_per_s"]["value"] == pytest.approx(50.0)
    assert wall["setup_s"]["value"] == pytest.approx(0.4)


def test_every_pass_records_its_reference_time(small, tmp_path):
    run = worker.Run(_prepared("ingest", 1, tmp_path), None)
    run.one_pass()
    (seconds, items, reference_s), = run.passes
    assert seconds > 0 and items == SMALL["ingest"].panels and reference_s > 0
