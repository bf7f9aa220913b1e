import io
import json
import sys
from collections import Counter

import pytest

from nkg import cli, errors, evaluation, resources
from nkg.annotations import parse_annotations
from nkg.builder import build_all
from nkg.cli import main, map_side_path, resolve_config
from nkg.embedding import HashedNgramProvider, load_vector_file
from nkg.errors import (
    AlreadyNormalized,
    CycleIntroduced,
    DanglingReference,
    DuplicateEdge,
    DuplicateId,
    DuplicateNode,
    EmptyGold,
    EmptyLabel,
    ForestViolation,
    GraphError,
    MalformedJson,
    NkgError,
    NotAnEventNode,
    NotNormalized,
    ProviderError,
    SchemaViolation,
    UnknownEndpoint,
    UnknownEntity,
    UnknownEvent,
    UnknownNode,
    UnknownScope,
)
from nkg.fixtures import generate_fixture
from nkg.graph import deserialize
from nkg.normalize import MAX_HASHED_DIM, build_normalization_map, collect_label_pools
from nkg.reasoner import character_trajectory, reconstruct_timeline, trace_dialogue


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("NKG_THRESHOLD", raising=False)
    monkeypatch.delenv("NKG_EMBED_URL", raising=False)


@pytest.fixture
def battle_files(tmp_path):
    doc = tmp_path / "battle.json"
    raw = tmp_path / "raw.json"
    norm = tmp_path / "norm.json"
    assert main(["fixture", "battle", "--output", str(doc)]) == 0
    assert main(["build", "--input", str(doc), "--output", str(raw)]) == 0
    assert (
        main(
            [
                "normalize",
                "--input",
                str(raw),
                "--output",
                str(norm),
                "--gold",
                str(resources.data_path("battle_gold.json")),
            ]
        )
        == 0
    )
    return doc, raw, norm


def read_stdout(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.out)


# --- fixture command ---------------------------------------------------------


def test_fixture_output_validates(tmp_path):
    out = tmp_path / "f.json"
    assert main(["fixture", "battle", "--output", str(out)]) == 0
    doc = parse_annotations(out.read_bytes())
    assert doc.story_id


def test_fixture_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["fixture", "noise", "--seed", "1", "--output", str(a)]) == 0
    assert main(["fixture", "noise", "--seed", "1", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["fixture", "noise", "--seed", "2", "--output", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_fixture_romance_has_insert_variants(capsys):
    assert main(["fixture", "romance"]) == 0
    doc = read_stdout(capsys)
    labels = {
        a["label"]
        for m in doc["macro_events"]
        for e in m["events"]
        for p in e["panels"]
        for a in p["actions"]
    }
    assert {"insert", "insert_into"} <= labels


def test_fixture_unknown_kind():
    assert main(["fixture", "sitcom"]) == 2


# --- build command -----------------------------------------------------------


def test_build_round_trip_and_manifest(tmp_path, battle_files):
    _, raw, _ = battle_files
    graph = deserialize(raw.read_bytes())
    assert graph.to_json_bytes() == raw.read_bytes()
    manifest = resources.manifest("battle")
    assert graph.node_count() == manifest["node_total"]
    assert graph.edge_count() == manifest["edge_total"]
    nodes = Counter(n.kind.value for n in graph.nodes())
    for kind, count in manifest["node_counts"].items():
        assert nodes.get(kind, 0) == count


def test_build_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["build", "--input", str(bad), "--output", str(tmp_path / "x.json")]) == 2


def test_graph_with_layer_that_disagrees_with_kind_exits_2(tmp_path, battle_files):
    _, raw, _ = battle_files
    obj = json.loads(raw.read_bytes())
    assert obj["nodes"][0]["kind"] == "panel"
    obj["nodes"][0]["layer"] = "event"
    bad = tmp_path / "bad_layer.json"
    bad.write_text(json.dumps(obj))
    assert main(["query", "summary", "m3", "--input", str(bad)]) == 2
    assert main(["normalize", "--input", str(bad), "--output", str(tmp_path / "n.json")]) == 2


def test_build_missing_input(tmp_path):
    missing = tmp_path / "absent.json"
    assert main(["build", "--input", str(missing), "--output", str(tmp_path / "x.json")]) == 2


# --- normalize command -------------------------------------------------------


def test_normalize_sets_flag_and_writes_map(battle_files):
    _, raw, norm = battle_files
    graph = deserialize(norm.read_bytes())
    assert graph.normalized
    side = map_side_path(norm)
    assert side.exists()
    # the side file must equal what the library produces on the same inputs
    want = build_normalization_map(
        deserialize(raw.read_bytes()),
        HashedNgramProvider(),
        resources.default_lexicon(),
        0.75,
        gold_labels=set(json.loads(resources.gold_labels_bytes("battle"))["action_clusters"]),
    )
    assert side.read_bytes() == want.to_json_bytes()


def test_normalize_twice_exits_3(tmp_path, battle_files):
    _, _, norm = battle_files
    assert (
        main(["normalize", "--input", str(norm), "--output", str(tmp_path / "again.json")])
        == 3
    )


def test_normalize_provider_failure_exits_4(tmp_path, battle_files):
    _, raw, _ = battle_files
    code = main(
        [
            "normalize",
            "--input",
            str(raw),
            "--output",
            str(tmp_path / "x.json"),
            "--embedder",
            "remote:http://127.0.0.1:9/nkg",
        ]
    )
    assert code == 4


def test_normalize_bad_threshold(tmp_path, battle_files):
    _, raw, _ = battle_files
    args = ["normalize", "--input", str(raw), "--output", str(tmp_path / "x.json")]
    assert main(args + ["--threshold", "1.5"]) == 2


def test_query_rejects_map_threshold_outside_unit_interval(tmp_path, battle_files):
    _, _, norm = battle_files
    bad = tmp_path / "map.json"
    bad.write_text('{"schema_version": 1, "threshold": 2.5, "provider_id": "x", "clusters": []}')
    args = ["query", "action", "attack", "--input", str(norm), "--mode", "normalized"]
    assert main(args + ["--map", str(bad)]) == 2


@pytest.mark.parametrize(
    "dim, code", [(256, 0), (MAX_HASHED_DIM, 0), (MAX_HASHED_DIM + 1, 2), (1000000000, 2)]
)
def test_query_bounds_the_hashed_dimension_a_map_names(tmp_path, battle_files, capsys, dim, code):
    _, _, norm = battle_files
    side = json.loads((tmp_path / "norm.map.json").read_text())
    side["provider_id"] = f"hashed:fnv1a-trigram:{dim}"
    path = tmp_path / "dim.map.json"
    path.write_text(json.dumps(side))
    # shout_out is no map member: the query falls back to embedding at the map's dimension
    args = ["query", "action", "shout_out", "--input", str(norm), "--mode", "normalized"]
    assert main(args + ["--map", str(path)]) == code
    err = capsys.readouterr().err
    assert ("$.provider_id" in err) is (code == 2)


def test_query_rejects_map_with_separator_only_member(tmp_path, battle_files, capsys):
    _, _, norm = battle_files
    side = json.loads((tmp_path / "norm.map.json").read_text())
    side["clusters"][0]["members"].append("_")
    bad = tmp_path / "bad.map.json"
    bad.write_text(json.dumps(side))
    args = ["query", "action", "ATTACK", "--input", str(norm), "--mode", "normalized"]
    assert main(args + ["--map", str(bad)]) == 2
    assert "members" in capsys.readouterr().err


@pytest.mark.parametrize(
    "member_lists, reason",
    [
        ([["walk", "stroll"], ["run", "stroll"]], "'stroll' appears twice"),
        ([["walk"], ["run", "jog", "run"]], "'run' appears twice"),
    ],
    ids=["two-clusters", "one-cluster"],
)
def test_query_names_the_json_path_of_a_repeated_map_label(
    tmp_path, battle_files, capsys, member_lists, reason
):
    _, _, norm = battle_files
    clusters = [{"pool": "action", "canonical": m[0], "members": m} for m in member_lists]
    side = {"schema_version": 1, "threshold": 0.75, "provider_id": "x", "clusters": clusters}
    bad = tmp_path / "bad.map.json"
    bad.write_text(json.dumps(side))
    args = ["query", "action", "attack", "--input", str(norm), "--mode", "normalized"]
    assert main(args + ["--map", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"$.clusters[1].members: label {reason}" in err


def set_node_attr(obj, node_id, key, value):
    attrs = next(n for n in obj["nodes"] if n["id"] == node_id)["attrs"]
    if value is None:
        del attrs[key]
    else:
        attrs[key] = value


def swap_reading_orders(obj):
    set_node_attr(obj, "0_0_0", "reading_order", "1")
    set_node_attr(obj, "0_0_1", "reading_order", "0")


def strip_reading_chain(obj):
    obj["edges"] = [e for e in obj["edges"] if e["kind"] != "precedes_reading"]


def underscore_reading_orders(obj):
    """Each reading_order n becomes "n_0": int() reads n0, which keeps the
    order, but the file no longer writes it as str(int)."""
    for node in obj["nodes"]:
        if node["kind"] == "panel":
            node["attrs"]["reading_order"] += "_0"


# each: how a battle graph file is edited, and a query that reads what the edit broke
BROKEN_GRAPH_QUERIES = {
    "swapped-reading-order": (swap_reading_orders, ["summary", "e0_0"]),
    "stripped-reading-chain": (strip_reading_chain, ["timeline", "story"]),
    "missing-reading-order": (
        lambda obj: set_node_attr(obj, "0_0_1", "reading_order", None),
        ["timeline", "e0_0"],
    ),
    "action-without-panel": (
        lambda obj: set_node_attr(obj, "a:0_0_0:0", "panel", None),
        ["action", "walk"],
    ),
    "character-without-entity-id": (
        lambda obj: set_node_attr(obj, "entity:charA", "entity_id", None),
        ["dialogue", "e3_0"],
    ),
    "speaker-names-no-node": (
        lambda obj: set_node_attr(obj, "d:3_0_0:0", "speaker", "c:nobody"),
        ["dialogue", "e3_0"],
    ),
    "underscored-reading-orders": (underscore_reading_orders, ["timeline", "story"]),
}


@pytest.mark.parametrize("case", sorted(BROKEN_GRAPH_QUERIES))
def test_query_exits_2_on_graph_file_that_fails_the_read_check(tmp_path, battle_files, capsys, case):
    _, raw, _ = battle_files
    edit, query = BROKEN_GRAPH_QUERIES[case]
    assert main(["query", *query, "--input", str(raw)]) == 0
    obj = json.loads(raw.read_bytes())
    edit(obj)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["query", *query, "--input", str(broken)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def dumped(change):
    def edit(obj):
        change(obj)
        return json.dumps(obj).encode()
    return edit


def append_edge(src, dst, kind):
    return lambda obj: obj["edges"].append({"src": src, "dst": dst, "kind": kind})


# one graph file per exception class the reader raises: an edited battle graph's bytes
READ_ERRORS = {
    MalformedJson: lambda obj: json.dumps(obj).encode()[:-1],
    SchemaViolation: dumped(lambda obj: obj["nodes"][0].update(kind=["panel"])),
    DuplicateNode: dumped(lambda obj: obj["nodes"].append(obj["nodes"][0])),
    DuplicateEdge: dumped(lambda obj: obj["edges"].append(obj["edges"][0])),
    UnknownEndpoint: dumped(append_edge("0_0_0", "ghost", "co_occurs_with")),
    ForestViolation: dumped(append_edge("e0_0", "m1", "subevent_of")),
    CycleIntroduced: dumped(append_edge("m0", "e0_0", "subevent_of")),
}


@pytest.mark.parametrize("error", list(READ_ERRORS), ids=lambda error: error.__name__)
def test_query_exits_2_for_each_class_of_read_error(tmp_path, battle_files, capsys, error):
    _, raw, _ = battle_files
    broken = tmp_path / "broken.json"
    broken.write_bytes(READ_ERRORS[error](json.loads(raw.read_bytes())))
    with pytest.raises(error) as raised:
        deserialize(broken.read_bytes())
    assert type(raised.value) is error
    capsys.readouterr()
    assert main(["query", "timeline", "story", "--input", str(broken)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def build_with_doc(change):
    def argv(tmp_path, files):
        obj = json.loads(files[0].read_bytes())
        change(obj)
        doc = tmp_path / "edited.json"
        doc.write_text(json.dumps(obj))
        return ["build", "--input", str(doc), "--output", str(tmp_path / "g.json")]
    return argv


def build_with_first_panel(change):
    return build_with_doc(lambda obj: change(obj["macro_events"][0]["events"][0]["panels"][0]))


def query_with_map(clusters):
    def argv(tmp_path, files):
        side = tmp_path / "bad.map.json"
        side.write_text(json.dumps(
            {"schema_version": 1, "threshold": 0.75, "provider_id": "x", "clusters": clusters}
        ))
        return ["query", "action", "attack", "--input", str(files[2]), "--mode", "normalized",
                "--map", str(side)]
    return argv


def normalize_with_config(config):
    def argv(tmp_path, files):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        return ["normalize", "--input", str(files[1]), "--output", str(tmp_path / "n.json"),
                "--config", str(path)]
    return argv


def query_graph_nested_too_deep(tmp_path, files):
    graph = tmp_path / "deep.json"
    graph.write_text("[" * 100_000)
    return ["query", "timeline", "story", "--input", str(graph)]


# each: the argv of a command given a valid-JSON but mistyped input, and what
# its error message names
MISTYPED_INPUTS = {
    "panel-characters-a-number": (
        build_with_first_panel(lambda p: p.update(characters=5)),
        "$.macro_events[0].events[0].panels[0].characters",
    ),
    "panel-character-a-string": (
        build_with_first_panel(lambda p: p.update(characters=["instance_id"])),
        "$.macro_events[0].events[0].panels[0].characters[0]",
    ),
    "panel-action-null": (
        build_with_first_panel(lambda p: p.update(actions=[None])),
        "$.macro_events[0].events[0].panels[0].actions[0]",
    ),
    "story-id-empty": (
        build_with_doc(lambda obj: obj.update(story_id="")), "$.story_id: must be nonempty"
    ),
    "character-entity-id-empty": (
        build_with_first_panel(lambda p: p["characters"][0].update(entity_id="")),
        "$.macro_events[0].events[0].panels[0].characters[0]: entity_id must be nonempty",
    ),
    "map-clusters-a-number": (query_with_map(5), "$.clusters"),
    "config-embedder-a-number": (normalize_with_config({"embedder": 5}), "$.embedder"),
    "config-lexicon-a-number": (normalize_with_config({"lexicon": 5}), "$.lexicon"),
    "graph-nested-too-deep": (query_graph_nested_too_deep, "invalid graph JSON"),
}


@pytest.mark.parametrize("case", sorted(MISTYPED_INPUTS))
def test_mistyped_input_exits_2_and_names_its_path(tmp_path, battle_files, capsys, case):
    argv, named = MISTYPED_INPUTS[case]
    capsys.readouterr()
    assert main(argv(tmp_path, battle_files)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


# --- query command -----------------------------------------------------------


def test_query_action_normalized(battle_files, capsys):
    _, _, norm = battle_files
    assert main(["query", "action", "attack", "--input", str(norm), "--mode", "normalized"]) == 0
    hits = read_stdout(capsys)
    assert [h["panel_id"] for h in hits] == ["1_0_0", "3_1_1", "4_0_0"]
    assert {h["surface_label"] for h in hits} == {"fight", "strike", "hit"}


def test_query_timeline(battle_files, capsys):
    _, raw, _ = battle_files
    assert main(["query", "timeline", "m0", "--input", str(raw), "--order", "reading"]) == 0
    result = read_stdout(capsys)
    assert result["panel_ids"][0] == "0_0_0"
    assert result["panel_ids"][-1] == "0_2_3"


def test_query_matches_library(battle_files, capsys):
    _, raw, _ = battle_files
    assert main(["query", "trajectory", "charA", "--input", str(raw)]) == 0
    got = read_stdout(capsys)
    want = character_trajectory(deserialize(raw.read_bytes()), "charA").as_dict()
    assert got == want


def test_query_unknown_ids_exit_5(battle_files):
    _, raw, _ = battle_files
    assert main(["query", "summary", "0_0_0", "--input", str(raw)]) == 5
    assert main(["query", "dialogue", "e9_9", "--input", str(raw)]) == 5
    assert main(["query", "trajectory", "nobody", "--input", str(raw)]) == 5
    assert main(["query", "timeline", "zzz", "--input", str(raw)]) == 5


@pytest.mark.parametrize("label", ["", "  "])
def test_query_with_a_blank_label_exits_2_and_says_why(battle_files, capsys, label):
    _, raw, _ = battle_files
    capsys.readouterr()
    assert main(["query", "action", label, "--input", str(raw)]) == 2
    assert capsys.readouterr().err == f"error: label has no token: {label!r}\n"


def test_query_mode_mismatch_exits_6(battle_files):
    _, raw, _ = battle_files
    assert main(["query", "action", "fight", "--input", str(raw), "--mode", "normalized"]) == 6


def test_raw_action_query_reads_no_map_sidecar(battle_files, capsys):
    _, _, norm = battle_files
    args = ["query", "action", "Fight", "--input", str(norm)]
    side = map_side_path(norm)
    good = side.read_bytes()
    side.unlink()
    assert main(args + ["--mode", "raw"]) == 0
    want = read_stdout(capsys)
    assert [h["surface_label"] for h in want] == ["fight"]
    side.write_text('{"schema_version": 1, "threshold": 2.5, "provider_id": "x", "clusters": []}')
    assert main(args + ["--mode", "raw"]) == 0
    assert read_stdout(capsys) == want
    assert main(args + ["--mode", "normalized"]) == 2
    assert "$.threshold" in capsys.readouterr().err
    side.write_bytes(good)
    assert main(args + ["--mode", "normalized"]) == 0


def test_map_sits_beside_an_output_without_json(tmp_path, battle_files, capsys):
    _, raw, _ = battle_files
    out = tmp_path / "norm.graph"
    assert main(["normalize", "--input", str(raw), "--output", str(out)]) == 0
    side = map_side_path(out)
    assert side == tmp_path / "norm.graph.map.json" and side.exists()
    args = ["query", "action", "attack", "--input", str(out), "--mode", "normalized"]
    assert main(args) == 0
    assert {h["surface_label"] for h in read_stdout(capsys)} >= {"fight", "strike"}
    side.unlink()
    assert main(args) == 0
    assert read_stdout(capsys) == []


def test_raw_action_query_builds_no_embedder(battle_files, capsys):
    _, _, norm = battle_files
    action = ["query", "action", "fight", "--input", str(norm), "--mode"]
    bad = ["--embedder", "remote:ftp://x"]
    assert main(action + ["raw"]) == 0
    want = read_stdout(capsys)
    assert main(action + ["raw"] + bad) == 0
    assert read_stdout(capsys) == want
    assert main(["query", "dialogue", "e0_0", "--input", str(norm)] + bad) == 0
    capsys.readouterr()
    assert main(action + ["normalized"] + bad) == 2
    assert "http(s) URL" in capsys.readouterr().err


def test_queries_that_use_no_settings_read_none(tmp_path, battle_files, capsys, monkeypatch):
    _, raw, norm = battle_files
    config = tmp_path / "cfg.json"
    config.write_text('{"threshold": 7}')
    graph = deserialize(raw.read_bytes())
    assert main(["query", "timeline", "story", "--input", str(raw), "--config", str(config)]) == 0
    assert read_stdout(capsys) == reconstruct_timeline(graph, "story").as_dict()
    monkeypatch.setenv("NKG_THRESHOLD", "abc")
    assert main(["query", "dialogue", "e0_0", "--input", str(raw)]) == 0
    assert read_stdout(capsys) == trace_dialogue(graph, "e0_0").as_dict()
    assert main(["query", "action", "fight", "--input", str(norm), "--mode", "normalized"]) == 2
    assert "NKG_THRESHOLD" in capsys.readouterr().err


def write_vector_file(path, labels):
    provider = HashedNgramProvider(16)
    vectors = {label: provider.embed(label).tolist() for label in labels}
    path.write_text(json.dumps({"dim": 16, "vectors": vectors}))


def test_normalize_with_a_vector_file_embedder(tmp_path, battle_files, capsys):
    _, raw, _ = battle_files
    graph = deserialize(raw.read_bytes())
    actions, events = collect_label_pools(graph)
    vectors, out = tmp_path / "vectors.json", tmp_path / "n.json"
    args = ["normalize", "--input", str(raw), "--output", str(out), "--embedder", f"file:{vectors}"]
    write_vector_file(vectors, actions.keys() | events.keys())
    assert main(args) == 0
    side = map_side_path(out).read_bytes()
    assert json.loads(side)["provider_id"] == f"file:{vectors}"
    provider = load_vector_file(str(vectors))
    want = build_normalization_map(graph, provider, resources.default_lexicon(), 0.75)
    assert side == want.to_json_bytes()
    # the battle action pool spans many buckets, so each of its labels needs a vector
    left_out = min(actions)
    write_vector_file(vectors, actions.keys() - {left_out} | events.keys())
    capsys.readouterr()
    assert main(args) == 4
    assert repr(left_out) in capsys.readouterr().err


# --- exit codes --------------------------------------------------------------

# The ordered table main() matched errors against before each error class
# carried its own exit_code; the first row that fits wins.
OLD_EXIT_MAP = (
    (NotNormalized, 6),
    ((UnknownEvent, UnknownEntity, UnknownScope, UnknownNode, NotAnEventNode), 5),
    (ProviderError, 4),
    (AlreadyNormalized, 3),
    (
        (
            MalformedJson,
            SchemaViolation,
            DuplicateId,
            DanglingReference,
            EmptyLabel,
            GraphError,
            ValueError,
            OSError,
        ),
        2,
    ),
    (NkgError, 1),
)
ERROR_CLASSES = [
    cls
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, NkgError)
]


def old_exit_code(exc: Exception) -> int:
    return next((code for types, code in OLD_EXIT_MAP if isinstance(exc, types)), 1)


def fail_with(monkeypatch, exc: Exception) -> None:
    """Make `nkg fixture` raise exc."""

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_fixture", fail)


@pytest.mark.parametrize(
    "cls", [*ERROR_CLASSES, ValueError, OSError], ids=lambda cls: cls.__name__
)
def test_every_error_exits_with_the_code_of_the_old_table(cls, monkeypatch, capsys):
    exc = cls.__new__(cls)  # no constructor arguments: only the class matters here
    if issubclass(cls, NkgError):
        assert cls.exit_code == old_exit_code(exc)
    fail_with(monkeypatch, exc)
    assert main(["fixture", "battle"]) == old_exit_code(exc)
    assert capsys.readouterr().err.startswith("error: ")


def test_error_without_a_more_specific_code_exits_1(monkeypatch, capsys):
    fail_with(monkeypatch, EmptyGold("no gold instances"))
    assert main(["fixture", "battle"]) == 1
    assert capsys.readouterr().err == "error: no gold instances\n"


def test_bug_exits_1_as_internal_error(monkeypatch, capsys):
    fail_with(monkeypatch, RuntimeError("boom"))
    assert main(["fixture", "battle"]) == 1
    assert capsys.readouterr().err == "internal error: RuntimeError('boom')\n"


@pytest.mark.parametrize(
    "flag, content, path",
    [
        ("--gold", {"action_clusters": {"attack": ["", "fight"]}}, "$.action_clusters['attack']"),
        (
            "--gold",
            {"action_clusters": {"attack": ["fight", "strike"], "hit": ["strike", "hit"]}},
            "$.action_clusters['hit']",
        ),
        ("--lexicon", {"groups": [["attack", "strike"], ["_", "hit"]]}, "$.groups[1]"),
        ("--lexicon", {"lemma_exceptions": {"ran": "run fast"}}, "$.lemma_exceptions"),
    ],
)
def test_eval_blank_or_overlapping_labels_exit_2_with_their_path(
    tmp_path, battle_files, capsys, flag, content, path
):
    doc, _, _ = battle_files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    capsys.readouterr()
    assert main(["eval", "--input", str(doc), flag, str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


# --- eval command ------------------------------------------------------------


def test_eval_markdown_rows(tmp_path, capsys):
    doc = tmp_path / "romance.json"
    assert main(["fixture", "romance", "--output", str(doc)]) == 0
    assert (
        main(
            [
                "eval",
                "--input",
                str(doc),
                "--gold",
                str(resources.data_path("romance_gold.json")),
                "--format",
                "md",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    for label in ("Message from family", "Shock by message", "Think of family"):
        assert label in out
    assert out.splitlines()[0].startswith("| macro-event |")


def test_eval_reads_the_gold_file_once(tmp_path, monkeypatch, capsys):
    reads = []
    load_gold_labels = evaluation.load_gold_labels

    def counting(raw):
        reads.append(raw)
        return load_gold_labels(raw)

    monkeypatch.setattr(evaluation, "load_gold_labels", counting)
    monkeypatch.setattr(cli, "load_gold_labels", counting)
    doc = tmp_path / "romance.json"
    assert main(["fixture", "romance", "--output", str(doc)]) == 0
    gold = resources.data_path("romance_gold.json")
    assert main(["eval", "--input", str(doc), "--gold", str(gold), "--format", "json"]) == 0
    assert len(reads) == 1
    assert read_stdout(capsys)["metadata"]["action_cluster_count"] > 0


def test_eval_threshold_monotone_cluster_counts(tmp_path, capsys):
    doc = tmp_path / "romance.json"
    assert main(["fixture", "romance", "--output", str(doc)]) == 0
    counts = {}
    for theta in ("0.0", "1.0"):
        assert (
            main(["eval", "--input", str(doc), "--threshold", theta, "--format", "json"])
            == 0
        )
        report = read_stdout(capsys)
        counts[theta] = report["metadata"]["action_cluster_count"]
        assert report["metadata"]["threshold"] == float(theta)
    assert counts["0.0"] <= counts["1.0"]


def test_eval_minimal_doc(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "story_id": "mini",
        "macro_events": [
            {
                "id": "m0",
                "label": "Solo arc",
                "events": [
                    {
                        "id": "e0_0",
                        "label": "Only scene",
                        "panels": [
                            {"id": "0_0_0", "reading_order": 0, "storytime_order": 0}
                        ],
                    }
                ],
            }
        ],
    }
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", "--input", str(path), "--format", "md"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert "Solo arc" in lines[2]


def test_eval_output_file_keeps_stdout_clean(tmp_path, capsys):
    doc = tmp_path / "b.json"
    out = tmp_path / "report.csv"
    assert main(["fixture", "battle", "--output", str(doc)]) == 0
    assert (
        main(["eval", "--input", str(doc), "--format", "csv", "--output", str(out)]) == 0
    )
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("task,macro_event_id,variant")


def test_eval_to_an_ascii_stdout_writes_the_output_files_bytes(tmp_path, monkeypatch):
    doc = tmp_path / "b.json"
    out = tmp_path / "report.md"
    assert main(["fixture", "battle", "--output", str(doc)]) == 0
    obj = json.loads(doc.read_bytes())
    obj["macro_events"][0]["label"] = "Intro caf\u00e9"
    doc.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["eval", "--input", str(doc), "--format", "md", "--output", str(out)]) == 0
    assert "| Intro caf\u00e9 |".encode() in out.read_bytes()
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["eval", "--input", str(doc), "--format", "md"]) == 0
    stdout.flush()
    assert stdout.buffer.getvalue() == out.read_bytes()


def test_eval_normalized_all_is_an_unknown_argument(tmp_path, capsys):
    doc = tmp_path / "b.json"
    assert main(["fixture", "battle", "--output", str(doc)]) == 0
    assert main(["eval", "--input", str(doc), "--normalized-all"]) == 2
    assert "unrecognized arguments: --normalized-all" in capsys.readouterr().err


# --- configuration -----------------------------------------------------------


def test_config_precedence(tmp_path, monkeypatch):
    import argparse

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"threshold": 0.3}))

    ns = lambda **kw: argparse.Namespace(**kw)
    base = {"threshold": None, "embedder": None, "lexicon": None, "config": str(config)}

    assert resolve_config(ns(**base)).threshold == 0.3
    monkeypatch.setenv("NKG_THRESHOLD", "0.5")
    assert resolve_config(ns(**base)).threshold == 0.5
    assert resolve_config(ns(**{**base, "threshold": 0.9})).threshold == 0.9
    monkeypatch.delenv("NKG_THRESHOLD")
    assert resolve_config(ns(threshold=None, embedder=None, lexicon=None, config=None)).threshold == 0.75


@pytest.mark.parametrize("value", [True, False])
def test_config_file_boolean_threshold_rejected(tmp_path, battle_files, value):
    # bool is an int subclass in Python; true must not read as threshold 1.0
    _, raw, _ = battle_files
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"threshold": value}))
    out = tmp_path / "x.json"
    args = ["normalize", "--input", str(raw), "--output", str(out), "--config", str(config)]
    assert main(args) == 2
    assert not out.exists()


def test_env_embed_url(monkeypatch):
    import argparse

    monkeypatch.setenv("NKG_EMBED_URL", "http://example.test/embed")
    cfg = resolve_config(
        argparse.Namespace(threshold=None, embedder=None, lexicon=None, config=None)
    )
    assert cfg.embedder == "remote:http://example.test/embed"
    cfg = resolve_config(
        argparse.Namespace(threshold=None, embedder="hashed", lexicon=None, config=None)
    )
    assert cfg.embedder == "hashed"


def test_bad_embedder_spec(battle_files, tmp_path):
    _, raw, _ = battle_files
    code = main(
        [
            "normalize",
            "--input",
            str(raw),
            "--output",
            str(tmp_path / "x.json"),
            "--embedder",
            "telepathy",
        ]
    )
    assert code == 2


def test_build_stdout_is_silent(tmp_path, capsys, battle_files):
    doc, _, _ = battle_files
    out = tmp_path / "g.json"
    assert main(["build", "--input", str(doc), "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""


def test_verbose_logs_progress_to_stderr(tmp_path, capsys, battle_files):
    doc, _, _ = battle_files
    capsys.readouterr()
    out = tmp_path / "g.json"
    assert main(["-v", "build", "--input", str(doc), "--output", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "INFO nkg.cli: built graph for battle" in captured.err


def test_without_verbose_stderr_stays_empty(tmp_path, capsys, battle_files):
    doc, _, _ = battle_files
    capsys.readouterr()
    out = tmp_path / "g.json"
    assert main(["build", "--input", str(doc), "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
