"""The in-neighbour tables a graph builds from its out-tables: built only
when read, each by the query that reads it, shared with relabeled copies,
and equal to a scan of edges() on every kind."""

import pytest

from nkg.builder import build_all
from nkg.fixtures import generate_fixture
from nkg.graph import EdgeKind, NarrativeGraph, Node, NodeKind, deserialize, ends
from nkg.normalize import apply_normalization
from nkg.reasoner import summarize_event, trace_dialogue
from test_properties import norm_maps


def in_views(graph):
    """The kinds whose in-view the graph's shared store holds."""
    return {key[1] for key in graph._shared if isinstance(key, tuple) and key[0] == "in"}


def test_in_views_are_built_only_when_read():
    graph = build_all(generate_fixture("battle"))
    raw = graph.to_json_bytes()
    read = deserialize(raw)
    assert in_views(graph) == in_views(read) == set()


def test_first_dialogue_trace_builds_only_the_grounded_in_view():
    graph = build_all(generate_fixture("battle"))
    trace_dialogue(graph, graph.nodes(NodeKind.EVENT)[0].id)
    assert in_views(graph) == {EdgeKind.GROUNDED_IN}


def test_macro_event_summary_builds_only_the_subevent_and_precedes_views():
    graph = build_all(generate_fixture("battle"))
    summarize_event(graph, graph.nodes(NodeKind.MACRO_EVENT)[0].id)
    assert in_views(graph) == {EdgeKind.SUBEVENT_OF, EdgeKind.PRECEDES}


@pytest.mark.parametrize("first", ["raw", "normalized"])
def test_in_views_are_shared_with_relabeled_copies(first):
    doc = generate_fixture("romance")
    raw = build_all(doc)
    norm = apply_normalization(raw, norm_maps(doc)[0])
    graphs = {"raw": raw, "normalized": norm}
    for kind in EdgeKind:
        view = graphs[first].table(kind, "in")
        assert raw.table(kind, "in") is view and norm.table(kind, "in") is view


def test_an_unfrozen_graph_builds_its_in_view_on_every_read():
    graph = NarrativeGraph("s")
    for node_id in "abc":
        graph.add_node(Node(node_id, NodeKind.OBJECT, {"label": node_id}))
    graph.add_edge("a", "c", EdgeKind.CO_OCCURS_WITH)
    graph.add_edge("b", "c", EdgeKind.CO_OCCURS_WITH)
    kind = EdgeKind.CO_OCCURS_WITH
    assert graph.table(kind, "in") == {"c": {"a", "b"}}
    assert graph.table(kind, "in") is not graph.table(kind, "in")
    assert in_views(graph) == set()
    graph.finalize()
    assert graph.table(kind, "in") is graph.table(kind, "in")
    assert in_views(graph) == {kind}


STORIES = [("battle", 0, 0.0), ("romance", 0, 0.0)] + [
    ("noise", seed, variance) for seed in range(4) for variance in (0.0, 0.6)
]


@pytest.mark.parametrize("kind_seed_variance", STORIES, ids=str)
def test_in_views_equal_a_scan_of_the_edges(kind_seed_variance):
    story, seed, variance = kind_seed_variance
    graph = build_all(generate_fixture(story, seed=seed, variance=variance))
    for kind in EdgeKind:
        want: dict[str, list[str]] = {}
        for edge in graph.edges(kind):
            want.setdefault(edge.dst, []).append(edge.src)
        view = graph.table(kind, "in")
        assert {dst: sorted(ends(entry)) for dst, entry in view.items()} == want
        # a bare id for one source, a set from the second, as in the out-tables
        assert all(isinstance(e, str) or (type(e) is set and len(e) >= 2) for e in view.values())
