"""Property tests on generated annotation documents.

Documents are small (at most 3 macro-events x 3 events x 3 panels) with
permuted reading and storytime orders and random characters, objects, actions, dialogue
and captions, so the round-trip and idempotence guarantees are checked
beyond the packaged fixtures.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkg.annotations import (
    ActionAnn,
    AnnotationDoc,
    CharacterAnn,
    DialogueAnn,
    EventAnn,
    MacroEventAnn,
    ObjectAnn,
    PanelAnn,
    parse_annotations,
    validate_annotations,
)
from nkg.builder import build_all
from nkg.embedding import HashedNgramProvider
from nkg.errors import ProviderError, UnknownNode
from nkg.fixtures import generate_fixture
from nkg.graph import PANEL_ORDERS, NarrativeGraph, Node, NodeKind, deserialize
from nkg.lexicon import SynonymLexicon, fold_label, lexical_key
from nkg.normalize import (
    LabelCluster,
    NormalizationMap,
    apply_normalization,
    build_normalization_map,
    collect_label_pools,
    link_similarity,
    provider_from_id,
)
from nkg.reasoner import ActionHit, reconstruct_timeline, retrieve_actions
from nkg.resources import default_lexicon

# small and derandomized so the suite stays fast and every run sees the same documents
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
HASHED = HashedNgramProvider()
LEXICON = default_lexicon()

# inflections, case and separator variants and lexicon synonyms, so that
# clusters form; free labels add ones no rule or lexicon group knows
ACTION_LABELS = (
    "walk", "walked", "Walking", "hit", "strike", "fight", "attack",
    "insert", "insert_into", "Insert-Into", "pick up", "pick_up", "look at",
)
EVENT_LABELS = ("Intro", "intro", "Monster intro", "First clash", "first-clash", "Meet")
labels = st.one_of(
    st.sampled_from(ACTION_LABELS),
    st.builds(str.__add__, st.sampled_from("aBz"), st.text("aeknrtBZ _-", max_size=8)),
)
# quotes, backslashes, newlines and non-ASCII exercise the JSON escaping
texts = st.text('ab "\\\né✓', min_size=1, max_size=8)


@st.composite
def panels(draw, panel_id: str, reading_order: int, storytime_order: int) -> PanelAnn:
    characters = tuple(
        CharacterAnn(f"c:{panel_id}:{k}", entity, draw(st.sampled_from(("", entity.title()))))
        for k, entity in enumerate(
            draw(st.lists(st.sampled_from(("ann", "bob", "cat", "dog")), max_size=3))
        )
    )
    objects = tuple(
        ObjectAnn(f"o:{panel_id}:{k}", label)
        for k, label in enumerate(draw(st.lists(labels, max_size=2)))
    )
    local_characters = [None] + [c.instance_id for c in characters]
    targets = local_characters + [o.instance_id for o in objects]
    actions = tuple(
        ActionAnn(
            f"a:{panel_id}:{k}",
            draw(labels),
            agent=draw(st.sampled_from(local_characters)),
            target=draw(st.sampled_from(targets)),
        )
        for k in range(draw(st.integers(0, 3)))
    )
    dialogues = tuple(
        DialogueAnn(f"d:{panel_id}:{k}", draw(texts), draw(st.sampled_from(local_characters)))
        for k in range(draw(st.integers(0, 2)))
    )
    return PanelAnn(
        panel_id,
        reading_order,
        storytime_order,
        characters=characters,
        objects=objects,
        actions=actions,
        dialogues=dialogues,
        captions=tuple(draw(st.lists(texts, max_size=1))),
    )


@st.composite
def documents(draw) -> AnnotationDoc:
    shape = draw(
        st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3), min_size=1, max_size=3)
    )
    reading = draw(st.permutations(range(sum(map(sum, shape)))))
    storytime = draw(st.permutations(range(sum(map(sum, shape)))))
    position = 0
    macros = []
    for mi, event_sizes in enumerate(shape):
        events = []
        for ei, size in enumerate(event_sizes):
            event_panels = []
            for pi in range(size):
                event_panels.append(draw(panels(f"{mi}_{ei}_{pi}", reading[position], storytime[position])))
                position += 1
            events.append(
                EventAnn(f"e{mi}_{ei}", draw(st.sampled_from(EVENT_LABELS)), tuple(event_panels))
            )
        macros.append(MacroEventAnn(f"m{mi}", draw(st.sampled_from(EVENT_LABELS)), tuple(events)))
    return AnnotationDoc(draw(st.sampled_from(("gen", "générée"))), tuple(macros))


@PROPERTY_SETTINGS
@given(documents())
def test_annotation_round_trip(doc):
    assert validate_annotations(doc) == []
    assert parse_annotations(doc.to_json_bytes()) == doc


@PROPERTY_SETTINGS
@given(documents())
def test_built_graph_bytes_survive_deserialization(doc):
    built = build_all(doc).to_json_bytes()
    assert deserialize(built).to_json_bytes() == built


@PROPERTY_SETTINGS
@given(documents())
def test_normalization_is_idempotent(doc):
    norm_map = build_normalization_map(doc, HASHED, LEXICON, 0.75)
    normalized = apply_normalization(build_all(doc), norm_map).to_json_bytes()
    thawed = json.loads(normalized)
    thawed["normalized"] = False
    again = apply_normalization(deserialize(json.dumps(thawed).encode()), norm_map)
    assert again.to_json_bytes() == normalized


def rebuild_normalized(graph, norm_map):
    """Reference relabel: a new graph rebuilt node by node and edge by edge
    through add_node and add_edge, then finalized."""
    pools = {NodeKind.ACTION: "action", NodeKind.EVENT: "event", NodeKind.MACRO_EVENT: "event"}
    out = NarrativeGraph(graph.story_id, normalized=True)
    for node in graph.nodes():
        if node.kind in pools:
            attrs = dict(node.attrs)
            attrs["label"] = norm_map.lookup(node.label(), pools[node.kind])
            attrs.setdefault("surface_label", node.label())
            node = Node(node.id, node.kind, attrs)
        out.add_node(node)
    for edge in graph.edges():
        out.add_edge(edge.src, edge.dst, edge.kind)
    return out.finalize()


def norm_maps(source):
    """An embedding map at the default threshold and a lexical-only one, from
    a document or a graph."""
    return (
        build_normalization_map(source, HASHED, LEXICON, 0.75),
        build_normalization_map(source, None, SynonymLexicon.empty(), 1.0),
    )


def assert_relabel_equals_rebuild(doc):
    raw = build_all(doc)
    for norm_map in norm_maps(doc):
        want = rebuild_normalized(raw, norm_map)
        got = apply_normalization(raw, norm_map)
        assert got == want
        assert got.to_json_bytes() == want.to_json_bytes()
        assert got.frozen and got.normalized


@PROPERTY_SETTINGS
@given(documents())
def test_relabel_equals_rebuild(doc):
    assert_relabel_equals_rebuild(doc)


def test_relabel_equals_rebuild_on_fixtures():
    for kind in ("battle", "romance"):
        assert_relabel_equals_rebuild(generate_fixture(kind))
    assert_relabel_equals_rebuild(generate_fixture("noise", seed=3, variance=0.9))


class CaughtLabels:
    """Stands in for a raw graph to catch the labels that apply_normalization
    hands to relabeled()."""

    normalized = False

    def __init__(self, graph):
        self.nodes = graph.nodes

    def relabeled(self, labels):
        return dict(labels)


def finalize_relabeled(graph, labels):
    """Reference relabel, as it was before it skipped finalize(): copy the
    frozen graph, add each relabeled node through add_node, share the edge
    tables and run the whole finalize() again."""
    out = NarrativeGraph(graph.story_id, normalized=True)
    out._nodes = dict(graph._nodes)
    for node_id, label in labels.items():
        old = out._nodes.pop(node_id, None)
        if old is None:
            raise UnknownNode(node_id)
        attrs = {"surface_label": old.label(), **old.attrs, "label": label}
        out.add_node(Node(node_id, old.kind, attrs))
    out._out = graph._out
    return out.finalize()


def assert_relabeled_equals_finalize_oracle(doc):
    raw = build_all(doc)
    for norm_map in norm_maps(doc):
        labels = apply_normalization(CaughtLabels(raw), norm_map)
        want = finalize_relabeled(raw, labels)
        got = raw.relabeled(labels)
        assert got == want == apply_normalization(raw, norm_map)
        assert got.to_json_bytes() == want.to_json_bytes()
        assert got.frozen and got.normalized


@PROPERTY_SETTINGS
@given(documents())
def test_relabeled_equals_finalize_oracle(doc):
    assert_relabeled_equals_finalize_oracle(doc)


# the packaged stories and noise documents with and without label variance
FIXTURE_CASES = [("battle", 0, 0.0), ("romance", 0, 0.0)] + [
    ("noise", seed, variance) for seed in range(4) for variance in (0.0, 0.6)
]


@pytest.mark.parametrize("kind, seed, variance", FIXTURE_CASES)
def test_relabeled_equals_finalize_oracle_on_fixtures(kind, seed, variance):
    assert_relabeled_equals_finalize_oracle(generate_fixture(kind, seed=seed, variance=variance))


def assert_pool_sources_agree(doc):
    """collect_label_pools reads a document or its graph: both must give the
    same pools, and so the same map bytes."""
    graph = build_all(doc)
    assert collect_label_pools(doc) == collect_label_pools(graph)
    for from_doc, from_graph in zip(norm_maps(doc), norm_maps(graph)):
        assert from_doc.to_json_bytes() == from_graph.to_json_bytes()


@PROPERTY_SETTINGS
@given(documents())
def test_pool_sources_agree(doc):
    assert_pool_sources_agree(doc)


@pytest.mark.parametrize("kind, seed, variance", FIXTURE_CASES)
def test_pool_sources_agree_on_fixtures(kind, seed, variance):
    assert_pool_sources_agree(generate_fixture(kind, seed=seed, variance=variance))


def chain_walk(graph, edge_kind, scope):
    """Reference timeline: walk one chain from its single head, keep the scope's panels."""
    panels = {node.id for node in graph.nodes(NodeKind.PANEL)}
    heads = [p for p in panels if not graph.neighbors(p, edge_kind, "in")]
    assert len(heads) == 1
    walked = [heads[0]]
    while successors := graph.neighbors(walked[-1], edge_kind):
        assert len(successors) == 1
        walked.append(successors[0])
    assert sorted(walked) == sorted(panels)
    return [p for p in walked if p in scope]


@PROPERTY_SETTINGS
@given(documents())
def test_timeline_equals_chain_walk(doc):
    graph = build_all(doc)
    scopes = {"story": {p.id for _, _, p in doc.iter_panels()}}
    for macro in doc.macro_events:
        scopes[macro.id] = {p.id for e in macro.events for p in e.panels}
        for event in macro.events:
            scopes[event.id] = {p.id for p in event.panels}
    for order_kind, (_, edge_kind) in PANEL_ORDERS.items():
        for scope_id, scope in scopes.items():
            timeline = reconstruct_timeline(graph, scope_id, order_kind)
            assert list(timeline.panel_ids) == chain_walk(graph, edge_kind, scope)


def scan_resolve_canonical(graph, query, norm_map, lexicon, provider):
    """Reference resolution: the scans over every action node and map member
    that ran on each query before the action index."""
    folded = fold_label(query)
    if norm_map is None:
        canonical_by_fold, surface_by_fold = {}, {}
        for node in graph.nodes(NodeKind.ACTION):
            canonical_by_fold.setdefault(fold_label(node.label()), node.label())
            surface = node.attrs.get("surface_label", node.label())
            surface_by_fold.setdefault(fold_label(surface), node.label())
        if folded in canonical_by_fold:
            return canonical_by_fold[folded]
        return surface_by_fold.get(folded, query)
    if norm_map.has_label(query, "action"):
        return norm_map.lookup(query, "action")
    for member in sorted(norm_map.pool_labels("action")):
        if fold_label(member) == folded:
            return norm_map.lookup(member, "action")
    lex = lexicon if lexicon is not None else SynonymLexicon.empty()
    prov = provider if provider is not None else provider_from_id(norm_map.provider_id)
    query_key = lexical_key(query, lex)
    linked_to = []
    for cluster in norm_map.clusters:
        if cluster.pool != "action":
            continue
        for member in cluster.members:
            try:
                sim = link_similarity(
                    query, query_key, member, lexical_key(member, lex), prov, lex
                )
            except ProviderError:
                continue
            if sim >= norm_map.threshold:
                linked_to.append((-sim, cluster.canonical))
    return min(linked_to)[1] if linked_to else query


def scan_retrieve_actions(graph, query, mode, norm_map=None, lexicon=None, provider=None):
    """Reference retrieval: fold or compare every action node, then sort."""
    surface = lambda node: node.attrs.get("surface_label", node.label())
    if mode == "raw":
        folded = fold_label(query)
        matched = [n for n in graph.nodes(NodeKind.ACTION) if fold_label(surface(n)) == folded]
    else:
        target = scan_resolve_canonical(graph, query, norm_map, lexicon, provider)
        matched = [n for n in graph.nodes(NodeKind.ACTION) if n.label() == target]
    position = lambda n: int(graph.node(n.attrs["panel"]).attrs["reading_order"])
    matched.sort(key=lambda n: (position(n), n.id))
    return [ActionHit(n.attrs["panel"], n.id, surface(n), n.label()) for n in matched]


def label_variants(label):
    """A label as typed differently: case and separator variants fold alike."""
    spaced = " ".join(label.split("_"))
    return {label, label.upper(), label.swapcase(), f" {spaced}_ ", "__".join(label.split())}


def random_map(surfaces, rng):
    """A map that groups the labels and their upper-case forms at random and
    names each group after any of them, so fold-equal members and canonicals
    land in different clusters."""
    members = sorted(set(surfaces) | {label.upper() for label in surfaces})
    groups: dict[int, list[str]] = {}
    for label in members:
        groups.setdefault(rng.randrange(3), []).append(label)
    clusters = [
        LabelCluster(tuple(group), rng.choice(members), "action") for group in groups.values()
    ]
    return NormalizationMap(clusters, 0.75, HASHED.provider_id)


@PROPERTY_SETTINGS
@given(documents(), st.lists(labels, max_size=4), st.randoms(use_true_random=False))
def test_indexed_action_retrieval_equals_scan(doc, unseen, rng):
    raw = build_all(doc)
    surfaces = {a.label for _, _, p in doc.iter_panels() for a in p.actions}
    queries = set(unseen) | {"never_seen"}
    for label in surfaces:
        queries |= label_variants(label)
    settings = [(raw, "raw", {})]
    maps = [build_normalization_map(doc, HASHED, LEXICON, 0.75)]
    if surfaces:
        maps.append(random_map(surfaces, rng))
    for norm_map in maps:
        normalized = apply_normalization(raw, norm_map)
        queries |= {c.canonical for c in norm_map.clusters if c.pool == "action"}
        settings += [
            (normalized, "raw", {}),
            (normalized, "normalized", {}),
            (normalized, "normalized", {"norm_map": norm_map}),
            (normalized, "normalized", {"norm_map": norm_map, "lexicon": LEXICON}),
            (normalized, "normalized", {"norm_map": norm_map, "provider": HASHED}),
        ]
    for query in sorted(queries):
        for graph, mode, kwargs in settings:
            want = scan_retrieve_actions(graph, query, mode, **kwargs)
            assert retrieve_actions(graph, query, mode, **kwargs) == want, (query, mode, kwargs)
