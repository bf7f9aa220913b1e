import hashlib
import itertools
import json
import random
import string
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nkg import normalize as normalize_module
from nkg import resources
from nkg.builder import build_all
from nkg.embedding import (
    HashedNgramProvider,
    VectorFileProvider,
    cosine,
    pair_cosines,
    row_norms,
)
from nkg.errors import AlreadyNormalized, GraphFrozen, MissingLabel, SchemaViolation
from nkg.evaluation import load_gold_labels
from nkg.fixtures import generate_fixture
from nkg.graph import EdgeKind, NarrativeGraph, Node, NodeKind, deserialize
from nkg.jsonio import dump_canonical
from nkg.lexicon import SynonymLexicon, fold_label
from nkg.normalize import (
    ACTION_POOL,
    EVENT_POOL,
    MAX_HASHED_DIM,
    LabelCluster,
    LabelIndex,
    NormalizationMap,
    apply_normalization,
    assign_canonical,
    build_normalization_map,
    cluster_labels,
    collect_label_pools,
    float32_band,
    link_similarity,
    linked,
)
from nkg.lexicon import lexical_key

HASHED = HashedNgramProvider()
COMBAT = SynonymLexicon.build([["attack", "strike", "fight", "hit"]], {})
BATTLE_GOLD = {"attack", "walk", "bow", "meet", "shout"}

# SHA-256 of build_normalization_map(...).to_json_bytes() with the hashed
# provider, the default lexicon and threshold 0.75, keyed by (fixture, seed,
# variance, with the fixture's gold file); recorded before the union-find
# clustering was replaced, so map bytes must not change without a reason
MAP_DIGESTS = {
    ("battle", 0, 0.0, False): "38d9be4b97908caf1ed0726d0b6b096b419bd7062b3fdeaef9122a911eb52d29",
    ("battle", 0, 0.0, True): "1bf66b31c29c44e5c29c92c4d284b8f4eb6ec0ea475ec1568e1c14898650db04",
    ("romance", 0, 0.0, False): "098529a6355c6a3a7f05e8c8c01abed06fa154008cbb98374e0b15447c0048fe",
    ("romance", 0, 0.0, True): "098529a6355c6a3a7f05e8c8c01abed06fa154008cbb98374e0b15447c0048fe",
    ("noise", 0, 0.0, False): "9bc46570454f41dcc2445d47eacae7bc9a2de618e83a8a8011606977561605d4",
    ("noise", 0, 0.6, False): "9cc78de3c79877e33d8929163a229c1d8bb77801d1baf4a56c0927945ee7393b",
    ("noise", 1, 0.0, False): "d99815ec06b828d21e6beb82921fb3474bcb3529fd4674cb1b912ccb683aefdb",
    ("noise", 1, 0.6, False): "c672a8178d9db9e26ba209eaf8b02851940cf3fd8539ef810d17961cc067e355",
    ("noise", 2, 0.0, False): "5611843d86c36b13d873971a54567460375c5b03819d9a5e25114c3fe103efa3",
    ("noise", 2, 0.6, False): "3a0a821ea61272fd61386017f338473219983b87b07d2103f674b0b2a0e9e177",
    ("noise", 3, 0.0, False): "bcf0178953fc77a2a799a8ff37513133355463b6efff7c67015296087c62835c",
    ("noise", 3, 0.6, False): "8aa1406b57a52b55b6f76cf60f71e82f7bac65e1aada35bef5be1aa921d8ab8f",
}


def random_vector_provider(rng, labels, dim=16):
    vectors = {}
    for label in labels:
        vec = np.array([rng.gauss(0, 1) for _ in range(dim)])
        vectors[label] = vec / np.linalg.norm(vec)
    return VectorFileProvider(vectors, dim, source="random")


def random_label_set(rng, max_labels=50):
    n = rng.randint(1, max_labels)
    return {
        "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 8)))
        for _ in range(n)
    }


def bfs_components(labels, provider, lexicon, threshold):
    """Independent clustering: breadth-first search over the pairwise link matrix."""
    ordered = sorted(labels)
    matrix = {
        (a, b): linked(a, b, provider, lexicon, threshold)
        for a, b in itertools.permutations(ordered, 2)
    }
    seen, components = set(), []
    for start in ordered:
        if start in seen:
            continue
        component, queue = [], [start]
        seen.add(start)
        while queue:
            current = queue.pop(0)
            component.append(current)
            for other in ordered:
                if other not in seen and matrix[(current, other)]:
                    seen.add(other)
                    queue.append(other)
        components.append(sorted(component))
    return sorted(components)


def test_synonym_group_merges_inflected_variants():
    clusters = cluster_labels({"attacks", "strikes", "fights"}, HASHED, COMBAT, 0.75)
    assert len(clusters) == 1
    assert clusters[0].members == ("attacks", "fights", "strikes")


def test_singleton_cluster():
    clusters = cluster_labels({"walk"}, HASHED, SynonymLexicon.empty(), 0.75)
    assert clusters == [LabelCluster(("walk",), "", ACTION_POOL)]


@pytest.mark.parametrize("threshold", [-0.1, 1.1, float("nan")], ids=repr)
def test_cluster_labels_rejects_a_threshold_outside_the_unit_interval(threshold):
    with pytest.raises(ValueError, match="threshold must be in"):
        cluster_labels({"walk", "run"}, HASHED, SynonymLexicon.empty(), threshold)


def test_clusters_match_bfs_oracle():
    rng = random.Random(42)
    for _ in range(40):
        labels = random_label_set(rng, max_labels=30)
        provider = random_vector_provider(rng, labels)
        lexicon = SynonymLexicon.empty()
        if rng.random() < 0.3 and len(labels) >= 4:
            lexicon = SynonymLexicon.build([rng.sample(sorted(labels), 2)], {})
        theta = rng.random()
        got = [list(c.members) for c in cluster_labels(labels, provider, lexicon, theta)]
        assert got == bfs_components(labels, provider, lexicon, theta)


# surface variants, lexicon synonyms and free strings, so every link kind occurs
ORACLE_LABELS = st.one_of(
    st.sampled_from(("walk", "walked", "Walking", "hit", "strike", "attack", "insert",
                     "insert_into", "Insert-Into", "eat_67", "eat_89", "eats")),
    st.text("abeikst_", min_size=1, max_size=6).filter(lambda t: t.strip("_")),
)
# small integer vectors give many exact cosine ties between distinct labels
GRID_VECTORS = st.lists(st.integers(-2, 2), min_size=3, max_size=3).filter(any)


@st.composite
def oracle_cases(draw):
    labels = sorted(draw(st.sets(ORACLE_LABELS, min_size=2, max_size=12)))
    if draw(st.booleans()):
        provider = HASHED
    else:
        vectors = {label: draw(GRID_VECTORS) for label in labels}
        provider = VectorFileProvider(vectors, 3, source="grid")
    groups = [draw(st.lists(st.sampled_from(labels), min_size=2, max_size=3, unique=True))]
    lexicon = SynonymLexicon.build(groups if draw(st.booleans()) else [], {})
    a, b = draw(st.lists(st.sampled_from(labels), min_size=2, max_size=2, unique=True))
    # the threshold is exactly one pair's cosine, so that pair sits on the boundary
    threshold = min(max(cosine(provider.embed(a), provider.embed(b)), 0.0), 1.0)
    return labels, provider, lexicon, threshold


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(oracle_cases())
def test_clusters_match_bfs_oracle_at_pair_cosine_thresholds(case):
    labels, provider, lexicon, threshold = case
    got = [list(c.members) for c in cluster_labels(labels, provider, lexicon, threshold)]
    assert got == bfs_components(labels, provider, lexicon, threshold)


def greedy_cluster_labels(labels, provider, lexicon, threshold):
    """The pair-by-pair clustering the batched one replaced: each label, in
    sorted order, merges every cluster it links to."""
    keys = {label: lexical_key(label, lexicon) for label in sorted(set(labels))}
    clusters = []
    for label, key in keys.items():
        merged, apart = [label], []
        for cluster in clusters:
            if any(
                link_similarity(m, keys[m], label, key, provider, lexicon) >= threshold
                for m in cluster
            ):
                merged.extend(cluster)
            else:
                apart.append(cluster)
        clusters = apart + [merged]
    return sorted(sorted(c) for c in clusters)


VERBS = ("kick", "push", "pull", "lift", "look", "grab", "open", "turn", "wait", "call",
         "watch", "help", "jump", "pass", "mark", "work", "park", "pack", "lock", "rock")
NOUNS = ("cart", "door", "rock", "lamp", "rope", "box", "bag", "map", "coin", "bell",
         "gate", "wall", "boat", "key", "book")


def verb_noun_labels(rng, n):
    """n distinct labels verb_noun or verb_noun_k, with mark_bag and work_bag."""
    labels = {"mark_bag", "work_bag"}
    while len(labels) < n:
        label = f"{rng.choice(VERBS)}_{rng.choice(NOUNS)}"
        labels.add(label if rng.random() < 0.6 else f"{label}_{rng.randint(1, 9)}")
    return sorted(labels)


def test_batched_clusters_equal_greedy_at_pair_cosine_thresholds():
    labels = verb_noun_labels(random.Random(6), 300)
    vectors = np.array([HASHED.embed(label) for label in labels])
    sims = np.triu(vectors @ vectors.T, 1)
    # thresholds that are exactly some pair's cosine(), near 0.5, 0.75 and 0.9
    thresholds = {cosine(HASHED.embed("mark_bag"), HASHED.embed("work_bag"))}
    for target in (0.5, 0.75, 0.9):
        i, j = np.unravel_index(np.argmin(np.abs(sims - target)), sims.shape)
        thresholds.add(cosine(vectors[i], vectors[j]))
    lexicon = resources.default_lexicon()
    for threshold in sorted(thresholds):
        got = [list(c.members) for c in cluster_labels(labels, HASHED, lexicon, threshold)]
        assert got == greedy_cluster_labels(labels, HASHED, lexicon, threshold), threshold


# (cluster count, SHA-256 of json.dumps of the member lists) of the pool
# verb_noun_labels(random.Random(29), 2000) under the hashed provider and
# the default lexicon, recorded while pools were screened on float64
# products; the last threshold is cosine() of call_boat_2 and call_book_2,
# the pair nearest 0.75
POOL_2000_PINS = {
    0.7: (5, "5322774cb09dea839ac274ea4c7771372c7cf4afb63934ed678969635b98dc3b"),
    0.75: (36, "c978439fe4b2cbc860c3b538d94d975a53844e8338c2ac1d538cca16dd96daa9"),
    0.8: (162, "84f86344ed316c7d64d96c0b8a9b4421c82d3966bbbe35e6ecfa4419e83b5ae9"),
    0.7500000000000001: (41, "3ca045a2dff4d002c61a522cb2cf146679825dc685ef4c4c11d7859de655da37"),
}


@pytest.mark.parametrize("block_rows", [256, 7])
def test_a_2000_label_pool_keeps_its_pinned_clusters(block_rows, monkeypatch):
    monkeypatch.setattr(normalize_module, "_BLOCK_ROWS", block_rows)
    labels = verb_noun_labels(random.Random(29), 2000)
    assert cosine(HASHED.embed("call_boat_2"), HASHED.embed("call_book_2")) == 0.7500000000000001
    lexicon = resources.default_lexicon()
    for threshold, pin in POOL_2000_PINS.items():
        members = [list(c.members) for c in cluster_labels(labels, HASHED, lexicon, threshold)]
        digest = hashlib.sha256(json.dumps(members).encode()).hexdigest()
        assert (len(members), digest) == pin, threshold


@pytest.mark.parametrize("block_rows", [1, 2, 7])
def test_block_seams_keep_the_bfs_and_greedy_oracles(block_rows, monkeypatch):
    """Both oracle tests again with blocks so small that most links and
    tie-band pairs cross a block boundary, where each block's product starts
    its columns at the block's first row."""
    monkeypatch.setattr(normalize_module, "_BLOCK_ROWS", block_rows)
    test_clusters_match_bfs_oracle_at_pair_cosine_thresholds()
    test_batched_clusters_equal_greedy_at_pair_cosine_thresholds()


def test_product_tie_at_the_threshold_follows_cosine():
    a, b = HASHED.embed("mark_bag"), HASHED.embed("work_bag")
    tie = cosine(a, b)
    assert tie == 0.7500000000000001
    # the product sits in the band where cosine() decides
    assert abs(float32_product(a, b) - 0.75) < float32_band(HASHED.dim)
    empty = SynonymLexicon.empty()
    pair = {"mark_bag", "work_bag"}
    for threshold, merged in ((0.75, True), (tie, True), (np.nextafter(tie, 1.0), False)):
        assert len(cluster_labels(pair, HASHED, empty, threshold)) == (1 if merged else 2)
        norm_map = NormalizationMap(
            [LabelCluster(("work_bag",), "work_bag")], float(threshold), HASHED.provider_id
        )
        want = "work_bag" if merged else None
        assert norm_map.nearest_canonical("mark_bag", empty, HASHED) == want


def test_cluster_edge_cases():
    empty = SynonymLexicon.empty()
    no_vectors = VectorFileProvider({}, 2, source="none")  # raises if ever asked
    assert cluster_labels([], HASHED, empty, 0.75) == []
    assert cluster_labels({"walk"}, no_vectors, empty, 0.75) == [LabelCluster(("walk",))]
    # one lexical bucket: nothing to embed
    assert cluster_labels({"walk", "walked", "Walking"}, no_vectors, empty, 0.75) == [
        LabelCluster(("Walking", "walk", "walked"))
    ]
    # two buckets: every label must have a vector
    with pytest.raises(MissingLabel):
        cluster_labels({"walk", "walked", "run"}, no_vectors, empty, 0.75)
    # provider=None: lexical links only
    assert [c.members for c in cluster_labels({"walk", "walked", "run"}, None, empty, 0.0)] == [
        ("run",),
        ("walk", "walked"),
    ]
    # a zero vector has cosine 0.0 with everything, which links at threshold 0.0
    zero = VectorFileProvider(
        {"a": np.zeros(2), "b": np.array([1.0, 0.0]), "c": np.array([-1.0, 0.0])}, 2
    )
    assert [c.members for c in cluster_labels("abc", zero, empty, 0.0)] == [("a", "b", "c")]
    assert [c.members for c in cluster_labels("bc", zero, empty, 0.0)] == [("b",), ("c",)]
    assert [c.members for c in cluster_labels("abc", zero, empty, 1e-12)] == [
        ("a",), ("b",), ("c",)
    ]


class BatchCounter(HashedNgramProvider):
    """The hashed provider, recording the labels of each embed_batch call."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def embed_batch(self, labels):
        self.batches.append(list(labels))
        return super().embed_batch(labels)


def test_a_pool_is_embedded_in_one_sorted_batch():
    labels = {"walk", "walked", "run", "Running", "attack"}
    for lexicon in (SynonymLexicon.empty(), COMBAT):
        provider = BatchCounter()
        cluster_labels(labels, provider, lexicon, 0.75)
        assert provider.batches == [sorted(labels)]
    # one lexical bucket: nothing to embed
    provider = BatchCounter()
    assert len(cluster_labels({"attacks", "strikes", "fights"}, provider, COMBAT, 0.75)) == 1
    assert cluster_labels({"walk"}, provider, COMBAT, 0.0) == [LabelCluster(("walk",))]
    assert provider.batches == []
    # one batch per pool of a map
    doc = generate_fixture("battle")
    provider = BatchCounter()
    build_normalization_map(doc, provider, resources.default_lexicon(), 0.75)
    actions, events = normalize_module.collect_label_pools(doc)
    assert provider.batches == [sorted(actions), sorted(events)]


@pytest.mark.parametrize("label", ["", "_", " ", "_ _", "\t\n"])
@pytest.mark.parametrize("field", ["members", "canonical"])
def test_map_rejects_separator_only_labels(field, label):
    cluster = {"pool": "action", "canonical": "walk", "members": ["walk"]}
    cluster[field] = [label] if field == "members" else label
    raw = json.dumps(
        {"schema_version": 1, "threshold": 0.75, "provider_id": "x", "clusters": [cluster]}
    )
    with pytest.raises(SchemaViolation, match=field):
        NormalizationMap.from_json_bytes(raw)


@st.composite
def fallback_cases(draw):
    labels, provider, lexicon, _ = draw(oracle_cases())
    query = draw(st.sampled_from(labels))
    members = [label for label in labels if label != query]
    # the threshold is the query's cosine to one member: that link is a tie
    member = draw(st.sampled_from(members))
    threshold = min(max(cosine(provider.embed(query), provider.embed(member)), 0.0), 1.0)
    canonicals = draw(st.lists(st.sampled_from(labels), min_size=len(members),
                               max_size=len(members)))
    clusters = [LabelCluster((m,), c) for m, c in zip(members, canonicals)]
    return query, NormalizationMap(clusters, threshold, "test"), provider, lexicon


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(fallback_cases())
def test_nearest_canonical_matches_pair_scan_at_pair_cosine_thresholds(case):
    query, norm_map, provider, lexicon = case
    query_key = lexical_key(query, lexicon)
    linked_to = []
    for cluster in norm_map.clusters:
        (member,) = cluster.members
        sim = link_similarity(query, query_key, member, lexical_key(member, lexicon),
                              provider, lexicon)
        if sim >= norm_map.threshold:
            linked_to.append((-sim, cluster.canonical))
    want = min(linked_to)[1] if linked_to else None
    assert norm_map.nearest_canonical(query, lexicon, provider) == want


def test_nearest_canonical_skips_members_the_provider_cannot_embed():
    provider = VectorFileProvider({"a": np.array([1.0, 0.0]), "q": np.array([-1.0, 0.0])}, 2)
    clusters = [LabelCluster(("a",), "a"), LabelCluster(("b",), "b")]
    empty = SynonymLexicon.empty()
    # at threshold 0.0 a zero row would link; "b" has no vector at all
    assert NormalizationMap(clusters, 0.0, "test").nearest_canonical("q", empty, provider) is None
    lexicon = SynonymLexicon.build([["q", "b"]], {})
    assert NormalizationMap(clusters, 0.0, "test").nearest_canonical("q", lexicon, provider) == "b"


def test_nearest_canonical_with_a_zero_query_vector():
    # as in cluster_labels: a zero vector has cosine 0.0 with everything
    zero = VectorFileProvider(
        {"a": [0.0, 0.0], "b": np.array([1.0, 0.0]), "c": np.array([-1.0, 0.0])}, 2
    )
    empty = SynonymLexicon.empty()
    for member in ("b", "c"):
        alone = NormalizationMap([LabelCluster((member,), member)], 0.0, "test")
        assert alone.nearest_canonical("a", empty, zero) == member
    # "d" has no vector; "b" and "c" tie at 0.0, so the smaller canonical wins
    clusters = [LabelCluster(("b",), "y"), LabelCluster(("c",), "x"), LabelCluster(("d",), "w")]
    assert NormalizationMap(clusters, 0.0, "test").nearest_canonical("a", empty, zero) == "x"
    assert NormalizationMap(clusters, 1e-12, "test").nearest_canonical("a", empty, zero) is None


def pair_scan_nearest(norm_map, query, lexicon, provider):
    """nearest_canonical's answer from link_similarity, member by member; a
    member or query the provider has no vector for links lexically only."""
    query_key = lexical_key(query, lexicon)
    linked_to = []
    for cluster in norm_map.clusters:
        for member in cluster.members:
            key = lexical_key(member, lexicon)
            try:
                sim = link_similarity(query, query_key, member, key, provider, lexicon)
            except MissingLabel:
                sim = link_similarity(query, query_key, member, key, None, lexicon)
            if sim >= norm_map.threshold:
                linked_to.append((-sim, cluster.canonical))
    return min(linked_to)[1] if linked_to else None


BAND_DIMS = (1, 2, 3, 256, MAX_HASHED_DIM)
MEMBER_NAMES = tuple(f"m{i}" for i in range(48))
# far more members than dimensions at the small dims, far fewer at the large
# ones, so the member rows are far from square either way; the band's width
# is pinned by test_nearest_canonical_band_is_as_wide_as_the_dimension_asks
SMALL_DIM_MEMBERS, LARGE_DIM_MEMBERS = 48, 12


@st.composite
def band_cases(draw):
    """A map of random member vectors at one of BAND_DIMS, with some members
    near the query, some without a vector and maybe a zero one, and a
    threshold at a member's cosine to the query, one ulp either side of it,
    or at 0."""
    dim = draw(st.sampled_from(BAND_DIMS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    query = rng.standard_normal(dim) if draw(st.booleans()) else np.zeros(dim)
    most = SMALL_DIM_MEMBERS if dim <= 3 else LARGE_DIM_MEMBERS
    members = MEMBER_NAMES[: draw(st.integers(1, most))]
    vectors = {"q": query}
    for member in members:
        kind = draw(st.sampled_from(("random", "near", "near", "zero", "none")))
        if kind == "random":
            vectors[member] = rng.standard_normal(dim)
        elif kind == "near":  # a cosine close to 1, where float32 rounding bites
            vectors[member] = query + rng.standard_normal(dim) * draw(
                st.sampled_from((1e-7, 1e-4, 1e-2, 0.3))
            )
        elif kind == "zero":
            vectors[member] = np.zeros(dim)
    provider = VectorFileProvider(vectors, dim, source="band")
    embedded = [m for m in members if m in vectors]
    if embedded and draw(st.booleans()):
        threshold = cosine(query, vectors[draw(st.sampled_from(embedded))])
        threshold = np.nextafter(threshold, draw(st.sampled_from((threshold, 0.0, 1.0))))
    else:
        threshold = 0.0
    threshold = float(min(max(threshold, 0.0), 1.0))
    canonicals = draw(st.lists(st.sampled_from(members), min_size=len(members),
                               max_size=len(members)))
    clusters = [LabelCluster((m,), c) for m, c in zip(members, canonicals)]
    groups = [["q", draw(st.sampled_from(members))]] if draw(st.booleans()) else []
    lexicon = SynonymLexicon.build(groups, {})
    return NormalizationMap(clusters, threshold, "test"), provider, lexicon


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(band_cases())
def test_nearest_canonical_float32_band_matches_pair_scan(case):
    norm_map, provider, lexicon = case
    want = pair_scan_nearest(norm_map, "q", lexicon, provider)
    assert norm_map.nearest_canonical("q", lexicon, provider) == want


def float32_product(query, member):
    """The product nearest_canonical filters a one-member map on: the query
    as a float32 unit vector times the member's unit column of a LabelIndex."""
    index = LabelIndex(["m"], SynonymLexicon.empty())
    index.embed([member])
    return ((query / np.sqrt(query.dot(query))).astype(np.float32) @ index.unit)[0]


@pytest.mark.parametrize("dim", BAND_DIMS)
def test_nearest_canonical_at_a_members_cosine_and_one_ulp_either_side(dim):
    rng = np.random.default_rng(dim)
    query = rng.standard_normal(dim)
    vectors = {"q": query, "m": query + rng.standard_normal(dim) * 1e-3}
    provider = VectorFileProvider(vectors, dim, source="ulp")
    empty = SynonymLexicon.empty()
    tie = cosine(vectors["q"], vectors["m"])  # 1.0 at dim 1, where no map goes above it
    for threshold, want in (
        (np.nextafter(tie, -np.inf), "m"),
        (tie, "m"),
        (np.nextafter(tie, np.inf), None),
    ):
        norm_map = NormalizationMap([LabelCluster(("m",), "m")], float(threshold), "test")
        assert norm_map.nearest_canonical("q", empty, provider) == want
        assert pair_scan_nearest(norm_map, "q", empty, provider) == want


@pytest.mark.parametrize("dim", (3, 256, MAX_HASHED_DIM))
def test_nearest_canonical_links_a_member_whose_float32_product_falls_short(dim):
    rng = np.random.default_rng(7)
    for _ in range(1000):
        query = rng.standard_normal(dim)
        member = query + rng.standard_normal(dim) * 1e-2
        tie = cosine(query, member)
        product = float32_product(query, member)
        # short of the threshold, as float32 compares them: a filter without
        # the band would drop the member before cosine() links it
        if product < np.float32(tie):
            break
    else:
        pytest.fail("no float32 product fell short of its cosine")
    assert product >= tie - float32_band(dim)
    provider = VectorFileProvider({"q": query, "m": member}, dim, source="short")
    norm_map = NormalizationMap([LabelCluster(("m",), "m")], tie, "test")
    assert norm_map.nearest_canonical("q", SynonymLexicon.empty(), provider) == "m"


@pytest.mark.parametrize("dim,members,ulps_short,checked", [(256, 1, 100, 1), (2, 48, 20, 0)])
def test_nearest_canonical_band_is_as_wide_as_the_dimension_asks(
    monkeypatch, dim, members, ulps_short, checked
):
    """Members whose products fall ulps_short float32 ulps of 1.0 below the
    threshold: inside a band of dim + 2 of them, which cosine() then checks,
    and outside it. A band of members + 2 would check the opposite way."""
    rng = np.random.default_rng(dim)
    query, member = rng.standard_normal(dim), rng.standard_normal(dim)
    names = [f"m{i}" for i in range(members)]
    provider = VectorFileProvider({"q": query, **dict.fromkeys(names, member)}, dim, source="w")
    product = float32_product(provider.embed("q"), provider.embed("m0"))
    threshold = float(product) + ulps_short * 2.0**-23
    norm_map = NormalizationMap([LabelCluster((m,), m) for m in names], threshold, "test")
    calls = []
    monkeypatch.setattr(normalize_module, "cosine", lambda a, b: calls.append(1) or cosine(a, b))
    assert norm_map.nearest_canonical("q", SynonymLexicon.empty(), provider) is None
    assert len(calls) == checked * members


def pool_float32_product(a, b):
    """The product cluster_labels screens a two-label pool on, given the
    labels' vectors in sorted label order."""
    vectors = np.array([a, b], dtype=np.float64)
    unit = (vectors / row_norms(vectors)[:, None]).astype(np.float32)
    return (unit @ unit.T)[0, 1]


@pytest.mark.parametrize("dim", (3, 256, MAX_HASHED_DIM))
def test_cluster_labels_links_a_pair_whose_float32_product_falls_short(dim):
    rng = np.random.default_rng(7)
    for _ in range(1000):
        query = rng.standard_normal(dim)
        member = query + rng.standard_normal(dim) * 1e-2
        tie = cosine(query, member)
        product = pool_float32_product(member, query)
        # short of the threshold, as float32 compares them: a screen without
        # the band would drop the pair before pair_cosines links it
        if product < np.float32(tie):
            break
    else:
        pytest.fail("no float32 product fell short of its cosine")
    assert product >= tie - float32_band(dim)
    provider = VectorFileProvider({"q": query, "m": member}, dim, source="short")
    clusters = cluster_labels({"q", "m"}, provider, SynonymLexicon.empty(), tie)
    assert [c.members for c in clusters] == [("m", "q")]


@pytest.mark.parametrize("dim,members,ulps_short,checked", [(256, 1, 100, 1), (2, 48, 20, 0)])
def test_cluster_labels_band_is_as_wide_as_the_dimension_asks(
    monkeypatch, dim, members, ulps_short, checked
):
    """Pairs of the query and a member whose products fall ulps_short
    float32 ulps of 1.0 below the threshold: inside a band of dim + 2 of
    them, which pair_cosines then checks, and outside it. A band of pool
    size + 2 would check the opposite way."""
    rng = np.random.default_rng(dim)
    query = rng.standard_normal(dim)
    member = query + rng.standard_normal(dim)
    names = [f"m{i}" for i in range(members)]
    provider = VectorFileProvider({"q": query, **dict.fromkeys(names, member)}, dim, source="w")
    threshold = float(pool_float32_product(member, query)) + ulps_short * 2.0**-23
    pairs = []

    def counted(vectors, norms, rows, cols):
        pairs.append(len(rows))
        return pair_cosines(vectors, norms, rows, cols)

    monkeypatch.setattr(normalize_module, "pair_cosines", counted)
    clusters = cluster_labels(["q", *names], provider, SynonymLexicon.empty(), threshold)
    assert [c.members for c in clusters] == [tuple(sorted(names)), ("q",)]
    assert sum(pairs) == checked * members


def test_nearest_canonical_zero_query_and_unembedded_members_at_threshold_0():
    dim = 4
    vectors = {"q": np.zeros(dim), "a": np.ones(dim), "b": -np.ones(dim), "z": np.zeros(dim)}
    provider = VectorFileProvider(vectors, dim, source="zero")
    # "n" and "o" have no vector: at threshold 0 they must not link through a NaN row
    clusters = [LabelCluster(("n",), "a"), LabelCluster(("o",), "b"),
                LabelCluster(("a", "z"), "c"), LabelCluster(("b",), "d")]
    empty = SynonymLexicon.empty()
    norm_map = NormalizationMap(clusters, 0.0, "test")
    assert norm_map.nearest_canonical("q", empty, provider) == "c"
    assert pair_scan_nearest(norm_map, "q", empty, provider) == "c"
    unembedded = NormalizationMap(clusters[:2], 0.0, "test")
    assert unembedded.nearest_canonical("q", empty, provider) is None
    assert pair_scan_nearest(unembedded, "q", empty, provider) is None


# --- the label index both cosine screens share -------------------------------


def vector_or_none(provider, label):
    try:
        return provider.embed(label)
    except MissingLabel:
        return None


def embedded_index(labels, provider, lexicon):
    """A LabelIndex of the labels, embedded with each one's vector or None."""
    index = LabelIndex(labels, lexicon)
    index.embed([vector_or_none(provider, label) for label in labels])
    return index


def link_scan(query, labels, provider, lexicon, threshold):
    """{(position, similarity bits)} of each label link_similarity links to
    the query; a label or query without a vector links lexically only."""
    query_key = lexical_key(query, lexicon)
    found = set()
    for i, label in enumerate(labels):
        key = lexical_key(label, lexicon)
        try:
            sim = link_similarity(query, query_key, label, key, provider, lexicon)
        except MissingLabel:
            sim = link_similarity(query, query_key, label, key, None, lexicon)
        if sim >= threshold:
            found.add((i, sim.hex()))
    return found


def within_scan(index, query, provider, threshold, folded=None):
    vec = vector_or_none(provider, query)
    return {(i, sim.hex()) for sim, i in index.within(query, vec, threshold, folded)}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(band_cases())
def test_index_within_is_the_link_similarity_scan_on_band_cases(case):
    norm_map, provider, lexicon = case
    members = sorted(norm_map.pool_labels(ACTION_POOL))
    index = embedded_index(members, provider, lexicon)
    want = link_scan("q", members, provider, lexicon, norm_map.threshold)
    assert within_scan(index, "q", provider, norm_map.threshold) == want


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(oracle_cases())
def test_index_within_is_the_link_similarity_scan_on_oracle_cases(case):
    labels, provider, lexicon, threshold = case
    index = embedded_index(labels, provider, lexicon)
    for query in labels:
        want = link_scan(query, labels, provider, lexicon, threshold)
        assert within_scan(index, query, provider, threshold, fold_label(query)) == want


def assert_links_are_the_pair_scan(labels, provider, lexicon, threshold, block_rows):
    """links() yields each pair i < j at or above the threshold once, and no
    other; a label without a vector links to none."""
    vectors = [vector_or_none(provider, label) for label in labels]
    index = embedded_index(labels, provider, lexicon)
    with mock.patch.object(normalize_module, "_BLOCK_ROWS", block_rows):
        blocks = list(index.links(threshold))
    got = [(i, j) for rows, cols in blocks for i, j in zip(rows.tolist(), cols.tolist())]
    want = [
        (i, j)
        for i, j in itertools.combinations(range(len(labels)), 2)
        if vectors[i] is not None
        and vectors[j] is not None
        and cosine(vectors[i], vectors[j]) >= threshold
    ]
    assert sorted(got) == want


@pytest.mark.parametrize("block_rows", [1, 2, 7, 256])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=oracle_cases())
def test_index_links_are_the_pair_scan_on_oracle_cases(block_rows, case):
    labels, provider, lexicon, threshold = case
    assert_links_are_the_pair_scan(labels, provider, lexicon, threshold, block_rows)


@pytest.mark.parametrize("block_rows", [1, 2, 7, 256])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=band_cases())
def test_index_links_are_the_pair_scan_on_band_cases(block_rows, case):
    norm_map, provider, lexicon = case
    labels = ["q", *sorted(norm_map.pool_labels(ACTION_POOL))]
    assert_links_are_the_pair_scan(labels, provider, lexicon, norm_map.threshold, block_rows)


@pytest.mark.parametrize("kind,seed,variance,with_gold", sorted(MAP_DIGESTS))
def test_map_bytes_match_pinned_digest(kind, seed, variance, with_gold):
    doc = generate_fixture(kind, seed=seed, variance=variance)
    gold = set(load_gold_labels(resources.gold_labels_bytes(kind))) if with_gold else None
    norm_map = build_normalization_map(
        doc, HashedNgramProvider(), resources.default_lexicon(), 0.75, gold_labels=gold
    )
    digest = hashlib.sha256(norm_map.to_json_bytes()).hexdigest()
    assert digest == MAP_DIGESTS[(kind, seed, variance, with_gold)]


def test_threshold_monotonicity_and_refinement():
    rng = random.Random(9)
    thresholds = (0.0, 0.25, 0.5, 0.75, 1.0)
    for _ in range(15):
        labels = random_label_set(rng, max_labels=25)
        provider = random_vector_provider(rng, labels)
        runs = [
            cluster_labels(labels, provider, SynonymLexicon.empty(), t) for t in thresholds
        ]
        counts = [len(run) for run in runs]
        assert counts == sorted(counts)
        for coarse, fine in zip(runs, runs[1:]):
            coarse_sets = [set(c.members) for c in coarse]
            for cluster in fine:
                assert any(set(cluster.members) <= s for s in coarse_sets)


def test_assign_canonical_rules():
    pick = lambda members, gold, freq: assign_canonical(
        LabelCluster(tuple(sorted(members))), gold, freq
    ).canonical
    assert pick({"attack", "strikes", "fights"}, {"attack"}, {}) == "attack"
    assert pick({"walking", "walk"}, set(), {}) == "walk"
    assert pick({"ab", "cd"}, set(), {}) == "ab"
    # gold wins even when another member is shorter or more frequent
    assert pick({"hit", "strike"}, {"strike"}, {"hit": 9}) == "strike"
    # among gold members, frequency first, then length, then spelling
    assert pick({"hit", "strike"}, {"hit", "strike"}, {"strike": 3, "hit": 1}) == "strike"
    assert pick({"bb", "aa"}, {"aa", "bb"}, {}) == "aa"


def canonical_loop_oracle(actions, events, gold_labels, provider, lexicon, threshold):
    """build_normalization_map's clusters from its old loop: assign_canonical
    per cluster with a fresh copy of the pool's frequency table and gold set,
    each canonical checked against the old rule's set intersection."""
    gold = set(gold_labels)
    clusters = []
    for pool, freq, pool_gold in ((ACTION_POOL, actions, gold), (EVENT_POOL, events, set())):
        labels = set(freq) | pool_gold
        if not labels:
            continue
        for cluster in cluster_labels(labels, provider, lexicon, threshold, pool):
            chosen = assign_canonical(cluster, set(pool_gold), dict(freq))
            gold_members = set(cluster.members) & set(pool_gold)
            if gold_members:
                old = min(gold_members, key=lambda m: (-freq.get(m, 0), len(m), m))
            else:
                old = min(cluster.members, key=lambda m: (len(m), m))
            assert chosen.canonical == old
            clusters.append(chosen)
    return clusters


# surface variants that merge, so clusters hold several members
CANONICAL_LABELS = st.sampled_from((
    "walk", "walks", "walked", "Walking", "hit", "hits", "strike", "attack", "attacks",
    "insert", "insert_into", "Insert-Into", "mark_bag", "work_bag", "kick", "kicked",
))
# small counts, so frequency ties are common
POOL_COUNTS = st.dictionaries(CANONICAL_LABELS, st.integers(1, 3), max_size=10).map(Counter)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    POOL_COUNTS,
    POOL_COUNTS,
    st.sets(CANONICAL_LABELS | st.sampled_from(("strike_hard", "leap"))),
    st.sampled_from((0.5, 0.75, 1.0)),
)
def test_canonical_choice_per_pool_equals_the_per_cluster_loop(actions, events, gold, threshold):
    lexicon = resources.default_lexicon()
    want = canonical_loop_oracle(actions, events, gold, HASHED, lexicon, threshold)
    pools = lambda source: (actions, events)
    with mock.patch.object(normalize_module, "collect_label_pools", pools):
        got = build_normalization_map(None, HASHED, lexicon, threshold, gold)
    assert got.clusters == NormalizationMap(want, threshold, HASHED.provider_id).clusters


def map_dict_oracle(norm_map):
    """The map writer's old path: the map as a dict through dump_canonical."""
    return dump_canonical({
        "schema_version": 1,
        "threshold": norm_map.threshold,
        "provider_id": norm_map.provider_id,
        "clusters": [
            {"pool": c.pool, "canonical": c.canonical, "members": list(c.members)}
            for c in norm_map.clusters
        ],
    })


# quotes, backslashes, control characters, non-ASCII and U+2028, which JSON
# escapes or passes through differently
WRITER_TEXT = st.text(
    st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\u2029\u00e9\u6f22\U0001f600 _a')
    | st.characters(exclude_categories=("Cs",)),
    min_size=1,
    max_size=6,
)


@st.composite
def writer_maps(draw):
    clusters = []
    for pool in (ACTION_POOL, EVENT_POOL):
        labels = draw(st.lists(WRITER_TEXT, unique=True, max_size=6))
        while labels:
            size = draw(st.integers(1, len(labels)))
            members, labels = labels[:size], labels[size:]
            canonical = draw(st.sampled_from(members) | WRITER_TEXT)
            clusters.append(LabelCluster(tuple(sorted(members)), canonical, pool))
    threshold = draw(st.sampled_from((0, 1, 0.0, 1.0, 0.1, 0.75)))
    provider_id = draw(st.sampled_from((HASHED.provider_id, "remote:http://h/")) | WRITER_TEXT)
    return NormalizationMap(clusters, threshold, provider_id)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(writer_maps())
@example(NormalizationMap([], 0, HASHED.provider_id))
@example(NormalizationMap([], 0.75, HASHED.provider_id))
@example(
    NormalizationMap(
        [
            LabelCluster(("a\u2028\"b", "\\c"), "\\c", ACTION_POOL),
            LabelCluster(("\x01\u00e9",), "\x01\u00e9", EVENT_POOL),
        ],
        1,
        'file:x"\u2028.json',
    )
)
def test_map_writer_bytes_equal_dump_canonical(norm_map):
    assert norm_map.to_json_bytes() == map_dict_oracle(norm_map)


def test_battle_variants_map_to_attack():
    doc = generate_fixture("battle")
    norm_map = build_normalization_map(doc, HASHED, COMBAT, 0.75, gold_labels=BATTLE_GOLD)
    for surface in ("fight", "strike", "hit"):
        assert norm_map.lookup(surface, ACTION_POOL) == "attack"
    assert norm_map.lookup("walk", ACTION_POOL) == "walk"
    assert norm_map.lookup("unheard_of", ACTION_POOL) == "unheard_of"


def test_doc_and_graph_sources_agree():
    doc = generate_fixture("battle")
    from_doc = build_normalization_map(doc, HASHED, COMBAT, 0.75, gold_labels=BATTLE_GOLD)
    from_graph = build_normalization_map(
        build_all(doc), HASHED, COMBAT, 0.75, gold_labels=BATTLE_GOLD
    )
    assert from_doc == from_graph
    assert from_doc.to_json_bytes() == from_graph.to_json_bytes()


def test_actionless_doc_yields_event_pool_only():
    doc = generate_fixture("battle")
    stripped = json.loads(doc.to_json_bytes())
    for macro in stripped["macro_events"]:
        for event in macro["events"]:
            for panel in event["panels"]:
                panel["actions"] = []
    from nkg.annotations import parse_annotations

    norm_map = build_normalization_map(
        parse_annotations(json.dumps(stripped).encode()), HASHED, COMBAT, 0.75
    )
    assert norm_map.clusters
    assert all(c.pool == EVENT_POOL for c in norm_map.clusters)


def test_lookup_functional_over_fixture_maps():
    for kind, seed in (("battle", 0), ("romance", 0), ("noise", 3)):
        doc = generate_fixture(kind, seed=seed, variance=0.6)
        norm_map = build_normalization_map(doc, HASHED, COMBAT, 0.75)
        for pool in (ACTION_POOL, EVENT_POOL):
            seen = {}
            for cluster in norm_map.clusters:
                if cluster.pool != pool:
                    continue
                assert cluster.canonical
                for member in cluster.members:
                    assert member not in seen
                    seen[member] = cluster.canonical
                    assert norm_map.lookup(member, pool) == cluster.canonical


def test_pools_never_cross():
    # "meet" is both an action and part of an event label in the battle story
    doc = generate_fixture("battle")
    norm_map = build_normalization_map(doc, HASHED, COMBAT, 0.75)
    action_members = {m for c in norm_map.clusters if c.pool == ACTION_POOL for m in c.members}
    event_members = {m for c in norm_map.clusters if c.pool == EVENT_POOL for m in c.members}
    assert "meet" in action_members
    assert "Meet characters" in event_members
    assert action_members.isdisjoint(event_members)


def test_map_round_trip_and_rejects():
    doc = generate_fixture("romance")
    norm_map = build_normalization_map(doc, HASHED, COMBAT, 0.75)
    again = NormalizationMap.from_json_bytes(norm_map.to_json_bytes())
    assert again == norm_map
    assert again.to_json_bytes() == norm_map.to_json_bytes()
    with pytest.raises(SchemaViolation):
        NormalizationMap.from_json_bytes(json.dumps({"schema_version": 2}).encode())
    with pytest.raises(SchemaViolation):
        NormalizationMap(
            [
                LabelCluster(("a", "b"), "a", ACTION_POOL),
                LabelCluster(("b", "c"), "c", ACTION_POOL),
            ],
            0.75,
            "x",
        )


@pytest.mark.parametrize(
    "member_lists, reason",
    [
        ([["walk", "stroll"], ["run", "stroll"]], "'stroll' appears twice in the action pool"),
        ([["walk"], ["run", "jog", "run"]], "'run' appears twice in the action pool"),
    ],
    ids=["two-clusters", "one-cluster"],
)
def test_map_names_the_json_path_of_a_repeated_label(member_lists, reason):
    with pytest.raises(SchemaViolation, match=reason) as info:
        NormalizationMap.from_json_bytes(map_with_members(member_lists))
    assert info.value.path == "$.clusters[1].members"


@pytest.mark.parametrize(
    "cluster, path, reason",
    [
        (["walk"], "$.clusters[1]", "cluster must be an object"),
        (
            {"pool": "scene", "canonical": "walk", "members": ["walk"]},
            "$.clusters[1].pool",
            "'action' or 'event'",
        ),
    ],
    ids=["not-an-object", "unknown-pool"],
)
def test_map_names_the_json_path_of_a_bad_cluster(cluster, path, reason):
    raw = json.loads(map_with_members([["run"]]))
    raw["clusters"].append(cluster)
    with pytest.raises(SchemaViolation, match=reason) as info:
        NormalizationMap.from_json_bytes(json.dumps(raw))
    assert info.value.path == path


def map_with_members(member_lists):
    clusters = [{"pool": "action", "canonical": m[0], "members": m} for m in member_lists]
    return json.dumps(
        {"schema_version": 1, "threshold": 0.75, "provider_id": "x", "clusters": clusters}
    )


def test_map_allows_one_label_in_each_pool():
    raw = json.loads(map_with_members([["fight"], ["fight"]]))
    raw["clusters"][1]["pool"] = "event"
    norm_map = NormalizationMap.from_json_bytes(json.dumps(raw))
    assert norm_map.has_label("fight", ACTION_POOL) and norm_map.has_label("fight", EVENT_POOL)


@pytest.mark.parametrize("threshold", ["2.5", "-1", "NaN", "Infinity", "true", "\"0.5\""])
def test_map_threshold_outside_unit_interval_rejected(threshold):
    raw = f'{{"schema_version": 1, "threshold": {threshold}, "provider_id": "x", "clusters": []}}'
    with pytest.raises(SchemaViolation, match="threshold"):
        NormalizationMap.from_json_bytes(raw)


def test_map_threshold_bounds_are_readable():
    for threshold in (0, 0.0, 0.75, 1, 1.0):
        raw = json.dumps({"schema_version": 1, "threshold": threshold, "provider_id": "x"})
        assert NormalizationMap.from_json_bytes(raw).threshold == threshold


@pytest.mark.parametrize("dim", [256, MAX_HASHED_DIM])
def test_map_naming_a_hashed_dimension_up_to_the_bound_loads(dim):
    provider_id = f"hashed:fnv1a-trigram:{dim}"
    raw = json.dumps({"schema_version": 1, "threshold": 0.75, "provider_id": provider_id})
    assert NormalizationMap.from_json_bytes(raw).provider_id == provider_id


@pytest.mark.parametrize("dim", [MAX_HASHED_DIM + 1, 1000000000])
def test_map_naming_a_hashed_dimension_above_the_bound_rejected(dim):
    provider_id = f"hashed:fnv1a-trigram:{dim}"
    raw = json.dumps({"schema_version": 1, "threshold": 0.75, "provider_id": provider_id})
    with pytest.raises(SchemaViolation) as raised:
        NormalizationMap.from_json_bytes(raw)
    assert raised.value.path == "$.provider_id"


def test_insert_variants_merge_at_default_threshold():
    doc = generate_fixture("romance")
    norm_map = build_normalization_map(doc, HASHED, SynonymLexicon.empty(), 0.75)
    assert norm_map.lookup("insert_into", ACTION_POOL) == "insert"
    assert norm_map.lookup("insert", ACTION_POOL) == "insert"
    # a stricter threshold keeps them apart
    strict = build_normalization_map(doc, HASHED, SynonymLexicon.empty(), 0.9)
    assert strict.lookup("insert_into", ACTION_POOL) == "insert_into"


def test_apply_normalization_relabels():
    doc = generate_fixture("battle")
    graph = build_all(doc)
    norm_map = build_normalization_map(doc, HASHED, COMBAT, 0.75, gold_labels=BATTLE_GOLD)
    normalized = apply_normalization(graph, norm_map)
    assert normalized.normalized and normalized.frozen
    relabeled = {
        n.id: (n.label(), n.attrs["surface_label"])
        for n in normalized.nodes(NodeKind.ACTION)
    }
    for node in graph.nodes(NodeKind.ACTION):
        want = norm_map.lookup(node.label(), ACTION_POOL)
        assert relabeled[node.id] == (want, node.label())


def test_apply_normalization_preserves_topology():
    doc = generate_fixture("romance")
    graph = build_all(doc)
    norm_map = build_normalization_map(doc, HASHED, COMBAT, 0.75)
    normalized = apply_normalization(graph, norm_map)
    assert {n.id for n in normalized.nodes()} == {n.id for n in graph.nodes()}
    assert {e.key() for e in normalized.edges()} == {e.key() for e in graph.edges()}
    # non-label attributes and untouched kinds carry over unchanged
    for node in graph.nodes():
        if node.kind not in (NodeKind.ACTION, NodeKind.EVENT, NodeKind.MACRO_EVENT):
            assert normalized.node(node.id) == node


def test_apply_normalization_leaves_the_raw_graph_as_it_was():
    doc = generate_fixture("battle")
    graph = build_all(doc)
    before = graph.to_json_bytes()
    norm_map = build_normalization_map(doc, HASHED, COMBAT, 0.75, gold_labels=BATTLE_GOLD)
    normalized = apply_normalization(graph, norm_map)
    assert graph.to_json_bytes() == before
    assert not graph.normalized and graph.node("a:1_0_0:0").label() == "fight"
    assert normalized.node("a:1_0_0:0").label() == "attack"
    assert normalized.edges() == graph.edges()
    for g in (graph, normalized):
        with pytest.raises(GraphFrozen):
            g.add_edge("0_0_0", "1_0_0", EdgeKind.CO_OCCURS_WITH)
        with pytest.raises(GraphFrozen):
            g.add_node(Node("p:new", NodeKind.PANEL, {}))
    assert graph.to_json_bytes() == before


def test_apply_normalization_needs_a_finalized_graph():
    graph = NarrativeGraph("s")
    graph.add_node(Node("p0", NodeKind.PANEL, {"reading_order": "0", "storytime_order": "0"}))
    graph.add_node(Node("a", NodeKind.ACTION, {"label": "hit", "panel": "p0"}))
    before = graph.to_json_bytes()
    norm_map = NormalizationMap([LabelCluster(("hit", "strike"), "strike")], 0.75, "none")
    with pytest.raises(ValueError, match="must be finalized"):
        apply_normalization(graph, norm_map)
    assert not graph.frozen and graph.to_json_bytes() == before
    graph.add_edge("a", "p0", EdgeKind.GROUNDED_IN)  # still open to changes
    assert apply_normalization(graph.finalize(), norm_map).node("a").label() == "strike"


def test_apply_twice_rejected():
    graph = build_all(generate_fixture("romance"))
    norm_map = build_normalization_map(generate_fixture("romance"), HASHED, COMBAT, 0.75)
    normalized = apply_normalization(graph, norm_map)
    with pytest.raises(AlreadyNormalized):
        apply_normalization(normalized, norm_map)


def test_empty_map_is_identity_plus_flag():
    graph = build_all(generate_fixture("romance"))
    empty = NormalizationMap([], 0.75, "none")
    normalized = apply_normalization(graph, empty)
    for node in graph.nodes():
        out = normalized.node(node.id)
        if node.kind in (NodeKind.ACTION, NodeKind.EVENT, NodeKind.MACRO_EVENT):
            assert out.label() == node.label()
            assert out.attrs["surface_label"] == node.label()
        else:
            assert out == node


def test_reapplication_after_flag_strip_changes_nothing():
    doc = generate_fixture("romance")
    norm_map = build_normalization_map(doc, HASHED, COMBAT, 0.75)
    normalized = apply_normalization(build_all(doc), norm_map)
    thawed = json.loads(normalized.to_json_bytes())
    thawed["normalized"] = False
    again = apply_normalization(deserialize(json.dumps(thawed).encode()), norm_map)
    assert again.to_json_bytes() == normalized.to_json_bytes()


def test_map_determinism():
    doc = generate_fixture("noise", seed=7, variance=0.9)
    a = build_normalization_map(doc, HashedNgramProvider(), COMBAT, 0.75)
    b = build_normalization_map(doc, HashedNgramProvider(), COMBAT, 0.75)
    assert a.to_json_bytes() == b.to_json_bytes()


def test_label_pools_of_neither_a_document_nor_a_graph_raise_type_error():
    with pytest.raises(TypeError, match="expected AnnotationDoc or NarrativeGraph, got object"):
        collect_label_pools(object())
