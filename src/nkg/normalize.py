"""Label normalization: clustering of equivalent surface labels and canonical
relabeling of graphs.

Two labels land in one cluster when any of three links holds: equal lexical
keys, shared synonym-lexicon group, or embedding cosine at or above the
threshold; link_similarity holds that rule, pair by pair. Clusters are the
connected components of the link relation. Action labels and event labels
form separate pools so the two vocabularies never merge with each other.

Clustering finds the links in one batched pass per pool. Lexical links
bucket the labels by lexical key or lexicon group. Cosine links come from
row-blocked products of the pool's embedding matrix, which the provider
fills once per pool, and only when the buckets are more than one. A product
within TIE_BAND of the threshold is re-checked with the scalar cosine()
that link_similarity uses, so a float tie falls on the same side for both.

Canonical selection prefers gold labels (highest annotation frequency first),
otherwise the shortest member; remaining ties break lexicographically.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .annotations import AnnotationDoc
from .errors import AlreadyNormalized, MissingLabel, ProviderError, SchemaViolation
from .graph import NarrativeGraph, Node, NodeKind
from .jsonio import dump_canonical, load_object, require
from .lexicon import SynonymLexicon, fold_label, is_label, lexical_key
from .embedding import HashedNgramProvider, cosine, embed_matrix, unit_rows

ACTION_POOL = "action"
EVENT_POOL = "event"
DEFAULT_THRESHOLD = 0.75
# a product this close to the threshold may fall on the other side of it
# than cosine() does, so cosine() decides those pairs
TIE_BAND = 1e-9
_BLOCK_ROWS = 256  # rows per product block: memory stays O(block x pool)

_POOL_KINDS = {
    ACTION_POOL: (NodeKind.ACTION,),
    EVENT_POOL: (NodeKind.EVENT, NodeKind.MACRO_EVENT),
}


@dataclass(frozen=True)
class LabelCluster:
    members: tuple[str, ...]  # sorted, nonempty
    canonical: str = ""  # empty until assign_canonical
    pool: str = ACTION_POOL


def link_similarity(a: str, key_a: str, b: str, key_b: str, provider, lexicon) -> float:
    """1.0 when the lexical keys match or share a lexicon group, else embedding
    cosine; labels link at >= threshold. provider=None: lexical links only."""
    if key_a == key_b or lexicon.same_group(key_a, key_b):
        return 1.0
    if provider is None:
        return -math.inf
    return cosine(provider.embed(a), provider.embed(b))


def linked(a: str, b: str, provider, lexicon: SynonymLexicon, threshold: float) -> bool:
    """The pairwise link relation underlying the clustering."""
    key_a, key_b = lexical_key(a, lexicon), lexical_key(b, lexicon)
    return link_similarity(a, key_a, b, key_b, provider, lexicon) >= threshold


def cluster_labels(
    labels, provider, lexicon: SynonymLexicon, threshold: float, pool: str = ACTION_POOL
) -> list[LabelCluster]:
    """Connected components of the link relation; canonicals left unassigned.

    provider=None: lexical links only. Otherwise the provider embeds every
    label of a pool that lexical links leave in more than one bucket."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    buckets: dict[int | str, list[str]] = {}
    for label in sorted(set(labels)):
        buckets.setdefault(lexicon.link_bucket(lexical_key(label, lexicon)), []).append(label)
    groups = list(buckets.values())
    if provider is not None and len(groups) > 1:
        groups = _join_by_cosine(groups, provider, threshold)
    return [LabelCluster(tuple(members), "", pool) for members in sorted(map(sorted, groups))]


def _join_by_cosine(groups: list[list[str]], provider, threshold: float) -> list[list[str]]:
    """The groups merged along cosine links between their labels."""
    labels = [label for group in groups for label in group]
    owner = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
    parent = list(range(len(groups)))

    def root(g: int) -> int:
        while parent[g] != g:
            parent[g] = parent[parent[g]]
            g = parent[g]
        return g

    for rows, cols in _cosine_links(embed_matrix(provider, labels), threshold):
        # pairs already joined before this block are dropped without a loop
        roots = np.array([root(g) for g in range(len(groups))])
        a, b = roots[owner[rows]], roots[owner[cols]]
        apart = a != b
        for x, y in zip(a[apart].tolist(), b[apart].tolist()):
            parent[root(x)] = root(y)
    merged: dict[int, list[str]] = {}
    for g, group in enumerate(groups):
        merged.setdefault(root(g), []).extend(group)
    return list(merged.values())


def _cosine_links(vectors: np.ndarray, threshold: float):
    """Yields, one block of rows at a time, the index pairs i < j whose
    cosine(vectors[i], vectors[j]) is at or above the threshold."""
    unit = unit_rows(vectors)
    for start in range(0, len(unit), _BLOCK_ROWS):
        sims = unit[start : start + _BLOCK_ROWS] @ unit.T
        rows, cols = np.nonzero(np.triu(sims >= threshold - TIE_BAND, start + 1))
        near = np.flatnonzero(sims[rows, cols] < threshold + TIE_BAND)
        rows += start
        keep = np.ones(len(rows), dtype=bool)
        keep[near] = [cosine(vectors[rows[k]], vectors[cols[k]]) >= threshold for k in near]
        yield rows[keep], cols[keep]


def assign_canonical(
    cluster: LabelCluster, gold_labels: set[str], frequency: dict[str, int]
) -> LabelCluster:
    gold_members = set(cluster.members) & set(gold_labels)
    if gold_members:
        canonical = min(gold_members, key=lambda m: (-frequency.get(m, 0), len(m), m))
    else:
        canonical = min(cluster.members, key=lambda m: (len(m), m))
    return LabelCluster(cluster.members, canonical, cluster.pool)


class NormalizationMap:
    def __init__(self, clusters, threshold: float, provider_id: str):
        self.clusters = tuple(
            sorted(clusters, key=lambda c: (c.pool, c.members))
        )
        self.threshold = threshold
        self.provider_id = provider_id
        self._by_pool: dict[str, dict[str, str]] = {ACTION_POOL: {}, EVENT_POOL: {}}
        for cluster in self.clusters:
            table = self._by_pool.setdefault(cluster.pool, {})
            for member in cluster.members:
                if member in table:
                    raise SchemaViolation(
                        f"cluster {cluster.canonical!r}",
                        f"label {member!r} appears in two {cluster.pool} clusters",
                    )
                table[member] = cluster.canonical
        # query-time tables, each built on its first use
        self._by_fold: dict[str, dict[str, str]] = {}
        self._buckets: dict[str, tuple[SynonymLexicon, dict]] = {}
        self._vectors: dict[str, tuple] = {}
        self._own_provider = provider_from_id(provider_id)  # for queries given none

    def lookup(self, label: str, pool: str = ACTION_POOL) -> str:
        """Canonical for a surface label; identity when the label is unmapped."""
        return self._by_pool.get(pool, {}).get(label, label)

    def has_label(self, label: str, pool: str = ACTION_POOL) -> bool:
        return label in self._by_pool.get(pool, {})

    def pool_labels(self, pool: str) -> set[str]:
        return set(self._by_pool.get(pool, {}))

    def lookup_fold(self, folded: str, pool: str = ACTION_POOL) -> str | None:
        """Canonical of the first member, in sorted order, whose fold_label is
        `folded`; None when no member folds to it."""
        table = self._by_fold.get(pool)
        if table is None:
            table = {}
            for member in sorted(self._by_pool.get(pool, {})):
                table.setdefault(fold_label(member), self.lookup(member, pool))
            self._by_fold[pool] = table
        return table.get(folded)

    def nearest_canonical(
        self, query: str, lexicon: SynonymLexicon, provider, pool: str = ACTION_POOL
    ) -> str | None:
        """Canonical of the member that links best to the query under the
        map's threshold: the highest link similarity wins, then the smallest
        canonical; None when no member links.

        provider=None uses the provider the map's id names, built once per
        map, when the id can rebuild one. Members or a query the provider
        cannot embed link lexically only."""
        members = tuple(self._by_pool.get(pool, {}).items())  # (member, canonical)
        query_bucket = lexicon.link_bucket(lexical_key(query, lexicon))
        lexical = self._member_buckets(lexicon, pool).get(query_bucket, [])
        linked_to = [(-1.0, members[i][1]) for i in lexical]
        if provider is None:
            provider = self._own_provider
        vectors = None if provider is None else self._member_vectors(provider, pool)
        vec = None if vectors is None else _embed_or_none(provider, query)
        if vec is not None:
            matrix, unit, embedded = vectors
            near = embedded & (unit @ unit_rows(vec) >= self.threshold - TIE_BAND)
            near[lexical] = False  # a lexical link scores 1.0, whatever the cosine
            for i in np.flatnonzero(near).tolist():
                sim = cosine(vec, matrix[i])
                if sim >= self.threshold:
                    linked_to.append((-sim, members[i][1]))
        return min(linked_to)[1] if linked_to else None

    def _member_buckets(self, lexicon: SynonymLexicon, pool: str) -> dict[int | str, list[int]]:
        """Link bucket -> positions of the pool's members in it; kept for the
        last lexicon object asked for."""
        kept = self._buckets.get(pool)
        if kept is None or kept[0] is not lexicon:
            table: dict[int | str, list[int]] = {}
            for i, member in enumerate(self._by_pool.get(pool, {})):
                table.setdefault(lexicon.link_bucket(lexical_key(member, lexicon)), []).append(i)
            kept = self._buckets[pool] = (lexicon, table)
        return kept[1]

    def _member_vectors(self, provider, pool: str):
        """(matrix, unit rows, embedded mask) of the pool's members, or None
        when the provider embeds none of them; kept for the last provider
        object asked for."""
        kept = self._vectors.get(pool)
        if kept is None or kept[0] is not provider:
            members = list(self._by_pool.get(pool, {}))
            kept = self._vectors[pool] = (provider, _embed_members(provider, members))
        return kept[1]

    def __eq__(self, other):
        if not isinstance(other, NormalizationMap):
            return NotImplemented
        return (
            self.clusters == other.clusters
            and self.threshold == other.threshold
            and self.provider_id == other.provider_id
        )

    def to_json_bytes(self) -> bytes:
        obj = {
            "schema_version": 1,
            "threshold": self.threshold,
            "provider_id": self.provider_id,
            "clusters": [
                {"pool": c.pool, "canonical": c.canonical, "members": list(c.members)}
                for c in self.clusters
            ],
        }
        return dump_canonical(obj)

    @classmethod
    def from_json_bytes(cls, raw: bytes | str) -> "NormalizationMap":
        obj = load_object(raw, "normalization map")
        if require(obj, "schema_version", int, "$") != 1:
            raise SchemaViolation("$.schema_version", "expected a version-1 normalization map")
        threshold = obj.get("threshold")
        if type(threshold) not in (int, float) or not 0.0 <= threshold <= 1.0:
            raise SchemaViolation("$.threshold", "must be a number in [0, 1]")
        provider_id = require(obj, "provider_id", str, "$")
        clusters = []
        for i, c in enumerate(require(obj, "clusters", list, "$", default=[])):
            path = f"$.clusters[{i}]"
            if not isinstance(c, dict):
                raise SchemaViolation(path, "cluster must be an object")
            members = c.get("members")
            canonical = c.get("canonical")
            pool = c.get("pool")
            if not isinstance(members, list) or not members or not all(map(is_label, members)):
                raise SchemaViolation(
                    f"{path}.members", "nonempty list of labels with a non-separator character"
                )
            if not is_label(canonical):
                raise SchemaViolation(f"{path}.canonical", "label with a non-separator character")
            if pool not in (ACTION_POOL, EVENT_POOL):
                raise SchemaViolation(f"{path}.pool", "must be 'action' or 'event'")
            clusters.append(LabelCluster(tuple(sorted(members)), canonical, pool))
        return cls(clusters, float(threshold), provider_id)


def _embed_members(provider, members: list[str]):
    """(matrix, unit rows, embedded mask) for map members, or None when the
    provider embeds none of them or fails as a whole."""
    try:
        vectors = list(embed_matrix(provider, members))
    except MissingLabel:  # one at a time, so the members it has vectors for still link
        vectors = [_embed_or_none(provider, member) for member in members]
    except ProviderError:  # a failed provider, say a dead endpoint: lexical links only
        return None
    embedded = np.array([vec is not None for vec in vectors], dtype=bool)
    if not embedded.any():
        return None
    dim = len(vectors[int(np.argmax(embedded))])
    matrix = np.array([np.zeros(dim) if vec is None else vec for vec in vectors])
    return matrix, unit_rows(matrix), embedded


def _embed_or_none(provider, label: str):
    try:
        return provider.embed(label)
    except ProviderError:
        return None


def provider_from_id(provider_id: str):
    """A provider rebuilt from its id alone; only the hashed one can be."""
    prefix = "hashed:fnv1a-trigram:"
    if provider_id.startswith(prefix):
        try:
            return HashedNgramProvider(int(provider_id[len(prefix):]))
        except ValueError:
            return None
    return None


def collect_label_pools(source) -> tuple[Counter, Counter]:
    """(action_labels, event_labels) with occurrence counts, from a doc or graph."""
    actions: Counter = Counter()
    events: Counter = Counter()
    if isinstance(source, AnnotationDoc):
        for macro in source.macro_events:
            events[macro.label] += 1
            for event in macro.events:
                events[event.label] += 1
                for panel in event.panels:
                    actions.update(a.label for a in panel.actions)
    elif isinstance(source, NarrativeGraph):
        for node in source.nodes(NodeKind.ACTION):
            actions[node.label()] += 1
        for kind in (NodeKind.EVENT, NodeKind.MACRO_EVENT):
            for node in source.nodes(kind):
                events[node.label()] += 1
    else:
        raise TypeError(f"expected AnnotationDoc or NarrativeGraph, got {type(source).__name__}")
    return actions, events


def build_normalization_map(
    source,
    provider,
    lexicon: SynonymLexicon,
    threshold: float = DEFAULT_THRESHOLD,
    gold_labels: set[str] | None = None,
) -> NormalizationMap:
    """Cluster the source's action and event label pools and pick canonicals.

    gold_labels (action pool only) are merged into the pool before clustering,
    so a gold name like "attack" can become the canonical of a cluster even
    when no annotation uses it verbatim.
    """
    gold = set(gold_labels or ())
    action_freq, event_freq = collect_label_pools(source)
    clusters: list[LabelCluster] = []
    action_pool = set(action_freq) | gold
    if action_pool:
        for cluster in cluster_labels(action_pool, provider, lexicon, threshold, ACTION_POOL):
            clusters.append(assign_canonical(cluster, gold, dict(action_freq)))
    if event_freq:
        for cluster in cluster_labels(set(event_freq), provider, lexicon, threshold, EVENT_POOL):
            clusters.append(assign_canonical(cluster, set(), dict(event_freq)))
    return NormalizationMap(clusters, threshold, getattr(provider, "provider_id", "unknown"))


def apply_normalization(graph: NarrativeGraph, norm_map: NormalizationMap) -> NarrativeGraph:
    """Relabel action/event/macro-event nodes of a finalized graph to canonicals."""
    if graph.normalized:
        raise AlreadyNormalized(graph.story_id)
    relabeled = []
    for pool, kinds in _POOL_KINDS.items():
        for kind in kinds:
            for node in graph.nodes(kind):
                old = node.attrs.get("label", "")
                attrs = {**node.attrs, "label": norm_map.lookup(old, pool)}
                attrs.setdefault("surface_label", old)
                relabeled.append(Node(node.id, kind, attrs))
    return graph.relabeled(relabeled)
