"""Label normalization: clustering of equivalent surface labels and canonical
relabeling of graphs.

Two labels land in one cluster when any of three links holds: equal lexical
keys, shared synonym-lexicon group, or embedding cosine at or above the
threshold; link_similarity holds that rule, pair by pair. Clusters are the
connected components of the link relation. Action labels and event labels
form separate pools so the two vocabularies never merge with each other.

One LabelIndex holds the link rule over a list of labels, for both of its
uses: clustering a pool and resolving an unseen query against a map. It
buckets the labels by lexical key or lexicon group; the keys lemmatize each
distinct token once, through the lexicon's lemma memo, which lives per
lexicon instance and grows with the distinct tokens it has seen. Once
embedded, it keeps the float64 rows and their float32 unit rows, stored
dim x labels. Its two cosine screens follow one rule: a float32 product of
unit rows at or above the threshold plus float32_band links, one below the
threshold minus that band does not, and cosine()'s own value decides each
pair in between, so a float tie falls on the side link_similarity puts it.

Clustering finds the links in one batched pass per pool. A union-find over
the pool's sorted labels starts with each label at its bucket's first
label, and its roots give the clusters in sorted order. Cosine links,
needed only when the buckets are more than one, come from the index's
links(): one embed_batch call fills the rows, and one block of labels at a
time is multiplied with the labels from its own start on.

Canonical selection prefers gold labels (highest annotation frequency first),
otherwise the shortest member; remaining ties break lexicographically. A
pool's frequency table and gold set are built once and serve each of its
clusters.

A map resolves an action query label in one place (NormalizationMap.resolve),
in this order: an exact member; else the first member, in sorted order,
whose fold_label equals the query's; else the nearest cluster, by lexical
key, lexicon group or cosine at or above the map's threshold
(nearest_canonical); else the query itself. The map keeps one LabelIndex
of its action members per lexicon and provider, and the nearest cluster
costs one float32 product of the query with its unit rows (within()); every
member that passes the lower cutoff gets cosine(), whose value ranks it.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring

import numpy as np

from .annotations import AnnotationDoc
from .errors import AlreadyNormalized, MissingLabel, ProviderError, SchemaViolation
from .graph import NarrativeGraph, NodeKind
from .jsonio import dump_list, load_object, require
from .lexicon import SynonymLexicon, fold_label, is_label, lexical_key
from .embedding import DEFAULT_DIM, cosine, pair_cosines, provider_from_id, row_norms

ACTION_POOL = "action"
EVENT_POOL = "event"
DEFAULT_THRESHOLD = 0.75
# the largest hashed dimension a map file may name: a fallback query embeds
# at the map's dimension, so the file would otherwise set its memory
MAX_HASHED_DIM = 16 * DEFAULT_DIM
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


def float32_band(dim: int) -> float:
    """Twice the error bound of a float32 product of two unit rows of dim
    entries, in any summation order: cosine() decides each pair whose product
    comes this close to the threshold. Rounding a cutoff to float32 takes at
    most 2**-24 of the spare half."""
    return (dim + 2) * 2.0**-23


def cluster_labels(
    labels, provider, lexicon: SynonymLexicon, threshold: float, pool: str = ACTION_POOL
) -> list[LabelCluster]:
    """Connected components of the link relation; canonicals left unassigned.

    provider=None: lexical links only. Otherwise one embed_batch call, in
    sorted order, embeds a pool that lexical links leave in more than one
    bucket."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    ordered = sorted(set(labels))
    index = LabelIndex(ordered, lexicon)
    # a union-find forest over positions, seeded with each label at its link
    # bucket's first position; every entry points at itself or a smaller one
    parent = [index.positions[bucket][0] for bucket in index.buckets]
    if provider is not None and len(index.positions) > 1:
        index.embed(provider.embed_batch(ordered))
        for rows, cols in index.links(threshold):
            for i, j in zip(rows.tolist(), cols.tolist()):
                if parent[i] != parent[j]:  # equal parents share a root
                    i, j = _find(parent, i), _find(parent, j)
                    parent[max(i, j)] = min(i, j)
    # each cluster first appears at its smallest position: sorted order
    clusters: dict[int, list[str]] = {}
    for i, label in enumerate(ordered):
        clusters.setdefault(_find(parent, i), []).append(label)
    return [LabelCluster(tuple(members), "", pool) for members in clusters.values()]


def _find(parent: list[int], i: int) -> int:
    """The root of i's tree, halving the path to it on the way."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


class LabelIndex:
    """The link rule over a list of labels, by position: each label's link
    bucket, and after embed() its vectors as float64 rows and as float32 unit
    rows. Both cosine screens, a pool's links() and a query's within(), take
    float32 products of unit rows and let cosine()'s bits decide each one
    that comes within float32_band of the threshold."""

    def __init__(self, labels, lexicon: SynonymLexicon):
        self.lexicon = lexicon
        self.buckets = [lexicon.link_bucket(lexical_key(label, lexicon)) for label in labels]
        self.positions: dict[int | str, list[int]] = {}  # link bucket -> positions
        for i, bucket in enumerate(self.buckets):
            self.positions.setdefault(bucket, []).append(i)
        self.rows = None  # float64, one row a label; None until embed() finds a vector

    def embed(self, vectors) -> None:
        """Takes one vector a label, None for a label without one. The unit
        rows are kept dim x labels and C-contiguous, so a query's products are
        one vector-matrix product. A label without a vector has a zero row
        and a NaN unit column, whose products pass no cutoff."""
        dim = next((len(vec) for vec in vectors if vec is not None), None)
        if dim is None:
            return
        self.rows = np.array([np.zeros(dim) if vec is None else vec for vec in vectors], np.float64)
        self.norms = row_norms(self.rows)
        unit = (self.rows / np.where(self.norms > 0, self.norms, 1.0)[:, None]).astype(np.float32)
        unit[[vec is None for vec in vectors]] = np.nan
        self.unit = np.ascontiguousarray(unit.T)  # transposed in float32: half the bytes
        self.band = float32_band(dim)

    def links(self, threshold: float):
        """Yields, one block of positions at a time, the pairs i < j whose
        cosine(rows[i], rows[j]) is at or above the threshold. A block takes
        the products of its unit rows with those from its own start on;
        pair_cosines decides each pair within the band."""
        unit, band = self.unit, self.band
        for start in range(0, unit.shape[1], _BLOCK_ROWS):
            sims = unit[:, start : start + _BLOCK_ROWS].T @ unit[:, start:]
            rows, cols = np.nonzero(np.triu(sims >= threshold - band, 1))
            near = sims[rows, cols] < threshold + band
            rows += start
            cols += start
            keep = ~near
            keep[near] = pair_cosines(self.rows, self.norms, rows[near], cols[near]) >= threshold
            yield rows[keep], cols[keep]

    def within(self, query: str, vec, threshold: float, folded: str | None = None):
        """(similarity, position) of each label that links to the query: 1.0
        for those in its link bucket, else cosine(vec, row) at or above the
        threshold. vec is the query's vector, None for lexical links only;
        folded, when given, is fold_label(query)."""
        bucket = self.lexicon.link_bucket(lexical_key(query, self.lexicon, folded))
        lexical = self.positions.get(bucket, [])
        found = [(1.0, i) for i in lexical]
        if vec is not None and self.rows is not None:
            vec = np.asarray(vec, dtype=np.float64)  # a provider may return a list
            norm = math.sqrt(vec.dot(vec))
            # a zero query stays zero: its products are 0.0, as cosine() gives
            products = (vec / norm if norm > 0 else vec).astype(np.float32) @ self.unit
            # ndarray.nonzero: np.flatnonzero is a Python-level wrapper around it
            for i in (products >= threshold - self.band).nonzero()[0].tolist():
                if i not in lexical:  # a lexical link scores 1.0, whatever the cosine
                    sim = cosine(vec, self.rows[i])
                    if sim >= threshold:
                        found.append((sim, i))
        return found


def assign_canonical(
    cluster: LabelCluster, gold_labels: set[str], frequency: dict[str, int]
) -> LabelCluster:
    gold_members = [m for m in cluster.members if m in gold_labels]
    if gold_members:
        canonical = min(gold_members, key=lambda m: (-frequency.get(m, 0), len(m), m))
    else:
        canonical = min(cluster.members, key=lambda m: (len(m), m))
    return LabelCluster(cluster.members, canonical, cluster.pool)


class NormalizationMap:
    def __init__(self, clusters, threshold: float, provider_id: str):
        """A label may appear once per pool; a repeat is named by the JSON path
        of its cluster's members, counting clusters in the order given, which
        for a map file is the file's order."""
        clusters = tuple(clusters)
        self.clusters = tuple(sorted(clusters, key=lambda c: (c.pool, c.members)))
        self.threshold = threshold
        self.provider_id = provider_id
        self._by_pool: dict[str, dict[str, str]] = {ACTION_POOL: {}, EVENT_POOL: {}}
        for i, cluster in enumerate(clusters):
            table = self._by_pool.setdefault(cluster.pool, {})
            for member in cluster.members:
                if member in table:
                    raise SchemaViolation(
                        f"$.clusters[{i}].members",
                        f"label {member!r} appears twice in the {cluster.pool} pool",
                    )
                table[member] = cluster.canonical
        # each action member's canonical by member position, as the query-time
        # tables below index members; only action queries resolve
        self._canonicals = tuple(self._by_pool[ACTION_POOL].values())
        # query-time tables, each built on its first use
        self._by_fold: dict[str, str] | None = None
        self._index: tuple | None = None  # (lexicon, provider, LabelIndex of members)
        self._own_provider = provider_from_id(provider_id)  # for queries given none

    def lookup(self, label: str, pool: str = ACTION_POOL) -> str:
        """Canonical for a surface label; identity when the label is unmapped."""
        return self._by_pool.get(pool, {}).get(label, label)

    def has_label(self, label: str, pool: str = ACTION_POOL) -> bool:
        return label in self._by_pool.get(pool, {})

    def pool_labels(self, pool: str) -> set[str]:
        return set(self._by_pool.get(pool, {}))

    def resolve(self, query: str, folded: str, lexicon: SynonymLexicon | None, provider) -> str:
        """Canonical an action query retrieves under, given folded =
        fold_label(query): an exact member's; else that of the first member,
        in sorted order, whose fold_label is `folded`; else nearest_canonical's;
        else the query itself. lexicon=None is the empty lexicon."""
        actions = self._by_pool[ACTION_POOL]
        if query in actions:
            return actions[query]
        if self._by_fold is None:
            self._by_fold = {}
            for member in sorted(actions):
                self._by_fold.setdefault(fold_label(member), actions[member])
        if folded in self._by_fold:
            return self._by_fold[folded]
        if lexicon is None:
            lexicon = SynonymLexicon.empty()
        nearest = self.nearest_canonical(query, lexicon, provider, folded)
        return query if nearest is None else nearest

    def nearest_canonical(
        self, query: str, lexicon: SynonymLexicon, provider, folded: str | None = None
    ) -> str | None:
        """Canonical of the action member that links best to the query under
        the map's threshold: the highest link similarity wins, then the
        smallest canonical; None when no member links.

        provider=None uses the provider the map's id names, built once per
        map, when the id can rebuild one. Members or a query the provider
        cannot embed link lexically only. The members' LabelIndex is built
        on the first query and kept while the lexicon and provider stay the
        same objects. A caller that has folded = fold_label(query) passes
        it, so that the query's lexical key does not fold it again."""
        if provider is None:
            provider = self._own_provider
        if self._index is None or self._index[0] is not lexicon or self._index[1] is not provider:
            members = list(self._by_pool[ACTION_POOL])
            index = LabelIndex(members, lexicon)
            if provider is not None:
                index.embed(_embed_members(provider, members))
            self._index = (lexicon, provider, index)
        index = self._index[2]
        vec = None if index.rows is None else _embed_or_none(provider, query)
        found = index.within(query, vec, self.threshold, folded)
        return min((-sim, self._canonicals[i]) for sim, i in found)[1] if found else None

    def __eq__(self, other):
        if not isinstance(other, NormalizationMap):
            return NotImplemented
        return (
            self.clusters == other.clusters
            and self.threshold == other.threshold
            and self.provider_id == other.provider_id
        )

    def to_json_bytes(self) -> bytes:
        """dump_canonical's bytes of the map's dict, filled into a template of
        its fixed shape, as the graph writer fills its own."""
        q = encode_basestring  # the quoting json.dumps uses under ensure_ascii=False
        clusters = [
            f'{{\n      "canonical": {q(c.canonical)},\n'
            f'      "members": {dump_list(list(map(q, c.members)), 6)},\n'
            f'      "pool": {q(c.pool)}\n    }}'
            for c in self.clusters
        ]
        return (
            f'{{\n  "clusters": {dump_list(clusters, 2)},\n'
            f'  "provider_id": {q(self.provider_id)},\n  "schema_version": 1,\n'
            f'  "threshold": {json.dumps(self.threshold)}\n}}\n'
        ).encode("utf-8")

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
        norm_map = cls(clusters, float(threshold), provider_id)
        if getattr(norm_map._own_provider, "dim", 0) > MAX_HASHED_DIM:
            raise SchemaViolation("$.provider_id", f"hashed dimension above {MAX_HASHED_DIM}")
        return norm_map


def _embed_members(provider, members: list[str]) -> list:
    """Each member's vector, None for one the provider has none for."""
    try:
        return provider.embed_batch(members)
    except MissingLabel:  # one at a time, so the members it has vectors for still link
        return [_embed_or_none(provider, member) for member in members]
    except ProviderError:  # a failed provider, say a dead endpoint: lexical links only
        return [None] * len(members)


def _embed_or_none(provider, label: str):
    try:
        return provider.embed(label)
    except ProviderError:
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
        for pool, counts in ((ACTION_POOL, actions), (EVENT_POOL, events)):
            for kind in _POOL_KINDS[pool]:
                counts.update(node.label() for node in source.nodes(kind))
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
    action_freq, event_freq = collect_label_pools(source)
    clusters: list[LabelCluster] = []
    # each pool's frequency table and gold set serve every one of its clusters
    for pool, freq, gold in (
        (ACTION_POOL, action_freq, set(gold_labels or ())),
        (EVENT_POOL, event_freq, set()),
    ):
        labels = freq.keys() | gold
        if labels:
            for cluster in cluster_labels(labels, provider, lexicon, threshold, pool):
                clusters.append(assign_canonical(cluster, gold, freq))
    return NormalizationMap(clusters, threshold, getattr(provider, "provider_id", "unknown"))


def apply_normalization(graph: NarrativeGraph, norm_map: NormalizationMap) -> NarrativeGraph:
    """Relabel action/event/macro-event nodes of a finalized graph to canonicals."""
    if graph.normalized:
        raise AlreadyNormalized(graph.story_id)
    return graph.relabeled(
        {
            node.id: norm_map.lookup(node.label(), pool)
            for pool, kinds in _POOL_KINDS.items()
            for kind in kinds
            for node in graph.nodes(kind)
        }
    )
