"""Label normalization: clustering of equivalent surface labels and canonical
relabeling of graphs.

Two labels land in one cluster when any of three links holds: equal lexical
keys, shared synonym-lexicon group, or embedding cosine at or above the
threshold; link_similarity holds that rule, pair by pair. Clusters are the
connected components of the link relation. Action labels and event labels
form separate pools so the two vocabularies never merge with each other.

Clustering finds the links in one batched pass per pool. Lexical links
bucket the labels by lexical key or lexicon group; the pool's keys
lemmatize each distinct token once. One union-find over the pool's sorted
labels starts with each label at its bucket's first label. Cosine links
come from row-blocked products of the pool's embedding matrix, which one
embed_batch call fills, and only when the buckets are more than one. Each
block of rows is multiplied only with the rows from its own start on, the
upper triangle the links i < j need. A product within TIE_BAND of the
threshold is re-checked at one dot product against row norms kept per
pool, with the bits the scalar cosine() that link_similarity uses gives,
so a float tie falls on the same side for both. Every block's links join
the same union-find, whose roots give the clusters in sorted order.

Canonical selection prefers gold labels (highest annotation frequency first),
otherwise the shortest member; remaining ties break lexicographically. A
pool's frequency table and gold set are built once and serve each of its
clusters.

A map resolves an action query label in one place (NormalizationMap.resolve),
in this order: an exact member; else the first member, in sorted order,
whose fold_label equals the query's; else the nearest cluster, by lexical
key, lexicon group or cosine at or above the map's threshold
(nearest_canonical); else the query itself. The cosine side of the nearest
cluster costs one float32 product of the query with the action pool's unit
member rows, kept per provider, and a cosine() recheck of each member whose
product comes within a band of the threshold that covers float32's
rounding, so the answer is the one link_similarity gives member by member.
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
from .lexicon import SynonymLexicon, fold_label, is_label, lexical_key, lexical_keys
from .embedding import (
    DEFAULT_DIM,
    HashedNgramProvider,
    cosine,
    pair_cosines,
    row_norms,
    unit_rows,
)

ACTION_POOL = "action"
EVENT_POOL = "event"
DEFAULT_THRESHOLD = 0.75
# the largest hashed dimension a map file may name: a fallback query embeds
# at the map's dimension, so the file would otherwise set its memory
MAX_HASHED_DIM = 16 * DEFAULT_DIM
# a product this close to the threshold may fall on the other side of it
# than cosine() does, so cosine()'s value (from pair_cosines) decides those pairs
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

    provider=None: lexical links only. Otherwise one embed_batch call, in
    sorted order, embeds a pool that lexical links leave in more than one
    bucket."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    ordered = sorted(set(labels))
    # each label points at its link bucket's first position: a forest as
    # _union keeps it, already joined along every lexical link
    first: dict[int | str, int] = {}
    buckets = map(lexicon.link_bucket, lexical_keys(ordered, lexicon))
    root = np.array([first.setdefault(b, i) for i, b in enumerate(buckets)], dtype=np.intp)
    if provider is not None and len(first) > 1:
        vectors = np.array(provider.embed_batch(ordered), dtype=np.float64)
        for rows, cols in _cosine_links(vectors, threshold):
            _union(root, rows, cols)
    # roots are the smallest positions, so clusters come out in sorted order
    clusters: dict[int, list[str]] = {}
    for r, label in zip(root.tolist(), ordered):
        clusters.setdefault(r, []).append(label)
    return [LabelCluster(tuple(members), "", pool) for members in clusters.values()]


def _union(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Joins the trees of a[k] and b[k] for every k, in place.

    root is a union-find forest in which each entry points at itself or a
    smaller entry, and every entry at its tree's smallest one; both stay
    true. Each round hooks the larger root of every pair still apart under
    the smallest root paired with it, then jumps pointers to the roots."""
    while True:
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            return
        ra, rb = ra[apart], rb[apart]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while ((up := root[root]) != root).any():
            root[:] = up


def _cosine_links(vectors: np.ndarray, threshold: float):
    """Yields, one block of rows at a time, the index pairs i < j whose
    cosine(vectors[i], vectors[j]) is at or above the threshold. A block is
    multiplied only with the rows from its own start on."""
    unit = unit_rows(vectors)
    norms = row_norms(vectors)
    for start in range(0, len(unit), _BLOCK_ROWS):
        sims = unit[start : start + _BLOCK_ROWS] @ unit[start:].T
        rows, cols = np.nonzero(np.triu(sims >= threshold - TIE_BAND, 1))
        near = sims[rows, cols] < threshold + TIE_BAND
        rows += start
        cols += start
        keep = ~near
        keep[near] = pair_cosines(vectors, norms, rows[near], cols[near]) >= threshold
        yield rows[keep], cols[keep]


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
        self._buckets: tuple[SynonymLexicon, dict] | None = None  # kept per lexicon
        self._vectors: tuple | None = None  # kept per provider
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
        nearest = self.nearest_canonical(query, lexicon, provider)
        return query if nearest is None else nearest

    def nearest_canonical(self, query: str, lexicon: SynonymLexicon, provider) -> str | None:
        """Canonical of the action member that links best to the query under
        the map's threshold: the highest link similarity wins, then the
        smallest canonical; None when no member links.

        provider=None uses the provider the map's id names, built once per
        map, when the id can rebuild one. Members or a query the provider
        cannot embed link lexically only. One float32 product with the
        member rows picks the members within a band of the threshold wide
        enough for float32's error; cosine() decides each of them."""
        query_bucket = lexicon.link_bucket(lexical_key(query, lexicon))
        if self._buckets is None or self._buckets[0] is not lexicon:
            buckets: dict[int | str, list[int]] = {}  # link bucket -> member positions
            for i, member in enumerate(self._by_pool[ACTION_POOL]):
                buckets.setdefault(lexicon.link_bucket(lexical_key(member, lexicon)), []).append(i)
            self._buckets = (lexicon, buckets)
        lexical = self._buckets[1].get(query_bucket, [])
        linked_to = [(-1.0, self._canonicals[i]) for i in lexical]
        if provider is None:
            provider = self._own_provider
        if provider is not None and (self._vectors is None or self._vectors[0] is not provider):
            self._vectors = (provider, _embed_members(provider, list(self._by_pool[ACTION_POOL])))
        vectors = None if provider is None else self._vectors[1]
        vec = None if vectors is None else _embed_or_none(provider, query)
        if vec is not None:
            matrix, rows = vectors
            vec = np.asarray(vec, dtype=np.float64)  # a provider may return a list
            norm = math.sqrt(vec.dot(vec))
            # a zero query stays zero: its products are 0.0, as cosine() gives
            products = rows @ (vec / norm if norm > 0 else vec).astype(np.float32)
            # twice the error bound of a float32 dot product of two unit
            # vectors, so every member cosine() links passes; rounding the
            # cutoff to float32 takes at most 2**-24 of the spare half
            band = (rows.shape[1] + 2) * 2.0**-23
            for i in np.flatnonzero(products >= self.threshold - TIE_BAND - band).tolist():
                if i in lexical:  # a lexical link scores 1.0, whatever the cosine
                    continue
                sim = cosine(vec, matrix[i])
                if sim >= self.threshold:
                    linked_to.append((-sim, self._canonicals[i]))
        return min(linked_to)[1] if linked_to else None

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
        if getattr(provider_from_id(provider_id), "dim", 0) > MAX_HASHED_DIM:
            raise SchemaViolation("$.provider_id", f"hashed dimension above {MAX_HASHED_DIM}")
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
    """(matrix, float32 unit rows) for map members, or None when the provider
    embeds none of them or fails as a whole. A member without a vector has a
    zero matrix row and a NaN unit row, whose products pass no cutoff."""
    try:
        vectors = provider.embed_batch(members)
    except MissingLabel:  # one at a time, so the members it has vectors for still link
        vectors = [_embed_or_none(provider, member) for member in members]
    except ProviderError:  # a failed provider, say a dead endpoint: lexical links only
        return None
    dim = next((len(vec) for vec in vectors if vec is not None), None)
    if dim is None:
        return None
    matrix = np.array([np.zeros(dim) if vec is None else vec for vec in vectors])
    rows = unit_rows(matrix).astype(np.float32)
    rows[[vec is None for vec in vectors]] = np.nan
    return matrix, rows


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
