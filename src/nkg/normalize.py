"""Label normalization: clustering of equivalent surface labels and canonical
relabeling of graphs.

Two labels land in one cluster when any of three links holds: equal lexical
keys, shared synonym-lexicon group, or embedding cosine at or above the
threshold. Clusters are the connected components of that link relation,
computed with a union-find. Action labels and event labels form separate
pools so the two vocabularies never merge with each other.

Canonical selection prefers gold labels (highest annotation frequency first),
otherwise the shortest member; remaining ties break lexicographically.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .annotations import AnnotationDoc
from .errors import AlreadyNormalized, MalformedJson, SchemaViolation
from .graph import NarrativeGraph, Node, NodeKind
from .lexicon import SynonymLexicon, lexical_key
from .embedding import cosine

ACTION_POOL = "action"
EVENT_POOL = "event"
DEFAULT_THRESHOLD = 0.75

_POOL_KINDS = {
    ACTION_POOL: (NodeKind.ACTION,),
    EVENT_POOL: (NodeKind.EVENT, NodeKind.MACRO_EVENT),
}


@dataclass(frozen=True)
class LabelCluster:
    members: tuple[str, ...]  # sorted, nonempty
    canonical: str = ""  # empty until assign_canonical
    pool: str = ACTION_POOL


class _UnionFind:
    def __init__(self, items):
        self.parent = {item: item for item in items}

    def find(self, item):
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:  # path compression
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def components(self):
        groups: dict[str, list[str]] = {}
        for item in self.parent:
            groups.setdefault(self.find(item), []).append(item)
        return [sorted(members) for members in groups.values()]


def linked(a: str, b: str, provider, lexicon: SynonymLexicon, threshold: float) -> bool:
    """The pairwise link relation underlying the clustering."""
    key_a, key_b = lexical_key(a, lexicon), lexical_key(b, lexicon)
    if key_a == key_b:
        return True
    if lexicon.same_group(key_a, key_b):
        return True
    return cosine(provider.embed(a), provider.embed(b)) >= threshold


def cluster_labels(
    labels, provider, lexicon: SynonymLexicon, threshold: float, pool: str = ACTION_POOL
) -> list[LabelCluster]:
    """Connected components of the link relation; canonicals left unassigned."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    ordered = sorted(set(labels))
    uf = _UnionFind(ordered)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if uf.find(a) != uf.find(b) and linked(a, b, provider, lexicon, threshold):
                uf.union(a, b)
    return [
        LabelCluster(tuple(members), "", pool)
        for members in sorted(uf.components())
    ]


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

    def lookup(self, label: str, pool: str = ACTION_POOL) -> str:
        """Canonical for a surface label; identity when the label is unmapped."""
        return self._by_pool.get(pool, {}).get(label, label)

    def has_label(self, label: str, pool: str = ACTION_POOL) -> bool:
        return label in self._by_pool.get(pool, {})

    def pool_labels(self, pool: str) -> set[str]:
        return set(self._by_pool.get(pool, {}))

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
        return (json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n").encode(
            "utf-8"
        )

    @classmethod
    def from_json_bytes(cls, raw: bytes | str) -> "NormalizationMap":
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise MalformedJson(f"invalid normalization map JSON: {exc}") from exc
        if not isinstance(obj, dict) or obj.get("schema_version") != 1:
            raise SchemaViolation("$", "expected a version-1 normalization map object")
        threshold = obj.get("threshold")
        if not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
            raise SchemaViolation("$.threshold", "must be a number")
        provider_id = obj.get("provider_id")
        if not isinstance(provider_id, str):
            raise SchemaViolation("$.provider_id", "must be a string")
        clusters = []
        for i, c in enumerate(obj.get("clusters", [])):
            path = f"$.clusters[{i}]"
            if not isinstance(c, dict):
                raise SchemaViolation(path, "cluster must be an object")
            members = c.get("members")
            canonical = c.get("canonical")
            pool = c.get("pool")
            if (
                not isinstance(members, list)
                or not members
                or not all(isinstance(m, str) and m for m in members)
            ):
                raise SchemaViolation(f"{path}.members", "nonempty list of strings required")
            if not isinstance(canonical, str) or not canonical:
                raise SchemaViolation(f"{path}.canonical", "nonempty string required")
            if pool not in (ACTION_POOL, EVENT_POOL):
                raise SchemaViolation(f"{path}.pool", "must be 'action' or 'event'")
            clusters.append(LabelCluster(tuple(sorted(members)), canonical, pool))
        return cls(clusters, float(threshold), provider_id)


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
    """Relabel action/event/macro-event nodes to canonicals; topology untouched."""
    if graph.normalized:
        raise AlreadyNormalized(graph.story_id)
    out = NarrativeGraph(graph.story_id, normalized=True)
    for node in graph.nodes():
        pool = next((p for p, kinds in _POOL_KINDS.items() if node.kind in kinds), None)
        if pool is None:
            out.add_node(node)
            continue
        attrs = dict(node.attrs)
        old = attrs.get("label", "")
        attrs["label"] = norm_map.lookup(old, pool)
        attrs.setdefault("surface_label", old)
        out.add_node(Node(node.id, node.kind, attrs))
    for edge in graph.edges():
        out.add_edge(edge)
    return out.finalize()
