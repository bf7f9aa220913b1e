"""Label normalization: clustering of equivalent surface labels and canonical
relabeling of graphs.

Two labels land in one cluster when any of three links holds: equal lexical
keys, shared synonym-lexicon group, or embedding cosine at or above the
threshold; link_similarity holds that rule. Clusters are the connected
components of the link relation. Action labels and event labels form
separate pools so the two vocabularies never merge with each other.

Canonical selection prefers gold labels (highest annotation frequency first),
otherwise the shortest member; remaining ties break lexicographically.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

from .annotations import AnnotationDoc
from .errors import AlreadyNormalized, MalformedJson, SchemaViolation
from .graph import NarrativeGraph, Node, NodeKind
from .lexicon import SynonymLexicon, fold_label, lexical_key
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
    """Connected components of the link relation; canonicals left unassigned."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    keys = {label: lexical_key(label, lexicon) for label in sorted(set(labels))}
    clusters: list[list[str]] = []
    for label, key in keys.items():  # each label merges every cluster it links to
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
    return [
        LabelCluster(tuple(members), "", pool)
        for members in sorted(sorted(c) for c in clusters)
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
        # query-time tables, each built on its first use
        self._by_fold: dict[str, dict[str, str]] = {}
        self._keyed: dict[str, tuple[SynonymLexicon, tuple]] = {}

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

    def keyed_members(
        self, lexicon: SynonymLexicon, pool: str = ACTION_POOL
    ) -> tuple[tuple[str, str, str], ...]:
        """(member, lexical key, canonical) for every member of a pool; the
        keys are kept for the last lexicon object asked for."""
        kept = self._keyed.get(pool)
        if kept is None or kept[0] is not lexicon:
            rows = tuple(
                (member, lexical_key(member, lexicon), cluster.canonical)
                for cluster in self.clusters
                if cluster.pool == pool
                for member in cluster.members
            )
            kept = self._keyed[pool] = (lexicon, rows)
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
        if type(threshold) not in (int, float) or not 0.0 <= threshold <= 1.0:
            raise SchemaViolation("$.threshold", "must be a number in [0, 1]")
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
