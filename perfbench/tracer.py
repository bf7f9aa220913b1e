"""Span and counter tracing of nkg's public functions, from outside nkg.

`Tracer.install()` replaces each traced function wherever its callers look
it up: module globals that hold it (its own module, the package, and every
module that imported it by name) and class attributes for methods. Nothing
in nkg changes; `restore()` puts every original back, so untraced runs pay
nothing.

A timed call pushes a frame, so each call knows its parent. A call's self
time is its duration minus the time its timed children covered. Calls under
`run_eval` are attributed to eval tasks by the frame that opened them:
`set_f1` under `_score_t1` counts to T1, directly under `run_eval` to T5.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import partial
from time import perf_counter

# (module, attribute, metric) for functions timed as spans
SPANS = (
    ("nkg.annotations", "parse_annotations", "annotations.parse_s"),
    ("nkg.builder", "build_panel_layer", "builder.panel_layer_s"),
    ("nkg.builder", "build_temporal_layer", "builder.temporal_layer_s"),
    ("nkg.builder", "build_event_layer", "builder.event_layer_s"),
    ("nkg.builder", "link_layers", "builder.link_layers_s"),
    ("nkg.graph", "NarrativeGraph.finalize", "graph.finalize_s"),
    ("nkg.graph", "NarrativeGraph.to_json_bytes", "graph.to_json_s"),
    ("nkg.graph", "NarrativeGraph.from_json_bytes", "graph.from_json_s"),
    ("nkg.normalize", "collect_label_pools", "normalize.collect_pools_s"),
    ("nkg.normalize", "cluster_labels", None),
    ("nkg.normalize", "apply_normalization", "normalize.apply_s"),
    ("nkg.normalize", "NormalizationMap.to_json_bytes", "normalize.map_io_s"),
    ("nkg.normalize", "NormalizationMap.from_json_bytes", "normalize.map_io_s"),
    ("nkg.reasoner", "retrieve_actions", None),
    ("nkg.reasoner", "reconstruct_timeline", None),
    ("nkg.reasoner", "character_trajectory", None),
    ("nkg.reasoner", "trace_dialogue", None),
    ("nkg.reasoner", "summarize_event", None),
    ("nkg.evaluation", "build_gold", "evaluation.gold_s"),
    ("nkg.evaluation", "run_eval", None),
    ("nkg.evaluation", "_score_t1", None),
    ("nkg.evaluation", "set_f1", None),
    ("nkg.evaluation", "token_f1", None),
    ("nkg.evaluation", "coverage", None),
    ("nkg.evaluation", "ordering_accuracy", None),
    ("nkg.evaluation", "render_report", "evaluation.render_s"),
)
# timed like spans but too frequent to keep one record per call
TIMED = (
    ("nkg.normalize", "linked", None),
    ("nkg.normalize", "assign_canonical", "normalize.canonical_s"),
    ("nkg.lexicon", "lexical_key", "lexicon.lexical_key_s"),
    ("nkg.embedding", "HashedNgramProvider.embed", "embedding.embed_s"),
    ("nkg.embedding", "cosine", "embedding.cosine_s"),
)
# (module, attribute, counter) for calls only; iterators also count items
COUNTED = (
    ("nkg.lexicon", "fold_label", "lexicon.fold_label_calls"),
    ("nkg.lexicon", "lexical_key", "lexicon.lexical_key_calls"),
    ("nkg.embedding", "HashedNgramProvider.embed", "embedding.embed_calls"),
    ("nkg.embedding", "embed_hashed", "embedding.embed_misses"),
    ("nkg.embedding", "cosine", "embedding.cosine_calls"),
)
ITERATORS = (
    ("nkg.graph", "NarrativeGraph.nodes"),
    ("nkg.graph", "NarrativeGraph.edges"),
)

EVAL_TASKS = {
    "_score_t1": "t1",
    "trace_dialogue": "t2", "token_f1": "t2",
    "character_trajectory": "t3", "coverage": "t3",
    "reconstruct_timeline": "t4", "ordering_accuracy": "t4",
    "summarize_event": "t5", "set_f1": "t5",
}
QUERY_TASKS = {
    "reconstruct_timeline": "timeline",
    "character_trajectory": "trajectory",
    "trace_dialogue": "dialogue",
    "summarize_event": "summary",
}
QUERY_KINDS = ("action_raw", "action_norm", "action_miss", "timeline", "trajectory",
               "dialogue", "summary")


def _resolve(modules: dict, module: str, attr: str):
    """(owner, name) for 'func' or 'Class.method', or None if nkg lacks it."""
    owner = modules.get(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or name not in vars(owner):
        return None
    return owner, name


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, run id)
        self.stack: list[list] = []  # open frames: [id, name, child seconds, task]
        self.next_id = 0
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.latencies: defaultdict = defaultdict(list)
        self._saved: list[tuple] = []

    # --- patching -----------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every traced function; `modules` maps names to module objects
        and must include every module whose globals may hold a traced name."""
        plan = defaultdict(list)  # wrappers per target, innermost first
        for module, attr, metric in SPANS:
            plan[(module, attr)].append(partial(self._timed, metric=metric, record=True))
        for module, attr, metric in TIMED:
            plan[(module, attr)].append(partial(self._timed, metric=metric, record=False))
        for module, attr in ITERATORS:
            plan[(module, attr)].append(self._iterator)
        for module, attr, counter in COUNTED:
            plan[(module, attr)].append(partial(self._counted, counter=counter))
        for (module, attr), layers in plan.items():
            found = _resolve(modules, module, attr)
            if found is None:
                continue
            owner, name = found
            raw = vars(owner)[name]
            func = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = func
            for layer in layers:
                wrapped = layer(wrapped)
            self._replace(owner, name, raw,
                          classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            if isinstance(owner, type):
                continue
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is func:
                        self._replace(other, key, func, wrapped)

    def _replace(self, owner, name, original, replacement) -> None:
        self._saved.append((owner, name, original))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # --- wrappers -----------------------------------------------------

    def _counted(self, func, counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return func(*args, **kwargs)

        return wrapper

    def _iterator(self, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["graph.nodes_calls"] += 1
            steps = 0
            try:
                for item in func(*args, **kwargs):
                    steps += 1
                    yield item
            finally:
                counts["graph.nodes_steps"] += steps

        return wrapper

    def _timed(self, func, metric, record):
        tracer = self
        stack = self.stack
        name = func.__qualname__

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            task = parent[3] if parent else None
            if task is None and parent is not None and parent[1] == "run_eval":
                task = EVAL_TASKS.get(name)
            frame = [tracer.next_id, name, 0.0, task]
            tracer.next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            duration = end - start
            if parent is not None:
                parent[2] += duration
            if metric:
                tracer.seconds[metric] += duration
            if record:
                tracer.spans.append(
                    (frame[0], name, start, end, parent[0] if parent else None, tracer.run_id)
                )
            if task is not None and (parent is None or parent[3] is None):
                tracer.seconds[f"evaluation.{task}_s"] += duration
            tracer._observe(name, task, args, kwargs, result, duration, duration - frame[2])
            return result

        return wrapper

    def _observe(self, name, task, args, kwargs, result, duration, self_time) -> None:
        """Counts and latencies that need a call's arguments or result."""
        if name == "linked":
            self.counts["normalize.pairs_tested"] += 1
            self.counts["normalize.pairs_linked"] += bool(result)
        elif name == "cluster_labels":
            pool = kwargs.get("pool", args[4] if len(args) > 4 else "action")
            self.seconds[f"normalize.cluster_{pool}_s"] += duration
            self.seconds["normalize.union_find_s"] += self_time
        elif name == "_score_t1":
            gold, macro_action_gold = args[2], args[4]
            self.counts["evaluation.t1_gold_instances"] += sum(
                len(macro_action_gold.get(c, ())) for c in gold.action_clusters
            )
        elif name == "retrieve_actions":
            if task == "t1":
                self.counts["evaluation.t1_queries"] += 1
                self.counts["evaluation.t1_hits"] += len(result)
            mode = kwargs.get("mode", args[2] if len(args) > 2 else "raw")
            norm_map = kwargs.get("norm_map")
            if mode == "raw":
                kind = "action_raw"
            elif norm_map is not None and norm_map.has_label(args[1]):
                kind = "action_norm"
            else:
                kind = "action_miss"
            self.latencies[kind].append(duration)
        elif name in QUERY_TASKS:
            self.latencies[QUERY_TASKS[name]].append(duration)

    # --- results ------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer metrics; every name is present, 0 when unused."""
        per_pass = {}
        names = {m for _, _, m in SPANS + TIMED if m} | {
            "normalize.cluster_action_s", "normalize.cluster_event_s",
            "normalize.union_find_s",
        } | {f"evaluation.t{i}_s" for i in range(1, 6)}
        for name in sorted(names):
            per_pass[name] = self.seconds.get(name, 0.0) / passes
        counters = {c for _, _, c in COUNTED} | {
            "graph.nodes_calls", "graph.nodes_steps", "normalize.pairs_tested",
            "normalize.pairs_linked", "evaluation.t1_queries", "evaluation.t1_hits",
            "evaluation.t1_gold_instances",
        }
        for name in sorted(counters):
            per_pass[name] = self.counts.get(name, 0) / passes
        tested = self.counts["normalize.pairs_tested"]
        hits = self.counts["evaluation.t1_hits"]
        per_pass["normalize.link_yield"] = (
            self.counts["normalize.pairs_linked"] / tested if tested else 0.0
        )
        per_pass["evaluation.t1_hit_yield"] = (
            self.counts["evaluation.t1_gold_instances"] / hits if hits else 0.0
        )
        for kind in QUERY_KINDS:
            samples = self.latencies.get(kind, [])
            p50, p90 = percentiles(samples, (50, 90))
            per_pass[f"reasoner.{kind}_p50_ms"] = p50 * 1000
            per_pass[f"reasoner.{kind}_p90_ms"] = p90 * 1000
        return per_pass

    def span_records(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "parent", "run")
        return [dict(zip(keys, span)) for span in self.spans]


def percentiles(samples: list[float], points) -> list[float]:
    """Nearest-rank percentiles; 0.0 for each point when there are no samples."""
    if not samples:
        return [0.0 for _ in points]
    ordered = sorted(samples)
    return [ordered[min(len(ordered) - 1, max(0, -(-p * len(ordered) // 100) - 1))]
            for p in points]
