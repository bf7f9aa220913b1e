"""Narrative knowledge graphs for three-tier visual story annotations.

Parse annotation documents, build layered graphs, normalize action and
event labels, run reasoning queries, and score raw against normalized
graphs.
"""

from .annotations import (
    AnnotationDoc,
    parse_annotations,
    validate_annotations,
)
from .builder import build_all
from .embedding import (
    HashedNgramProvider,
    RemoteProvider,
    VectorFileProvider,
    cosine,
    embed_hashed,
    load_vector_file,
)
from .evaluation import (
    EvalReport,
    GoldReference,
    TaskScore,
    build_gold,
    load_gold_labels,
    ordering_accuracy,
    render_report,
    run_eval,
    set_f1,
    token_f1,
)
from .fixtures import FIXTURE_KINDS, generate_fixture
from .graph import (
    Edge,
    EdgeKind,
    Layer,
    NarrativeGraph,
    Node,
    NodeKind,
    deserialize,
    serialize,
)
from .lexicon import SynonymLexicon, fold_label, lexical_key, load_lexicon
from .normalize import (
    DEFAULT_THRESHOLD,
    LabelCluster,
    NormalizationMap,
    apply_normalization,
    build_normalization_map,
    cluster_labels,
)
from .reasoner import (
    ActionHit,
    DialogueTrace,
    EventSummary,
    Timeline,
    Trajectory,
    character_trajectory,
    reconstruct_timeline,
    retrieve_actions,
    summarize_event,
    trace_dialogue,
)

__version__ = "0.1.0"

__all__ = [
    "ActionHit",
    "AnnotationDoc",
    "DEFAULT_THRESHOLD",
    "DialogueTrace",
    "Edge",
    "EdgeKind",
    "EvalReport",
    "EventSummary",
    "FIXTURE_KINDS",
    "GoldReference",
    "HashedNgramProvider",
    "LabelCluster",
    "Layer",
    "NarrativeGraph",
    "Node",
    "NodeKind",
    "NormalizationMap",
    "RemoteProvider",
    "SynonymLexicon",
    "TaskScore",
    "Timeline",
    "Trajectory",
    "VectorFileProvider",
    "apply_normalization",
    "build_all",
    "build_gold",
    "build_normalization_map",
    "character_trajectory",
    "cluster_labels",
    "cosine",
    "deserialize",
    "embed_hashed",
    "fold_label",
    "generate_fixture",
    "lexical_key",
    "load_gold_labels",
    "load_lexicon",
    "load_vector_file",
    "ordering_accuracy",
    "parse_annotations",
    "reconstruct_timeline",
    "render_report",
    "retrieve_actions",
    "run_eval",
    "serialize",
    "set_f1",
    "summarize_event",
    "token_f1",
    "trace_dialogue",
    "validate_annotations",
]
