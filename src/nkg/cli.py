"""Command-line front end.

Subcommands: build, normalize, query, eval, fixture. Every command is a
thin shell over the library; payload goes to standard output, diagnostics
to standard error. A failed command exits with its error's `exit_code`;
nkg.errors lists the codes.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import resources
from .annotations import parse_annotations
from .builder import build_all
from .embedding import HashedNgramProvider, RemoteProvider, load_vector_file
from .errors import AlreadyNormalized, NkgError
from .evaluation import REPORT_FORMATS, build_gold, load_gold_labels, render_report, run_eval
from .fixtures import FIXTURE_KINDS, generate_fixture
from .graph import deserialize
from .jsonio import load_object, require
from .lexicon import SynonymLexicon, load_lexicon
from .normalize import (
    DEFAULT_THRESHOLD,
    NormalizationMap,
    apply_normalization,
    build_normalization_map,
)
from .reasoner import (
    ORDER_KINDS,
    character_trajectory,
    reconstruct_timeline,
    retrieve_actions,
    summarize_event,
    trace_dialogue,
)

log = logging.getLogger(__name__)

ENV_THRESHOLD = "NKG_THRESHOLD"
ENV_EMBED_URL = "NKG_EMBED_URL"

QUERY_TASKS = ("action", "dialogue", "trajectory", "timeline", "summary")


@dataclass(frozen=True)
class Config:
    threshold: float = DEFAULT_THRESHOLD
    embedder: str = "hashed"
    lexicon_path: str | None = None


def resolve_config(args: argparse.Namespace, env: dict | None = None) -> Config:
    """Merge flag, environment, config-file, and default settings.

    Precedence: flags beat environment variables beat the --config file
    beat built-in defaults.
    """
    env = os.environ if env is None else env
    file_cfg: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        file_cfg = load_object(Path(config_path).read_bytes(), f"config file {config_path}")

    threshold = getattr(args, "threshold", None)
    if threshold is None and ENV_THRESHOLD in env:
        try:
            threshold = float(env[ENV_THRESHOLD])
        except ValueError:
            raise ValueError(f"{ENV_THRESHOLD} must be a number, got {env[ENV_THRESHOLD]!r}")
    if threshold is None:
        threshold = file_cfg.get("threshold", DEFAULT_THRESHOLD)
    # bool is an int subclass; a config file's true must not read as 1.0
    if (
        isinstance(threshold, bool)
        or not isinstance(threshold, (int, float))
        or not 0.0 <= threshold <= 1.0
    ):
        raise ValueError(f"threshold must be in [0, 1], got {threshold!r}")

    embedder = getattr(args, "embedder", None)
    if embedder is None and ENV_EMBED_URL in env:
        embedder = f"remote:{env[ENV_EMBED_URL]}"
    if embedder is None:
        embedder = require(file_cfg, "embedder", str, "$", default="hashed")

    lexicon_path = getattr(args, "lexicon", None) or require(
        file_cfg, "lexicon", str, "$", default=None
    )

    return Config(threshold=float(threshold), embedder=embedder, lexicon_path=lexicon_path)


def make_provider(spec: str):
    if spec == "hashed":
        return HashedNgramProvider()
    if spec.startswith("file:"):
        return load_vector_file(spec[5:])
    if spec.startswith("remote:"):
        url = spec[7:]
        if not url.startswith(("http://", "https://")):
            raise ValueError(f"remote embedder needs an http(s) URL, got {url!r}")
        return RemoteProvider(url)
    raise ValueError(f"embedder must be hashed, file:PATH, or remote:URL, got {spec!r}")


def load_lexicon_config(path: str | None) -> SynonymLexicon:
    if path is None:
        return resources.default_lexicon()
    return load_lexicon(Path(path).read_bytes())


def map_side_path(graph_path: Path) -> Path:
    """Where the normalization map lands next to a normalized graph file."""
    name = graph_path.name
    if name.endswith(".json"):
        return graph_path.with_name(name[: -len(".json")] + ".map.json")
    return graph_path.with_name(name + ".map.json")


def _emit(payload: bytes, output: str | None) -> None:
    if output:
        Path(output).write_bytes(payload)
        log.info("wrote %s", output)
    else:
        # the payload's own bytes, whatever encoding the text stream has
        sys.stdout.flush()
        sys.stdout.buffer.write(payload)


# --- subcommands ------------------------------------------------------------


def cmd_build(args: argparse.Namespace) -> int:
    doc = parse_annotations(Path(args.input).read_bytes())
    graph = build_all(doc)
    Path(args.output).write_bytes(graph.to_json_bytes())
    log.info(
        "built graph for %s: %d nodes, %d edges -> %s",
        doc.story_id,
        graph.node_count(),
        graph.edge_count(),
        args.output,
    )
    return 0


def cmd_normalize(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    graph = deserialize(Path(args.input).read_bytes())
    if graph.normalized:
        raise AlreadyNormalized(f"{args.input} is already normalized")
    gold_labels = None
    if args.gold:
        gold_labels = set(load_gold_labels(Path(args.gold).read_bytes()))
    norm_map = build_normalization_map(
        graph,
        make_provider(config.embedder),
        load_lexicon_config(config.lexicon_path),
        config.threshold,
        gold_labels=gold_labels,
    )
    normalized = apply_normalization(graph, norm_map)
    output = Path(args.output)
    output.write_bytes(normalized.to_json_bytes())
    side = map_side_path(output)
    side.write_bytes(norm_map.to_json_bytes())
    log.info(
        "normalized %s at threshold %s (%d clusters) -> %s, map -> %s",
        args.input,
        config.threshold,
        len(norm_map.clusters),
        output,
        side,
    )
    return 0


def _query_norm_map(args: argparse.Namespace) -> NormalizationMap | None:
    if getattr(args, "map", None):
        return NormalizationMap.from_json_bytes(Path(args.map).read_bytes())
    side = map_side_path(Path(args.input))
    if side.exists():
        return NormalizationMap.from_json_bytes(side.read_bytes())
    return None


def cmd_query(args: argparse.Namespace) -> int:
    graph = deserialize(Path(args.input).read_bytes())
    if args.task == "action":
        if args.mode == "normalized":  # the only query that reads the settings
            config = resolve_config(args)
            hits = retrieve_actions(
                graph,
                args.arg,
                args.mode,
                norm_map=_query_norm_map(args),
                lexicon=load_lexicon_config(config.lexicon_path),
                provider=make_provider(config.embedder),
            )
        else:  # surface labels only: no map, lexicon or embedder is read
            hits = retrieve_actions(graph, args.arg, args.mode)
        payload: object = [hit.as_dict() for hit in hits]
    elif args.task == "dialogue":
        payload = trace_dialogue(graph, args.arg).as_dict()
    elif args.task == "trajectory":
        payload = character_trajectory(graph, args.arg).as_dict()
    elif args.task == "timeline":
        payload = reconstruct_timeline(graph, args.arg, args.order).as_dict()
    else:
        payload = summarize_event(graph, args.arg).as_dict()
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    doc = parse_annotations(Path(args.input).read_bytes())
    gold = None
    if args.gold:  # a gold file sets the gold clusters whatever the map holds
        gold = build_gold(doc, gold_label_file=Path(args.gold).read_bytes())
    graph_raw = build_all(doc)
    norm_map = build_normalization_map(
        doc,
        make_provider(config.embedder),
        load_lexicon_config(config.lexicon_path),
        config.threshold,
        gold_labels=set(gold.action_clusters) if gold is not None else None,
    )
    graph_norm = apply_normalization(graph_raw, norm_map)
    if gold is None:
        gold = build_gold(doc, normalization_map=norm_map)
    report = run_eval(doc, graph_raw, graph_norm, gold, norm_map=norm_map)
    _emit(render_report(report, args.format), args.output)
    return 0


def cmd_fixture(args: argparse.Namespace) -> int:
    doc = generate_fixture(args.kind, seed=args.seed, variance=args.variance)
    _emit(doc.to_json_bytes(), args.output)
    return 0


# --- wiring -----------------------------------------------------------------


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threshold", type=float, default=None)
    parser.add_argument(
        "--embedder", default=None, metavar="{hashed|file:PATH|remote:URL}"
    )
    parser.add_argument("--lexicon", default=None, metavar="PATH")
    parser.add_argument("--config", default=None, metavar="PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nkg", description="Narrative knowledge graph toolkit"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr (level INFO)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a raw graph from annotations")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("normalize", help="normalize a raw graph")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--gold", default=None, metavar="PATH")
    _add_config_flags(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("query", help="run a reasoning task against a graph")
    p.add_argument("task", choices=QUERY_TASKS)
    p.add_argument("arg", help="query label or node/entity/scope id")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("raw", "normalized"), default="raw")
    p.add_argument("--order", choices=ORDER_KINDS, default="reading")
    p.add_argument("--map", default=None, metavar="PATH")
    _add_config_flags(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="score the five tasks against gold")
    p.add_argument("--input", required=True)
    p.add_argument("--gold", default=None, metavar="PATH")
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=REPORT_FORMATS, default="json")
    _add_config_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fixture", help="emit a synthetic annotation document")
    p.add_argument("kind", choices=FIXTURE_KINDS)
    p.add_argument("--output", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variance", type=float, default=0.0)
    p.set_defaults(func=cmd_fixture)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # log records go to this call's stderr, at WARNING, or INFO under -v
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger()
    saved_level = root.level
    root.addHandler(handler)
    root.setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except (NkgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    except Exception as exc:  # noqa: BLE001 - a bug, not bad input
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1
    finally:
        root.removeHandler(handler)
        root.setLevel(saved_level)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
