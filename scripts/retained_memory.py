"""Print the memory a graph retains, as the README's retained-memory table
reports it.

The story is perfbench's ingest shape at seed 3 (2,500 panels). Each figure
is the bytes tracemalloc still traces after `gc.collect()`, counted from a
start taken just before the call: `build_all` on the parsed document, and
`deserialize` on that graph's file. MB is 10**6 bytes. The figures depend
on the Python version.

Run from the repository root:

    python3 scripts/retained_memory.py
"""

import gc
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from nkg.annotations import parse_annotations  # noqa: E402
from nkg.builder import build_all  # noqa: E402
from nkg.graph import deserialize  # noqa: E402
from storygen import generate  # noqa: E402
from workloads import SHAPES  # noqa: E402

SEED = 3


def retained(call, arg) -> tuple[int, object]:
    """Bytes still traced after the call returns, and what it returned."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call(arg)
        gc.collect()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return size, result


def main() -> None:
    doc = parse_annotations(generate(SHAPES["ingest"], SEED).doc_bytes())
    built, graph = retained(build_all, doc)
    data = graph.to_json_bytes()
    counts = f"{sum(1 for _ in graph.nodes()):,} nodes, {sum(1 for _ in graph.edges()):,} edges"
    del graph
    read, _ = retained(deserialize, data)
    print(f"ingest story, seed {SEED}: {counts}; Python {sys.version.split()[0]}")
    print("| retained by the graph | from `build_all` | from `deserialize` |")
    print(f"| today | {built / 1e6:.2f} MB | {read / 1e6:.2f} MB |")


if __name__ == "__main__":
    main()
