"""Regenerate the packaged data files under src/nkg/data/.

Fixture manifests are counted straight off the annotation JSON so they
stay independent of the graph builder they are used to check.

Run from the repository root:

    python3 scripts/regen_data.py
"""

import json
import sys
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nkg.fixtures import generate_fixture  # noqa: E402

DATA = ROOT / "src" / "nkg" / "data"

DEFAULT_LEXICON = {
    "groups": [
        ["attack", "strike", "fight", "hit"],
        ["cry", "weep", "sob"],
        ["walk", "stroll"],
        ["meet", "encounter"],
        ["shout", "yell"],
    ],
    "lemma_exceptions": {
        "ate": "eat",
        "cried": "cry",
        "fought": "fight",
        "met": "meet",
        "ran": "run",
        "sat": "sit",
        "striking": "strike",
        "struck": "strike",
        "thought": "think",
        "wept": "weep",
    },
}

GOLD_LABELS = {
    "battle": {
        "action_clusters": {
            "attack": ["attack", "fight", "strike", "hit"],
            "bow": ["bow"],
            "meet": ["meet"],
            "shout": ["shout"],
            "walk": ["walk"],
        }
    },
    "romance": {
        "action_clusters": {
            "cry": ["cry"],
            "eat": ["eat"],
            "insert": ["insert"],
            "insert_into": ["insert_into"],
            "read": ["read"],
            "sit": ["sit"],
            "taste": ["taste"],
            "think": ["think"],
        }
    },
}


def build_manifest(doc: dict) -> dict:
    """Tally the nodes and edges a graph built from this doc must contain."""
    panels = [
        p
        for macro in doc["macro_events"]
        for event in macro["events"]
        for p in event["panels"]
    ]
    events_per_macro = [len(macro["events"]) for macro in doc["macro_events"]]
    n_events = sum(events_per_macro)
    n_macros = len(doc["macro_events"])
    entities = {c["entity_id"] for p in panels for c in p.get("characters", [])}

    node_counts = {
        "panel": len(panels),
        "character": len(entities),
        "character_instance": sum(len(p.get("characters", [])) for p in panels),
        "object": sum(len(p.get("objects", [])) for p in panels),
        "action": sum(len(p.get("actions", [])) for p in panels),
        "dialogue": sum(len(p.get("dialogues", [])) for p in panels),
        "event": n_events,
        "macro_event": n_macros,
    }
    edge_counts = {
        "refers_to": node_counts["character_instance"],
        "co_occurs_with": sum(
            comb(len(p.get("characters", [])), 2) for p in panels
        ),
        "has_agent": sum(
            1 for p in panels for a in p.get("actions", []) if a.get("agent")
        ),
        "acts_on": sum(
            1 for p in panels for a in p.get("actions", []) if a.get("target")
        ),
        "grounded_in": node_counts["dialogue"],
        "precedes_reading": len(panels) - 1,
        "precedes_storytime": len(panels) - 1,
        "instantiates": len(panels),
        "subevent_of": n_events,
        "precedes": sum(n - 1 for n in events_per_macro) + (n_macros - 1),
    }
    return {
        "story_id": doc["story_id"],
        "panel_count": len(panels),
        "node_counts": node_counts,
        "node_total": sum(node_counts.values()),
        "edge_counts": edge_counts,
        "edge_total": sum(edge_counts.values()),
    }


def dump(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    dump(DATA / "default_lexicon.json", DEFAULT_LEXICON)
    for kind in ("battle", "romance"):
        doc = json.loads(generate_fixture(kind).to_json_bytes())
        dump(DATA / f"{kind}_gold.json", GOLD_LABELS[kind])
        dump(DATA / f"{kind}_manifest.json", build_manifest(doc))


if __name__ == "__main__":
    main()
