"""How nkg reads and writes its JSON files.

Every input file (annotations, graphs, normalization maps, gold labels,
lexicons, vector files, --config) is UTF-8 JSON holding an object:
load_object decodes it and require reads its typed fields, so a wrong type
fails with SchemaViolation naming the field's JSON path. Canonical files
(annotation documents, normalization maps) come from dump_canonical; the
graph writer lays out the same bytes by hand, for speed.
"""

from __future__ import annotations

import json
from dataclasses import MISSING
from typing import Any

from .errors import MalformedJson, SchemaViolation


def load_object(raw: bytes | str, what: str) -> dict:
    """The object a UTF-8 JSON file holds; `what` names the file in errors."""
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedJson(f"{what} is not valid UTF-8: {exc}") from exc
    try:
        obj = json.loads(raw)
    # ValueError: not JSON (JSONDecodeError), or an integer with more digits
    # than sys.get_int_max_str_digits(); RecursionError: nested too deep
    except (ValueError, RecursionError) as exc:
        raise MalformedJson(f"invalid {what} JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaViolation("$", f"{what} must be an object")
    return obj


def require(obj: dict, key: str, kind: type, path: str, default: Any = MISSING) -> Any:
    """obj[key], which must be a `kind`; errors name it as path.key.

    A boolean never counts as an int. When a default is given, a missing key
    or a null reads as the default."""
    value = obj.get(key)  # the one lookup a valid field costs
    if type(value) is kind:
        return value
    if value is None and default is not MISSING:
        return default
    if key not in obj:
        raise SchemaViolation(f"{path}.{key}", "missing required field")
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise SchemaViolation(f"{path}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")


def dump_canonical(obj: Any) -> bytes:
    """Canonical UTF-8 JSON: equal objects give equal bytes."""
    return (json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8")
