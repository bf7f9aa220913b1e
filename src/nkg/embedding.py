"""Embedding providers behind a single contract: embed(label) -> unit vector.

Three implementations:

- HashedNgramProvider: deterministic character-trigram feature hashing,
  needs no data files or network. Captures surface similarity only;
  semantic synonymy is the lexicon's job.
- VectorFileProvider: precomputed vectors from a JSON file, exact labels only.
- RemoteProvider: HTTP client for an external embedding service
  (POST <endpoint>/embed with {"texts": [...]}).

All providers return L2-normalized float vectors of one fixed dimension per
provider instance, and the same label always yields the same vector.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np

from .errors import (
    BadStatus,
    DimensionMismatch,
    EmptyLabel,
    MissingLabel,
    RemoteTimeout,
    SchemaViolation,
)
from .jsonio import load_object, require
from .lexicon import fold_label

DEFAULT_DIM = 256
DEFAULT_TIMEOUT = 10.0

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def embed_hashed(label: str, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Trigram feature hashing: each token of the folded label is hashed into
    `dim` signed buckets, token vectors are unit-normalized and averaged, and
    the result is normalized again."""
    tokens = fold_label(label).split("_")  # raises EmptyLabel on blank input
    total = np.zeros(dim, dtype=np.float64)
    for token in tokens:
        vec = np.zeros(dim, dtype=np.float64)
        padded = f"^{token}$"
        for i in range(len(padded) - 2):
            h = _fnv1a(padded[i : i + 3].encode("utf-8"))
            vec[h % dim] += 1.0 if h % 2 == 0 else -1.0
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        total += vec
    total /= len(tokens)
    norm = np.linalg.norm(total)
    return total / norm if norm > 0 else total


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def embed_matrix(provider, labels: list[str]) -> np.ndarray:
    """The provider's vectors for a list of labels, one row each.

    A provider with `embed_batch` gets one call for the whole list, which
    for RemoteProvider is one request; any other provider gets one `embed`
    call per label."""
    batch = getattr(provider, "embed_batch", None)
    vectors = batch(labels) if batch is not None else [provider.embed(l) for l in labels]
    return np.array(vectors, dtype=np.float64)


def unit_rows(vectors) -> np.ndarray:
    """Each row (or a single vector) scaled to unit length; zero rows stay
    zero, so their products are exactly 0.0, as cosine() gives."""
    vectors = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=-1, keepdims=True)
    return np.divide(vectors, norms, out=np.zeros_like(vectors), where=norms > 0)


def _normalized(values, dim: int, context: str) -> np.ndarray:
    try:
        vec = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # a string, an object or a ragged list
        raise DimensionMismatch(f"{context}: {exc}") from exc
    if vec.shape != (dim,):
        raise DimensionMismatch(f"{context}: expected {dim} values, got shape {vec.shape}")
    if any(type(v) is bool for v in values):  # a boolean is no number, as in require()
        raise DimensionMismatch(f"{context}: values must be numbers, got a boolean")
    if not np.isfinite(vec).all():  # a null reads as nan, which would never link
        raise DimensionMismatch(f"{context}: values must be finite numbers")
    with np.errstate(over="ignore"):  # an overflowing norm reads as inf
        norm = np.linalg.norm(vec)
    if (norm == 0 or norm == np.inf) and vec.any():
        # the norm of finite entries overflowed or underflowed: scaling by the
        # largest entry first keeps the direction; every other vector keeps its bits
        vec = vec / np.abs(vec).max()
        norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


class HashedNgramProvider:
    def __init__(self, dim: int = DEFAULT_DIM):
        self.dim = dim
        self.provider_id = f"hashed:fnv1a-trigram:{dim}"
        self._cache: dict[str, np.ndarray] = {}

    def embed(self, label: str) -> np.ndarray:
        if label not in self._cache:
            self._cache[label] = embed_hashed(label, self.dim)
        return self._cache[label]


class VectorFileProvider:
    """Serves exactly the labels listed in a vector file; nothing else."""

    def __init__(self, vectors: dict[str, np.ndarray], dim: int, source: str = "<memory>"):
        self.dim = dim
        self.provider_id = f"file:{source}"
        self._vectors = vectors

    def embed(self, label: str) -> np.ndarray:
        try:
            return self._vectors[label]
        except KeyError:
            raise MissingLabel(label) from None

    @property
    def labels(self) -> set[str]:
        return set(self._vectors)


def parse_vector_file(raw: bytes | str, source: str = "<memory>") -> VectorFileProvider:
    """A provider for a vector file: {"dim": int, "vectors": {label: [...]}}."""
    obj = load_object(raw, "vector file")
    vectors = require(obj, "vectors", dict, "$")
    dim = require(obj, "dim", int, "$", default=DEFAULT_DIM)
    if dim < 1:
        raise SchemaViolation("$.dim", "dim must be a positive integer")
    vectors = {
        label: _normalized(values, dim, f"vector for {label!r}")
        for label, values in vectors.items()
    }
    return VectorFileProvider(vectors, dim, source)


def load_vector_file(path: str) -> VectorFileProvider:
    with open(path, "rb") as fh:
        return parse_vector_file(fh.read(), source=path)


def remote_embed(
    endpoint: str, labels: list[str], timeout: float = DEFAULT_TIMEOUT
) -> list[np.ndarray]:
    """One batched POST to <endpoint>/embed; returns one vector per label."""
    if any(not label for label in labels):
        raise EmptyLabel("remote embedding request")
    url = endpoint.rstrip("/") + "/embed"
    body = json.dumps({"texts": list(labels)}).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            payload = response.read()
    except urllib.error.HTTPError as exc:
        exc.close()  # the error is also the response; unclosed, its socket leaks
        raise BadStatus(exc.code, exc.reason) from exc
    except urllib.error.URLError as exc:
        if isinstance(exc.reason, TimeoutError):
            raise RemoteTimeout(f"no answer from {url} within {timeout}s") from exc
        raise BadStatus(0, f"{url}: {exc.reason}") from exc
    except TimeoutError as exc:
        raise RemoteTimeout(f"no answer from {url} within {timeout}s") from exc
    try:
        obj = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise BadStatus(200, f"non-JSON response from {url}") from exc
    vectors = obj.get("vectors") if isinstance(obj, dict) else None
    if not isinstance(vectors, list):
        raise BadStatus(200, 'response missing "vectors" list')
    if len(vectors) != len(labels):
        raise DimensionMismatch(
            f"sent {len(labels)} labels, endpoint returned {len(vectors)} vectors"
        )
    if not vectors:
        return []
    if not isinstance(vectors[0], list) or not vectors[0]:  # the first sets the dimension
        raise DimensionMismatch(
            f"vector for {labels[0]!r}: expected a nonempty list, got {vectors[0]!r:.40}"
        )
    dim = len(vectors[0])
    return [_normalized(v, dim, f"vector for {label!r}") for label, v in zip(labels, vectors)]


class RemoteProvider:
    def __init__(self, endpoint: str, timeout: float = DEFAULT_TIMEOUT):
        self.endpoint = endpoint
        self.timeout = timeout
        self.provider_id = f"remote:{endpoint}"
        self.dim: int | None = None
        self._cache: dict[str, np.ndarray] = {}

    def embed(self, label: str) -> np.ndarray:
        if label not in self._cache:
            self.embed_batch([label])
        return self._cache[label]

    def embed_batch(self, labels: list[str]) -> list[np.ndarray]:
        missing = [l for l in dict.fromkeys(labels) if l not in self._cache]
        if missing:
            for label, vec in zip(missing, remote_embed(self.endpoint, missing, self.timeout)):
                if self.dim is None:
                    self.dim = len(vec)
                elif len(vec) != self.dim:
                    raise DimensionMismatch(
                        f"endpoint switched dimension {self.dim} -> {len(vec)}"
                    )
                self._cache[label] = vec
        return [self._cache[label] for label in labels]
