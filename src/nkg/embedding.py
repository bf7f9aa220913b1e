"""Embedding providers behind a single contract: embed(label) -> unit vector,
and embed_batch(labels) -> the list of those vectors, one per label, which
raises what embed raises for the first label it cannot embed.

Three implementations:

- HashedNgramProvider: deterministic character-trigram feature hashing,
  needs no data files or network. Captures surface similarity only;
  semantic synonymy is the lexicon's job. A batch of labels is embedded in
  one pass that hashes each distinct trigram once (the hashing trick of
  Weinberger et al. 2009) and adds the label rows one token position at a
  time; each vector has the bits it has when its label is embedded alone.
- VectorFileProvider: precomputed vectors from a JSON file, exact labels only.
- RemoteProvider: HTTP client for an external embedding service
  (POST <endpoint>/embed with {"texts": [...]}); a batch is one request.

All providers return L2-normalized float vectors of one fixed dimension per
provider instance, and the same label always yields the same vector.

For many pairs of rows of one matrix, row_norms and pair_cosines give
cosine()'s exact bits at one dot product a pair.
"""

from __future__ import annotations

import json

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
HASHED_ID_PREFIX = "hashed:fnv1a-trigram:"  # a hashed provider's id: this and its dim

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def _fnv1a(texts: list[str]) -> np.ndarray:
    """The 64-bit FNV-1a hash of each text's UTF-8 bytes."""
    data = [text.encode("utf-8") for text in texts]
    lengths = np.array([len(d) for d in data])
    width = max(lengths, default=0)
    table = np.frombuffer(b"".join(d.ljust(width, b"\0") for d in data), dtype=np.uint8)
    table = table.reshape(len(data), width)
    h = np.full(len(data), _FNV_OFFSET)
    for j in range(width):  # uint64 products wrap, as the hash's mod 2**64 wants
        h = np.where(lengths > j, (h ^ table[:, j]) * _FNV_PRIME, h)
    return h


def _hashed_rows(labels: list[str], dim: int) -> np.ndarray:
    """embed_hashed's vector for each label, one row each, from one pass that
    handles each distinct token and trigram once.

    Token rows hold integer counts, so their sums and norms are exact in any
    order. Label rows start from their first token's row and add the others
    in token order, one token position at a time for every label, and are
    scaled by row_norms, the ddot np.linalg.norm takes of a vector, so each
    row has the bits of the same steps taken for its label alone. No entry
    here is ever -0.0, so adding +0.0 changes no bit: the first token's row
    has the bits of a sum from zeros, and a label with fewer tokens adds the
    zero row at the positions it lacks."""
    token_ids: dict[str, int] = {}
    label_tokens = [  # fold_label raises EmptyLabel on blank input
        [token_ids.setdefault(t, len(token_ids)) for t in fold_label(label).split("_")]
        for label in labels
    ]
    trigram_ids: dict[str, int] = {}
    cell_token, cell_trigram = [], []  # one entry per trigram occurrence in a token
    for t, token in enumerate(token_ids):
        padded = f"^{token}$"
        for i in range(len(padded) - 2):
            cell_token.append(t)
            cell_trigram.append(trigram_ids.setdefault(padded[i : i + 3], len(trigram_ids)))
    h = _fnv1a(list(trigram_ids))[cell_trigram]
    cells = np.array(cell_token, dtype=np.intp) * dim + (h % np.uint64(dim)).astype(np.intp)
    # one row more than there are tokens: the last stays zero
    tokens = np.bincount(
        cells, weights=np.where(h & np.uint64(1), -1.0, 1.0), minlength=(len(token_ids) + 1) * dim
    ).reshape(len(token_ids) + 1, dim)
    norms = row_norms(tokens)[:, None]
    np.divide(tokens, norms, out=tokens, where=norms > 0)

    # token ids by position, -1 (the zero row) past a label's last token
    width = max(map(len, label_tokens), default=0)
    table = np.array([ids + [-1] * (width - len(ids)) for ids in label_tokens], dtype=np.intp)
    first, *columns = table.reshape(len(labels), width).T  # every label has a first token
    rows = tokens[first]
    for column in columns:
        rows += tokens[column]
    rows /= np.array([len(ids) for ids in label_tokens])[:, None]
    norms = row_norms(rows)[:, None]
    return np.divide(rows, norms, out=rows, where=norms > 0)


def embed_hashed(label: str, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Trigram feature hashing: each token of the folded label is hashed into
    `dim` signed buckets, token vectors are unit-normalized and averaged, and
    the result is normalized again. HashedNgramProvider(dim)'s vector, uncached."""
    return HashedNgramProvider(dim).embed(label)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def row_norms(vectors: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, with its bits: for a 1-D float64 vector
    norm() is sqrt(v.dot(v)), and vecdot takes each row's dot with the same
    BLAS kernel that v.dot(v) calls."""
    return np.sqrt(np.vecdot(vectors, vectors))


def pair_cosines(vectors: np.ndarray, norms: np.ndarray, rows, cols) -> np.ndarray:
    """cosine(vectors[i], vectors[j]) for each pair (i, j) of rows and cols,
    with its bits, given norms = row_norms(vectors): one dot product a pair.
    The pairs go len(vectors) at a time, so the rows gathered for them never
    take more memory than twice the vectors do."""
    dots = np.empty(len(rows))
    step = max(len(vectors), 1)
    for start in range(0, len(rows), step):
        pair = slice(start, start + step)
        dots[pair] = np.vecdot(vectors[rows[pair]], vectors[cols[pair]])
    nonzero = (norms[rows] > 0) & (norms[cols] > 0)
    return np.divide(dots, norms[rows] * norms[cols], out=np.zeros_like(dots), where=nonzero)


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
        if dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim}")
        self.dim = dim
        self.provider_id = f"{HASHED_ID_PREFIX}{dim}"
        self._cache: dict[str, np.ndarray] = {}

    def embed(self, label: str) -> np.ndarray:
        if label not in self._cache:
            self.embed_batch([label])
        return self._cache[label]

    def embed_batch(self, labels: list[str]) -> list[np.ndarray]:
        missing = [l for l in dict.fromkeys(labels) if l not in self._cache]
        if missing:
            self._cache.update(zip(missing, _hashed_rows(missing, self.dim)))
        return [self._cache[label] for label in labels]


def provider_from_id(provider_id: str):
    """A provider rebuilt from its id alone; only the hashed one can be."""
    if not provider_id.startswith(HASHED_ID_PREFIX):
        return None
    try:
        return HashedNgramProvider(int(provider_id[len(HASHED_ID_PREFIX):]))
    except ValueError:  # no number, or not a positive one
        return None


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

    def embed_batch(self, labels: list[str]) -> list[np.ndarray]:
        return [self.embed(label) for label in labels]

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
    import http.client  # the HTTP client stack loads on the first request only
    import urllib.error
    import urllib.request

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
    # URLError and TimeoutError are OSErrors; a dropped, cut short or non-HTTP
    # reply raises an HTTPException
    except (OSError, http.client.HTTPException) as exc:
        if isinstance(exc, TimeoutError) or isinstance(getattr(exc, "reason", None), TimeoutError):
            raise RemoteTimeout(f"no answer from {url} within {timeout}s") from exc
        raise BadStatus(0, f"{url}: {getattr(exc, 'reason', exc)}") from exc
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
