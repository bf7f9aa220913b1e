import json
import os
import random
import runpy
import string
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkg import embedding
from nkg.cli import main
from nkg.embedding import (
    DEFAULT_DIM,
    HashedNgramProvider,
    RemoteProvider,
    VectorFileProvider,
    cosine,
    embed_hashed,
    load_vector_file,
    pair_cosines,
    parse_vector_file,
    remote_embed,
    row_norms,
)
from nkg.errors import (
    BadStatus,
    DimensionMismatch,
    EmptyLabel,
    MissingLabel,
    ProviderError,
    RemoteTimeout,
    SchemaViolation,
)
from nkg.fixtures import generate_fixture
from nkg.lexicon import fold_label
from nkg.normalize import build_normalization_map, collect_label_pools, provider_from_id
from nkg.resources import default_lexicon


def random_labels(rng, n):
    return [
        "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 12)))
        for _ in range(n)
    ]


def test_hashed_deterministic_and_unit_norm():
    assert np.array_equal(embed_hashed("attack"), embed_hashed("attack"))
    rng = random.Random(4)
    for label in random_labels(rng, 100):
        vec = embed_hashed(label)
        assert vec.shape == (DEFAULT_DIM,)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-6


def test_hashed_rejects_empty():
    with pytest.raises(EmptyLabel):
        embed_hashed("")


def test_hashed_surface_similarity_ordering():
    near = cosine(embed_hashed("attack"), embed_hashed("attacks"))
    far = cosine(embed_hashed("attack"), embed_hashed("rice_cooker"))
    assert near > far
    assert near > 0.7
    assert far < 0.2


def test_hashed_provider_caches():
    provider = HashedNgramProvider()
    a = provider.embed("walk")
    assert provider.embed("walk") is a
    assert provider.provider_id.startswith("hashed:")
    assert np.array_equal(a, embed_hashed("walk"))


def oracle_fnv1a(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & ((1 << 64) - 1)
    return h


def oracle_hashed(label: str, dim: int) -> np.ndarray:
    """The per-label construction the batched kernel must match bit for bit."""
    tokens = fold_label(label).split("_")
    total = np.zeros(dim, dtype=np.float64)
    for token in tokens:
        vec = np.zeros(dim, dtype=np.float64)
        padded = f"^{token}$"
        for i in range(len(padded) - 2):
            h = oracle_fnv1a(padded[i : i + 3].encode("utf-8"))
            vec[h % dim] += 1.0 if h % 2 == 0 else -1.0
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        total += vec
    total /= len(tokens)
    norm = np.linalg.norm(total)
    return total / norm if norm > 0 else total


def storygen_compounds() -> list[str]:
    """Every verb_noun compound of the benchmark's story generator."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "storygen.py"
    storygen = runpy.run_path(str(path))
    return [f"{verb}_{noun}" for verb in storygen["VERBS"] for noun in storygen["NOUNS"]]


def fixture_labels() -> list[str]:
    labels = set()
    docs = [generate_fixture("battle"), generate_fixture("romance")]
    for seed in range(4):
        docs += [generate_fixture("noise", seed, variance) for variance in (0.0, 0.6)]
    for doc in docs:
        actions, events = collect_label_pools(doc)
        labels |= set(actions) | set(events)
    return sorted(labels)


# odd dimensions put a trigram's bucket and sign apart, so a token can cancel
# to a zero row; dimension 1 puts every trigram in one bucket
@pytest.mark.parametrize("dim", [1, 2, 7, DEFAULT_DIM])
def test_hashed_batch_bytes_match_oracle(dim):
    labels = fixture_labels() + storygen_compounds()
    assert len(labels) > 1800
    rows = HashedNgramProvider(dim).embed_batch(labels)
    for label, row in zip(labels, rows):
        assert row.tobytes() == oracle_hashed(label, dim).tobytes(), label
    if dim == 1:  # a token cancelled to zero, and so did whole labels
        assert any(not row.any() for row in rows)


TOKENS = st.text(alphabet="aAbBzZ\u00e9\u00df\u0130\u6f22\U0001f600", min_size=1, max_size=5)
SEPARATORS = st.sampled_from(["_", " ", "\t", "__", " _ ", "\n"])


@st.composite
def label_batches(draw):
    """Batches of labels built from a few shared tokens, so tokens repeat within
    a label (a_a_b) and across labels, and labels repeat within a batch."""
    tokens = draw(st.lists(TOKENS, min_size=1, max_size=4))
    labels = []
    for _ in range(draw(st.integers(1, 6))):
        parts = draw(st.lists(st.sampled_from(tokens), min_size=1, max_size=5))
        label = parts[0]
        for part in parts[1:]:
            label += draw(SEPARATORS) + part
        labels.append(draw(SEPARATORS) + label if draw(st.booleans()) else label)
    return labels + draw(st.lists(st.sampled_from(labels), max_size=3))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(label_batches(), st.sampled_from([1, 2, 7, DEFAULT_DIM]))
def test_hashed_batch_bytes_match_oracle_on_any_labels(labels, dim):
    for label, row in zip(labels, HashedNgramProvider(dim).embed_batch(labels)):
        assert row.tobytes() == oracle_hashed(label, dim).tobytes()


@pytest.mark.parametrize("dim", [1, 3, 7, DEFAULT_DIM])
def test_pair_cosines_have_the_bits_of_cosine(dim):
    rng = np.random.default_rng(dim)
    vectors = np.vstack([
        rng.standard_normal((6, dim)),
        rng.integers(-2, 3, (6, dim)).astype(float),  # exact ties between rows
        HashedNgramProvider(dim).embed_batch(["mark_bag", "work_bag", "kick_door"]),
        np.zeros((1, dim)),  # a zero row: cosine() gives 0.0
    ])
    norms = row_norms(vectors)
    assert norms.tobytes() == np.array([np.linalg.norm(v) for v in vectors]).tobytes()
    # more pairs than rows, so the pairs go in several steps
    rows, cols = np.triu_indices(len(vectors))
    got = pair_cosines(vectors, norms, rows, cols)
    want = [cosine(vectors[i], vectors[j]) for i, j in zip(rows, cols)]
    assert got.tobytes() == np.array(want).tobytes()


def test_hashed_batch_shares_the_cache_with_embed():
    provider = HashedNgramProvider()
    walk = provider.embed("walk")
    batch = provider.embed_batch(["run_away", "walk", "run_away", "Walk", "walk"])
    assert batch[1] is walk and batch[4] is walk
    assert batch[0] is batch[2] is provider.embed("run_away")
    assert provider.embed("Walk") is batch[3]
    assert provider.embed("walk") is provider.embed("walk")
    for label, row in zip(["run_away", "walk", "Walk"], [batch[0], walk, batch[3]]):
        assert row.tobytes() == oracle_hashed(label, DEFAULT_DIM).tobytes()
    assert provider.embed_batch([]) == []


@pytest.mark.parametrize("blank", ["", " ", "_", "_ _", "\t\n"])
def test_hashed_blank_label_raises_from_either_path(blank):
    provider = HashedNgramProvider()
    with pytest.raises(EmptyLabel):
        provider.embed(blank)
    with pytest.raises(EmptyLabel):
        provider.embed_batch(["walk", blank])
    with pytest.raises(EmptyLabel):
        embed_hashed(blank)
    assert provider.embed_batch(["walk"])[0].tobytes() == embed_hashed("walk").tobytes()


def test_hashed_batch_hashes_each_distinct_trigram_once(monkeypatch):
    hashed = []
    fnv1a = embedding._fnv1a

    def counting_fnv1a(texts):
        hashed.extend(texts)
        return fnv1a(texts)

    monkeypatch.setattr(embedding, "_fnv1a", counting_fnv1a)
    HashedNgramProvider().embed_batch(["kick_door", "kick_cart", "door_kick", "kicks"])
    # ^ki kic ick ck$ ^do doo oor or$ ^ca car art rt$ cks ks$
    assert sorted(hashed) == sorted(set(hashed)) and len(hashed) == 14


@pytest.mark.parametrize("dim", [0, -3])
def test_hashed_provider_needs_a_positive_dimension(dim):
    with pytest.raises(ValueError, match="positive"):
        HashedNgramProvider(dim)
    # a map naming such a provider links lexically, as for any id not rebuilt
    assert provider_from_id(f"hashed:fnv1a-trigram:{dim}") is None


def test_vector_file_provider(tmp_path):
    path = tmp_path / "vecs.json"
    path.write_text(
        json.dumps({"dim": 3, "vectors": {"a": [2.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0]}})
    )
    provider = load_vector_file(str(path))
    assert provider.dim == 3
    assert np.allclose(provider.embed("a"), [1.0, 0.0, 0.0])  # renormalized on ingest
    assert provider.labels == {"a", "b"}
    with pytest.raises(MissingLabel):
        provider.embed("c")


def test_vector_file_batch_is_embed_per_label():
    vectors = {label: np.array([1.0, i, 0.0]) for i, label in enumerate("abc")}
    provider = VectorFileProvider(vectors, 3)
    labels = ["c", "a", "c", "b"]
    batch = [vec.tobytes() for vec in provider.embed_batch(labels)]
    assert batch == [provider.embed(label).tobytes() for label in labels]
    assert provider.embed_batch([]) == []
    with pytest.raises(MissingLabel) as raised:
        provider.embed_batch(["a", "y", "b", "z"])
    assert raised.value.label == "y"


def test_vector_file_rejects_bad_shapes():
    with pytest.raises(SchemaViolation):
        parse_vector_file(json.dumps({"vectors": []}).encode())
    with pytest.raises(SchemaViolation):
        parse_vector_file(json.dumps({"dim": 0, "vectors": {}}).encode())
    with pytest.raises(DimensionMismatch):
        parse_vector_file(json.dumps({"dim": 3, "vectors": {"a": [1.0, 2.0]}}).encode())


# a null reads as nan, 1e400 as inf; a string or an object is no number at all
@pytest.mark.parametrize("values", ["[1, null]", "[1e400, 1]", "[-1e400, 1]", "[NaN, 1]",
                                    '[1, "a"]', '{"x": 1}', "[[1], 2]"])
def test_vector_file_rejects_values_that_are_not_finite_numbers(values):
    with pytest.raises(DimensionMismatch, match="vector for 'a'"):
        parse_vector_file(f'{{"dim": 2, "vectors": {{"a": {values}}}}}'.encode())


@pytest.mark.parametrize("values", ["[true, false]", "[1.5, true]", "[false, 0]"])
def test_vector_file_rejects_booleans(values):
    with pytest.raises(DimensionMismatch, match="vector for 'a': .*boolean") as exc:
        parse_vector_file(f'{{"dim": 2, "vectors": {{"a": {values}}}}}'.encode())
    assert exc.value.exit_code == 4


# finite vectors whose norm overflows to inf or underflows to 0
@pytest.mark.parametrize("values", [[1e200, 1e200], [1e-200, 1e-200], [-1.7e308, 1.7e308]])
def test_vector_file_keeps_the_direction_of_extreme_vectors(values):
    provider = parse_vector_file(json.dumps({"dim": 2, "vectors": {"a": values}}).encode())
    assert np.allclose(provider.embed("a"), np.sign(values) * 0.5**0.5)


def test_vector_file_normalizes_ordinary_vectors_with_the_same_bits():
    values = {"a": [3.0, 4.0], "b": [1e-150, 2e-150], "c": [0.0, 0.0], "d": [1e150, -1e150]}
    provider = parse_vector_file(json.dumps({"dim": 2, "vectors": values}).encode())
    for label, v in values.items():
        vec = np.array(v)
        norm = np.linalg.norm(vec)
        assert provider.embed(label).tobytes() == (vec / norm if norm > 0 else vec).tobytes()


class _EmbedHandler(BaseHTTPRequestHandler):
    behavior = "ok"
    dim = 4
    scalar = None  # what "scalar" sends in place of each vector
    posts = 0  # POST requests served since the fixture started

    def do_POST(self):
        type(self).posts += 1
        if self.path != "/embed":
            self.send_error(404)
            return
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        texts = body["texts"]
        if self.behavior == "error":
            self.send_error(500, "boom")
            return
        if self.behavior == "drop":  # close the connection without a reply
            return
        if self.behavior == "not-http":
            self.wfile.write(b"garbage\r\n\r\n")
            return
        if self.behavior == "slow":  # silent until after the client's timeout
            time.sleep(0.6)
            return
        if self.behavior == "short":
            vectors = [[1.0] * self.dim for _ in texts[:-1]]
        elif self.behavior == "nan":
            vectors = [[1.0, float("nan")] + [1.0] * (self.dim - 2) for _ in texts]
        elif self.behavior == "ragged":
            vectors = [[1.0] * (self.dim + i) for i, _ in enumerate(texts)]
        elif self.behavior == "scalar":
            vectors = [self.scalar for _ in texts]
        else:
            rng = random.Random(0)
            vectors = [
                [rng.uniform(-1, 1) + len(t) for _ in range(self.dim)] for t in texts
            ]
        payload = {
            "not-json": b"not json",
            "no-vectors": json.dumps({"vectors": None}).encode(),
        }.get(self.behavior, json.dumps({"vectors": vectors}).encode())
        # "truncated" announces more bytes than it sends
        length = len(payload) + 10 * (self.behavior == "truncated")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(length))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def embed_server():
    server = HTTPServer(("127.0.0.1", 0), _EmbedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _EmbedHandler.behavior = "ok"
    _EmbedHandler.posts = 0
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join()


def test_remote_embed_batch(embed_server):
    vectors = remote_embed(embed_server, ["walk", "run", "jump"])
    assert len(vectors) == 3
    for vec in vectors:
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-6


def test_remote_embed_rejects_a_blank_label_before_posting(embed_server):
    with pytest.raises(EmptyLabel):
        remote_embed(embed_server, ["walk", ""])
    assert _EmbedHandler.posts == 0


def test_remote_embed_of_no_labels_is_empty(embed_server):
    assert remote_embed(embed_server, []) == []


def test_remote_provider_contract(embed_server):
    provider = RemoteProvider(embed_server)
    a = provider.embed("walk")
    assert np.array_equal(provider.embed("walk"), a)  # served from cache
    assert provider.dim == 4
    assert provider.provider_id == f"remote:{embed_server}"


def test_remote_count_mismatch(embed_server):
    _EmbedHandler.behavior = "short"
    with pytest.raises(DimensionMismatch):
        remote_embed(embed_server, ["a", "b", "c"])


def test_remote_ragged_vectors(embed_server):
    _EmbedHandler.behavior = "ragged"
    with pytest.raises(DimensionMismatch):
        remote_embed(embed_server, ["a", "b"])


def test_remote_vector_with_nan_rejected(embed_server):
    _EmbedHandler.behavior = "nan"
    with pytest.raises(DimensionMismatch, match="finite"):
        remote_embed(embed_server, ["a", "b"])


@pytest.mark.parametrize("scalar", [5, None, True, []], ids=repr)
def test_remote_scalar_vector_rejected(embed_server, monkeypatch, scalar):
    monkeypatch.setattr(_EmbedHandler, "behavior", "scalar")
    monkeypatch.setattr(_EmbedHandler, "scalar", scalar)
    with pytest.raises(DimensionMismatch, match="expected a nonempty list"):
        remote_embed(embed_server, ["a", "b"])


def test_remote_http_error(embed_server):
    _EmbedHandler.behavior = "error"
    with pytest.raises(BadStatus) as exc:
        remote_embed(embed_server, ["a"])
    assert exc.value.status == 500


@pytest.mark.parametrize("behavior", ["drop", "truncated", "not-http"])
def test_remote_broken_reply_raises_a_provider_error(embed_server, behavior):
    _EmbedHandler.behavior = behavior
    with pytest.raises(ProviderError):
        remote_embed(embed_server, ["a", "b"])


def test_remote_slow_reply_times_out(embed_server):
    _EmbedHandler.behavior = "slow"
    with pytest.raises(RemoteTimeout):
        remote_embed(embed_server, ["a"], timeout=0.2)


@pytest.mark.parametrize("behavior, detail", [("not-json", "non-JSON"), ("no-vectors", "vectors")])
def test_remote_200_without_a_vectors_list(embed_server, behavior, detail):
    _EmbedHandler.behavior = behavior
    with pytest.raises(BadStatus, match=detail) as exc:
        remote_embed(embed_server, ["a"])
    assert exc.value.status == 200


def test_remote_provider_rejects_a_second_batch_of_another_dimension(embed_server, monkeypatch):
    provider = RemoteProvider(embed_server)
    provider.embed("a")
    monkeypatch.setattr(_EmbedHandler, "dim", 5)
    with pytest.raises(DimensionMismatch, match="4 -> 5"):
        provider.embed("b")


def test_dropped_connection_exits_4_and_falls_back_to_lexical_links(embed_server, tmp_path):
    _EmbedHandler.behavior = "drop"
    doc, raw = tmp_path / "battle.json", tmp_path / "raw.json"
    assert main(["fixture", "battle", "--output", str(doc)]) == 0
    assert main(["build", "--input", str(doc), "--output", str(raw)]) == 0
    args = ["normalize", "--input", str(raw), "--output", str(tmp_path / "norm.json")]
    assert main(args + ["--embedder", f"remote:{embed_server}"]) == 4
    lexicon = default_lexicon()
    norm_map = build_normalization_map(
        generate_fixture("battle"), HashedNgramProvider(), lexicon, 0.75
    )
    assert norm_map.nearest_canonical("strikes", lexicon, RemoteProvider(embed_server)) == "hit"


def test_importing_nkg_loads_no_http_client():
    # the HTTP client stack loads with the first remote request, not with nkg
    code = "import sys, nkg, nkg.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    src = str(Path(embedding.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", code, "urllib.request", "http.client", "ssl"],
        capture_output=True, text=True, check=True, env=env, timeout=60,
    )
    assert run.stdout == "[]\n"


def test_remote_unreachable():
    with pytest.raises(BadStatus):
        remote_embed("http://127.0.0.1:1", ["a"], timeout=0.5)


def test_normalization_map_sends_one_request_per_pool(embed_server):
    provider = RemoteProvider(embed_server)
    lexicon = default_lexicon()
    norm_map = build_normalization_map(generate_fixture("battle"), provider, lexicon, 0.75)
    pools = {c.pool for c in norm_map.clusters}
    assert pools == {"action", "event"}
    assert 1 <= _EmbedHandler.posts <= len(pools)
    # a fallback query sends only the query: the members are cached
    sent = _EmbedHandler.posts
    norm_map.nearest_canonical("somersault", lexicon, provider)
    assert _EmbedHandler.posts == sent + 1


def test_failed_endpoint_costs_one_request(embed_server):
    lexicon = default_lexicon()
    norm_map = build_normalization_map(
        generate_fixture("battle"), HashedNgramProvider(), lexicon, 0.75
    )
    _EmbedHandler.behavior = "error"
    provider = RemoteProvider(embed_server)
    # one failed batch for the pool's members, not a retry per member
    assert norm_map.nearest_canonical("somersault", lexicon, provider) is None
    assert _EmbedHandler.posts == 1
    # lexical links still resolve, with no further request
    assert norm_map.nearest_canonical("strikes", lexicon, provider) == "hit"
    assert _EmbedHandler.posts == 1


def test_remote_vector_with_a_boolean_rejected(embed_server, monkeypatch):
    monkeypatch.setattr(_EmbedHandler, "behavior", "scalar")
    monkeypatch.setattr(_EmbedHandler, "scalar", [1.0, True, 0.0, 0.0])
    with pytest.raises(DimensionMismatch, match="boolean"):
        remote_embed(embed_server, ["a", "b"])


def test_remote_extreme_vectors_keep_their_direction(embed_server, monkeypatch):
    monkeypatch.setattr(_EmbedHandler, "behavior", "scalar")
    for scale in (1e200, 1e-200):
        monkeypatch.setattr(_EmbedHandler, "scalar", [scale, scale, 0.0, 0.0])
        for vec in remote_embed(embed_server, ["a", "b"]):
            assert np.allclose(vec, [0.5**0.5, 0.5**0.5, 0.0, 0.0])
