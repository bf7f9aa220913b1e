import json
import random
import string
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from nkg.embedding import (
    DEFAULT_DIM,
    HashedNgramProvider,
    RemoteProvider,
    cosine,
    embed_hashed,
    load_vector_file,
    parse_vector_file,
    remote_embed,
)
from nkg.errors import (
    BadStatus,
    DimensionMismatch,
    EmptyLabel,
    MissingLabel,
    SchemaViolation,
)
from nkg.fixtures import generate_fixture
from nkg.normalize import build_normalization_map
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
        payload = json.dumps({"vectors": vectors}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
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
