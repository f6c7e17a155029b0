"""LLM gateway: prompts, parsing, stub determinism, HTTP retry behavior."""

import hashlib
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import signscribe
from signscribe.gloss import FINGERSPELLED_KINDS, parse_gloss_sequence
from signscribe.llm import (
    MAX_ATTEMPTS,
    HttpClient,
    LlmError,
    PromptName,
    StubClient,
    correct_fingerspelling,
    load_prompt,
    make_client,
    parse_candidate_json,
    translate_candidates,
)

PROMPTS = Path(signscribe.__file__).parent / "prompts"


def pinned_digests() -> dict[str, str]:
    return json.loads((PROMPTS / "digests.json").read_text("utf-8"))


class TestPromptAssets:
    def test_digests_pinned(self):
        for filename, expected in pinned_digests().items():
            actual = hashlib.sha256((PROMPTS / filename).read_bytes()).hexdigest()
            assert actual == expected, f"prompt asset {filename} drifted"

    def test_placeholders_present(self):
        for name in PromptName:
            template = load_prompt(name)
            assert "{phrase}" in template.body
        assert "{k}" in load_prompt(PromptName.KSHOT_TRANSLATE).body

    def test_render_substitutes(self):
        template = load_prompt(PromptName.KSHOT_TRANSLATE)
        rendered = template.render(phrase="I am happy", k=10)
        assert 'English: "I am happy"' in rendered
        assert "Please generate 10 different gloss translations" in rendered
        assert "{phrase}" not in rendered

    def test_loaded_once_as_pinned(self):
        for name in PromptName:
            template = load_prompt(name)
            assert load_prompt(name) is template
            digest = hashlib.sha256(template.body.encode("utf-8")).hexdigest()
            assert digest == pinned_digests()[f"{name.value}.txt"]

    def test_translation_example_uses_the_parsed_notation(self):
        """The example answer parses, and it fingerspells in the notation the
        pipeline anchors (fs-, ns-, #), so a model that follows it reaches the
        fingerspelling step."""
        body = load_prompt(PromptName.KSHOT_TRANSLATE).body
        example = body[body.index("EXAMPLE:") : body.index("NOW COMPLETE:")]
        lines = [line for _, line in parse_candidate_json(example)]
        assert len(lines) == 10
        tokens = [tok for line in lines for tok in parse_gloss_sequence(line).tokens]
        assert any(tok.kind in FINGERSPELLED_KINDS for tok in tokens)

    def test_every_asset_is_covered(self):
        digests = pinned_digests()
        assert set(digests) == {f"{n.value}.txt" for n in PromptName}


class TestParseCandidateJson:
    def test_plain_object(self):
        items = parse_candidate_json('{"2": "B", "1": "A"}')
        assert items == [(1, "A"), (2, "B")]

    def test_code_fence(self):
        text = 'Sure!\n```json\n{"1": "I AM HAPPY"}\n```\nDone.'
        assert parse_candidate_json(text) == [(1, "I AM HAPPY")]

    def test_malformed_keeps_raw(self):
        with pytest.raises(LlmError) as exc_info:
            parse_candidate_json("not json")
        assert exc_info.value.raw == "not json"

    @given(st.binary(max_size=200))
    @settings(max_examples=200)
    def test_total_on_arbitrary_bytes(self, data):
        text = data.decode("utf-8", errors="replace")
        try:
            parse_candidate_json(text)
        except LlmError:
            pass


class TestStubTranslate:
    def test_ten_candidates_for_example_phrase(self):
        result = translate_candidates(StubClient(), "I am happy", k=10)
        assert len(result.candidates) == 10
        assert "I AM HAPPY" in [c.source_text for c in result.candidates]

    def test_k_one(self):
        result = translate_candidates(StubClient(), "The dog sleeps", k=1)
        assert len(result.candidates) == 1

    def test_deterministic(self):
        a = translate_candidates(StubClient(), "Water flows downhill", k=10)
        b = translate_candidates(StubClient(), "Water flows downhill", k=10)
        assert a.candidates == b.candidates

    def test_candidates_parse_as_gloss_lines(self):
        result = translate_candidates(StubClient(), "Bob travels to the park", k=10)
        for candidate in result.candidates:
            assert candidate == parse_gloss_sequence(candidate.source_text)

    def test_fixture_table_wins(self):
        fixtures = {"Hello there": {"1": "HELLO", "2": "HEY"}}
        result = translate_candidates(StubClient(translations=fixtures), "Hello there", k=2)
        assert [c.source_text for c in result.candidates] == ["HELLO", "HEY"]


class TestShortCandidateList:
    def test_stub_dedup_is_silent(self, caplog):
        with caplog.at_level("WARNING", logger="signscribe.llm"):
            result = translate_candidates(StubClient(), "Dog drinks water", k=10)
        assert len(result.candidates) < 10
        assert not [r for r in caplog.records if "expected" in r.getMessage()]

    def test_real_client_short_list_warns(self, caplog):
        class ShortClient:
            model_id = "short"

            def complete(self, prompt, temperature=1.0, max_tokens=1024):
                return json.dumps({"1": "DOG DRINK WATER", "2": "WATER DOG DRINK"})

        with caplog.at_level("WARNING", logger="signscribe.llm"):
            result = translate_candidates(ShortClient(), "Dog drinks water", k=10)
        assert len(result.candidates) == 2
        assert "expected 10 candidates, got 2" in caplog.text


class TestStubCorrect:
    def test_typo_fixture(self):
        assert (
            correct_fingerspelling(StubClient(), "29 OLD MOUNT PLESANT")
            == "29 OLD MOUNT PLEASANT"
        )

    def test_url_fixture(self):
        assert (
            correct_fingerspelling(StubClient(), "HTTPNN//WW..VISISTDALARNASEE")
            == "HTTP://WWW.VISITDALARNA.SE"
        )

    def test_echo_when_no_rule(self):
        assert correct_fingerspelling(StubClient(), "123 MAIN STREET") == "123 MAIN STREET"


class _FlakyHandler(BaseHTTPRequestHandler):
    failures = 2
    calls = 0

    def do_POST(self):
        cls = type(self)
        cls.calls += 1
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        if cls.calls <= cls.failures:
            self.send_response(503)
            self.end_headers()
            return
        payload = json.dumps(
            {"choices": [{"message": {"content": f"echo:{body['model']}"}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def _serve(handler):
    """Serve ``handler`` on a free local port; yield the endpoint, then stop the
    server, close its socket and join its thread."""
    server = HTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1/chat"
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


@pytest.fixture()
def flaky_server():
    _FlakyHandler.calls = 0
    yield from _serve(_FlakyHandler)


class _FixedHandler(BaseHTTPRequestHandler):
    """Answers every POST with ``status`` and ``body``; records each request's
    ``Authorization`` header (None when absent)."""

    status = 200
    body = b""
    authorizations: list = []

    def do_POST(self):
        type(self).authorizations.append(self.headers.get("Authorization"))
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(self.status)
        self.send_header("Content-Length", str(len(self.body)))
        self.end_headers()
        self.wfile.write(self.body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def fixed_server(monkeypatch):
    monkeypatch.setattr(_FixedHandler, "authorizations", [])
    yield from _serve(_FixedHandler)


OK_BODY = json.dumps({"choices": [{"message": {"content": "DOG"}}]}).encode()


class TestHttpClient:
    def test_retries_through_transient_failures(self, flaky_server):
        sleeps = []
        client = HttpClient(
            endpoint=flaky_server, model_id="m1", sleep=sleeps.append
        )
        assert client.complete("hello") == "echo:m1"
        assert _FlakyHandler.calls == 3
        assert sleeps == [1.0, 2.0]

    def test_gives_up_after_max_attempts(self, flaky_server):
        _FlakyHandler.failures = 99
        try:
            client = HttpClient(endpoint=flaky_server, model_id="m1", sleep=lambda s: None)
            with pytest.raises(LlmError):
                client.complete("hello")
            assert _FlakyHandler.calls == 3
        finally:
            _FlakyHandler.failures = 2

    def test_client_error_raises_after_one_call(self, fixed_server, monkeypatch):
        monkeypatch.setattr(_FixedHandler, "status", 400)
        monkeypatch.setattr(_FixedHandler, "body", b'{"error": "bad model"}')
        client = HttpClient(endpoint=fixed_server, api_key="", sleep=lambda s: None)
        with pytest.raises(LlmError, match="status 400") as exc_info:
            client.complete("hello")
        assert exc_info.value.raw == '{"error": "bad model"}'
        assert len(_FixedHandler.authorizations) == 1

    @pytest.mark.parametrize("api_key, header", [("sekrit", "Bearer sekrit"), ("", None)])
    def test_bearer_header_only_with_an_api_key(self, fixed_server, monkeypatch, api_key, header):
        monkeypatch.setattr(_FixedHandler, "body", OK_BODY)
        client = HttpClient(endpoint=fixed_server, api_key=api_key, sleep=lambda s: None)
        assert client.complete("hello") == "DOG"
        assert _FixedHandler.authorizations == [header]

    def test_malformed_ok_body_is_retried_then_raises(self, fixed_server, monkeypatch):
        monkeypatch.setattr(_FixedHandler, "body", b"<html>not json</html>")
        sleeps = []
        client = HttpClient(endpoint=fixed_server, api_key="", sleep=sleeps.append)
        with pytest.raises(LlmError, match=f"after {MAX_ATTEMPTS} attempts"):
            client.complete("hello")
        assert len(_FixedHandler.authorizations) == MAX_ATTEMPTS
        assert sleeps == [1.0, 2.0]

    def test_transport_error_is_retried_then_raises(self):
        with socket.socket() as sock:  # a local port with nothing listening once closed
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        sleeps = []
        client = HttpClient(endpoint=f"http://127.0.0.1:{port}/v1/chat", api_key="", sleep=sleeps.append)
        with pytest.raises(LlmError, match=f"after {MAX_ATTEMPTS} attempts"):
            client.complete("hello")
        assert sleeps == [1.0, 2.0]

    def test_requires_endpoint(self, monkeypatch):
        monkeypatch.delenv("SIGNSCRIBE_LLM_ENDPOINT", raising=False)
        with pytest.raises(LlmError):
            HttpClient()

    def test_make_client_modes(self):
        assert isinstance(make_client("stub"), StubClient)
        with pytest.raises(ValueError):
            make_client("carrier-pigeon")
