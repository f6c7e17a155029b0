"""Pluggable LLM access for the annotation pipeline.

Two operations share one provider-agnostic completion interface:
k-candidate English-to-gloss translation and fingerspelling typo
correction. A deterministic offline stub makes every downstream behavior
testable without network access; the HTTP client speaks a generic JSON
chat-completion shape configured via environment variables.
"""

from __future__ import annotations

import enum
import functools
import json
import logging
import os
import re
import time
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Protocol

from .gloss import GlossParseError, GlossSequence, parse_gloss_sequence

logger = logging.getLogger(__name__)

ENV_ENDPOINT = "SIGNSCRIBE_LLM_ENDPOINT"
ENV_API_KEY = "SIGNSCRIBE_LLM_API_KEY"
ENV_MODEL_ID = "SIGNSCRIBE_LLM_MODEL"

MAX_ATTEMPTS = 3
BACKOFF_INITIAL_SECONDS = 1.0


class PromptName(str, enum.Enum):
    KSHOT_TRANSLATE = "kshot_translate"
    ERROR_CORRECT = "fs_error_correct"


@dataclass(frozen=True)
class PromptTemplate:
    name: PromptName
    body: str

    def render(self, phrase: str, k: int | None = None) -> str:
        out = self.body.replace("{phrase}", phrase)
        if k is not None:
            out = out.replace("{k}", str(k))
        return out


@functools.cache
def load_prompt(name: PromptName) -> PromptTemplate:
    """The packaged template, read once per process."""
    path = resources.files("signscribe").joinpath("prompts", f"{name.value}.txt")
    return PromptTemplate(name=name, body=path.read_text("utf-8"))


class LlmError(RuntimeError):
    """Transport or response-format failure; ``raw`` carries the raw text."""

    def __init__(self, message: str, raw: str | None = None):
        self.raw = raw
        super().__init__(message)


class LlmClient(Protocol):
    model_id: str

    def complete(self, prompt: str, temperature: float = 1.0, max_tokens: int = 1024) -> str:
        ...


@dataclass(frozen=True)
class CandidateSet:
    candidates: tuple[GlossSequence, ...]  # each keeps its raw line as ``source_text``


# --- response parsing ---------------------------------------------------------

_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)


def parse_candidate_json(text: str) -> list[tuple[int, str]]:
    """Extract the numbered-candidate JSON object from a completion.

    Tolerates code-fence wrapping and surrounding chatter; preserves the
    numeric-key order. Raises :class:`LlmError` with the raw text attached
    when no parseable object is found.
    """
    bodies = [m.group(1) for m in _FENCE_RE.finditer(text)] + [text]
    for body in bodies:
        start = body.find("{")
        end = body.rfind("}")
        if start < 0 or end <= start:
            continue
        try:
            obj = json.loads(body[start : end + 1])
        except json.JSONDecodeError:
            continue
        if not isinstance(obj, dict):
            continue
        items = []
        try:
            for key, value in obj.items():
                items.append((int(key), str(value)))
        except (TypeError, ValueError):
            continue
        return sorted(items, key=lambda kv: kv[0])
    raise LlmError("response is not a numbered-candidate JSON object", raw=text)


def _strip_wrapping(text: str) -> str:
    out = text.strip()
    fence = _FENCE_RE.search(out)
    if fence:
        out = fence.group(1).strip()
    if len(out) >= 2 and out[0] == '"' and out[-1] == '"':
        out = out[1:-1]
    return out


# --- operations ----------------------------------------------------------------


def translate_candidates(client: LlmClient, phrase: str, k: int = 10) -> CandidateSet:
    """Ask for k candidate glossings and keep the ones that parse, parsed."""
    if k < 1:
        raise ValueError("k must be >= 1")
    prompt = load_prompt(PromptName.KSHOT_TRANSLATE).render(phrase=phrase, k=k)
    text = client.complete(prompt, temperature=1.0)
    items = parse_candidate_json(text)
    # the stub drops duplicate variants, so fewer than k is its normal answer
    if len(items) < k and not isinstance(client, StubClient):
        logger.warning("expected %d candidates, got %d", k, len(items))
    candidates = []
    for _, raw in items[:k]:
        try:
            candidates.append(parse_gloss_sequence(raw))
        except GlossParseError as exc:
            logger.warning("dropping unparseable candidate %r: %s", raw, exc)
    if not candidates:
        raise LlmError("no candidate parsed as a gloss line", raw=text)
    return CandidateSet(candidates=tuple(candidates))


def correct_fingerspelling(client: LlmClient, raw: str) -> str:
    """Fix typos in a greedy-decode transcript; returns the corrected line."""
    prompt = load_prompt(PromptName.ERROR_CORRECT).render(phrase=raw)
    return _strip_wrapping(client.complete(prompt, temperature=0.0))


# --- deterministic offline stub --------------------------------------------------

_PUNCT_STRIP = str.maketrans("", "", "!\"$%&'*,;<=>?[\\]^`{}~()")
_DROP_WORDS = ("THE", "A", "AN", "IS", "ARE", "AM", "WAS", "WERE", "BE", "OF")


def _naive_gloss(phrase: str) -> list[str]:
    return [w for w in phrase.translate(_PUNCT_STRIP).upper().split() if w]


def _stub_candidates(phrase: str, k: int) -> dict[str, str]:
    """Deterministic candidate glossings derived by simple transforms."""
    base = _naive_gloss(phrase)
    if not base:
        base = ["UNKNOWN"]
    dropped = [w for w in base if w not in _DROP_WORDS] or list(base)
    longest = max(range(len(base)), key=lambda i: len(base[i]))
    variants: list[list[str]] = [
        list(base),
        dropped,
        list(reversed(base)),
        base[-1:] + base[:-1],
        base[1:] + base[:1],
        base + ["FINISH"],
        ["ME" if w == "I" else w for w in base],
        [("fs-" + w) if i == longest else w for i, w in enumerate(base)],
        list(reversed(dropped)),
        ["NOW"] + base,
    ]
    unique: list[list[str]] = []
    for cand in variants:
        if cand not in unique:
            unique.append(cand)
        if len(unique) == k:
            break
    return {str(i + 1): " ".join(c) for i, c in enumerate(unique[:k])}


_STUB_CORRECTIONS = {
    "29 OLD MOUNT PLESANT": "29 OLD MOUNT PLEASANT",
    "HTTPNN//WW..VISISTDALARNASEE": "HTTP://WWW.VISITDALARNA.SE",
}


class StubClient:
    """Offline LLM with a fixture table and deterministic fallback rules.

    Routing inspects the rendered prompt: the stub recognizes each prompt
    template by its distinctive first line and extracts the quoted payload.
    """

    model_id = "stub"

    def __init__(self, translations: dict[str, dict[str, str]] | None = None):
        self.translations = dict(translations or {})

    @staticmethod
    def _payload(prompt: str, label: str) -> str:
        matches = re.findall(rf'{label}: "(.*?)"\s*\nOutput:', prompt, re.DOTALL)
        if not matches:
            raise LlmError(f"stub could not find the {label} payload", raw=prompt)
        return matches[-1]

    def complete(self, prompt: str, temperature: float = 1.0, max_tokens: int = 1024) -> str:
        if prompt.startswith("You are an expert American Sign Language"):
            phrase = self._payload(prompt, "English")
            m = re.search(r"Please generate (\d+) different gloss translations", prompt)
            k = int(m.group(1)) if m else 10
            table = self.translations.get(phrase) or _stub_candidates(phrase, k)
            return "```json\n" + json.dumps(table, indent=0) + "\n```"
        if prompt.startswith("Your task is to take a line of english text"):
            phrase = self._payload(prompt, "English")
            return _STUB_CORRECTIONS.get(phrase, phrase)
        raise LlmError("stub does not recognize this prompt", raw=prompt)


class HttpClient:
    """Generic JSON-over-HTTP chat-completion client with retry/backoff."""

    def __init__(
        self,
        endpoint: str | None = None,
        api_key: str | None = None,
        model_id: str | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.endpoint = endpoint or os.environ.get(ENV_ENDPOINT, "")
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_API_KEY, "")
        self.model_id = model_id or os.environ.get(ENV_MODEL_ID, "default")
        if not self.endpoint:
            raise LlmError(f"no endpoint configured (set {ENV_ENDPOINT})")
        self._sleep = sleep

    def complete(self, prompt: str, temperature: float = 1.0, max_tokens: int = 1024) -> str:
        import http.client  # only this client needs it; it stays off the CLI import path

        payload = {
            "model": self.model_id,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "max_tokens": max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                self._sleep(BACKOFF_INITIAL_SECONDS * (2 ** (attempt - 1)))
            try:
                status, text = _post_json(self.endpoint, payload, headers)
            except (OSError, http.client.HTTPException) as exc:  # transport errors
                last_error = exc
                continue
            if status >= 500:
                last_error = LlmError(f"server error {status}")
                continue
            if status != 200:
                raise LlmError(f"request failed with status {status}", raw=text)
            try:
                return json.loads(text)["choices"][0]["message"]["content"]
            except (ValueError, LookupError, TypeError) as exc:  # malformed body
                last_error = exc
        raise LlmError(f"request failed after {MAX_ATTEMPTS} attempts: {last_error}")


def _post_json(url: str, payload: dict, headers: dict[str, str]) -> tuple[int, str]:
    """POST ``payload`` as JSON; the response status and body text, whatever the status."""
    import urllib.error  # only the HTTP client needs these; they stay off the CLI import path
    import urllib.request

    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read().decode("utf-8", "replace")
    except urllib.error.HTTPError as exc:  # a status urllib raises for; it carries the body
        with exc:
            return exc.code, exc.read().decode("utf-8", "replace")


def make_client(mode: str) -> LlmClient:
    if mode == "stub":
        return StubClient()
    if mode == "http":
        return HttpClient()
    raise ValueError(f"unknown llm mode {mode!r}")
