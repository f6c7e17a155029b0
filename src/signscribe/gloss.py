"""Gloss annotation lines: parsing, rendering, stemming, CTC tokenization.

Annotation tokens follow the uppercase glossing conventions used throughout
this project:

* ``CAT``            plain gloss
* ``fs-WORD``        fingerspelled word (letters, digits, symbols)
* ``ns-NAME``        name sign
* ``#WORD``          lexicalized fingerspelling / fingerspelled abbreviation
* ``CL:X(TEXT)``     classifier with handshape X and motion description TEXT

Prefixes are case-folded on input ("FS-" and "fs-" are equivalent); the
canonical rendering is lowercase ``fs-`` / ``ns-`` with uppercase token text.
Classifier motion text may contain spaces and is preserved verbatim.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Sequence

from .stemming import stem_fixpoint


class GlossParseError(ValueError):
    """Malformed annotation line; ``offset`` is the byte offset of the fault."""

    def __init__(self, message: str, line: str, char_index: int):
        self.offset = len(line[:char_index].encode("utf-8"))
        super().__init__(f"{message} (byte offset {self.offset})")


class TokenizationError(ValueError):
    """A word contains a character outside the CTC alphabet, or the word separator."""

    def __init__(self, char: str, word: str):
        self.char = char
        self.word = word
        super().__init__(f"character {char!r} in word {word!r} cannot be spelled with the alphabet")


class TokenKind(enum.Enum):
    GLOSS = "gloss"
    FINGERSPELLED = "fingerspelled"
    NAME_SIGN = "name_sign"
    LEXICALIZED = "lexicalized"
    CLASSIFIER = "classifier"


# The kinds signed letter by letter: the fingerspelling recognizer aligns them.
FINGERSPELLED_KINDS = (TokenKind.FINGERSPELLED, TokenKind.NAME_SIGN, TokenKind.LEXICALIZED)


@dataclass(frozen=True)
class GlossToken:
    kind: TokenKind
    text: str
    handshape: str | None = None
    motion: str | None = None

    def __post_init__(self):
        if not self.text:
            raise ValueError("token text must be non-empty")
        is_classifier = self.kind is TokenKind.CLASSIFIER
        if is_classifier != (self.handshape is not None and self.motion is not None):
            raise ValueError("handshape/motion are present iff kind is CLASSIFIER")

    @property
    def notation(self) -> str:
        """The token as a gloss line writes it: ``fs-BOB``, ``ns-JO``, ``#JOB``,
        ``CL:3(CAR-PASSES)`` or ``DOG``."""
        if self.kind is TokenKind.CLASSIFIER:
            return f"CL:{self.handshape}({self.motion})"
        return _NOTATION_PREFIX.get(self.kind, "") + self.text


_NOTATION_PREFIX = {
    TokenKind.FINGERSPELLED: "fs-",
    TokenKind.NAME_SIGN: "ns-",
    TokenKind.LEXICALIZED: "#",
}


@dataclass(frozen=True)
class GlossSequence:
    tokens: tuple[GlossToken, ...]
    source_text: str | None = None

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


_PREFIX_KINDS = (("fs-", TokenKind.FINGERSPELLED), ("ns-", TokenKind.NAME_SIGN))


def _classify_chunk(chunk: str, line: str, start: int) -> GlossToken:
    for prefix, kind in _PREFIX_KINDS:
        if chunk[: len(prefix)].lower() == prefix:
            body = chunk[len(prefix):]
            if not body:
                raise GlossParseError(f"empty token after {prefix!r}", line, start)
            return _plain_token(kind, body, line, start + len(prefix))
    if chunk.startswith("#"):
        body = chunk[1:]
        if not body:
            raise GlossParseError("empty token after '#'", line, start)
        return _plain_token(TokenKind.LEXICALIZED, body, line, start + 1)
    return _plain_token(TokenKind.GLOSS, chunk, line, start)


def _plain_token(kind: TokenKind, body: str, line: str, body_start: int) -> GlossToken:
    for paren in "()":
        if paren in body:
            raise GlossParseError(
                "parentheses are only valid in CL:X(TEXT) tokens",
                line,
                body_start + body.index(paren),
            )
    return GlossToken(kind=kind, text=body.upper())


def _parse_classifier(line: str, start: int) -> tuple[GlossToken, int]:
    """Parse ``CL:X(TEXT)`` starting at ``start``; TEXT may contain spaces."""
    i = start + 3  # past "CL:"
    open_paren = line.find("(", i)
    if open_paren < 0 or any(ch.isspace() for ch in line[i:open_paren]):
        raise GlossParseError("classifier is missing '(' after its handshape", line, start)
    handshape = line[i:open_paren]
    if not handshape:
        raise GlossParseError("classifier has an empty handshape", line, start)
    j = open_paren + 1
    while j < len(line):
        ch = line[j]
        if ch == "(":
            raise GlossParseError("nested '(' inside classifier motion", line, j)
        if ch == ")":
            motion = " ".join(line[open_paren + 1 : j].split())
            if not motion:
                raise GlossParseError("classifier has an empty motion", line, open_paren)
            if j + 1 < len(line) and not line[j + 1].isspace():
                raise GlossParseError("trailing characters after classifier", line, j + 1)
            handshape = handshape.upper()
            token = GlossToken(
                kind=TokenKind.CLASSIFIER,
                text=f"CL:{handshape}({motion})",
                handshape=handshape,
                motion=motion,
            )
            return token, j + 1
        j += 1
    raise GlossParseError("unbalanced '(' in classifier", line, open_paren)


def parse_gloss_sequence(line: str) -> GlossSequence:
    """Parse one annotation line into tokens.

    Raises :class:`GlossParseError` (with a byte offset) on malformed input;
    never any other exception, for arbitrary strings.
    """
    tokens: list[GlossToken] = []
    i, n = 0, len(line)
    while i < n:
        if line[i].isspace():
            i += 1
            continue
        if line[i : i + 3].upper() == "CL:":
            token, i = _parse_classifier(line, i)
            tokens.append(token)
            continue
        j = i
        while j < n and not line[j].isspace():
            j += 1
        tokens.append(_classify_chunk(line[i:j], line, i))
        i = j
    return GlossSequence(tokens=tuple(tokens), source_text=line)


def render(seq: GlossSequence) -> str:
    """Canonical single-space rendering; inverse of parse on canonical lines."""
    return " ".join(tok.notation for tok in seq.tokens)


def stem_normalize(seq: GlossSequence) -> GlossSequence:
    """Porter-stem every plain gloss token; other kinds pass through.

    The stemmer runs to fixpoint so normalizing an already-normalized
    sequence is a no-op.
    """
    out = []
    for tok in seq.tokens:
        if tok.kind is TokenKind.GLOSS:
            out.append(replace(tok, text=stem_fixpoint(tok.text.lower()).upper()))
        else:
            out.append(tok)
    return GlossSequence(tokens=tuple(out), source_text=seq.source_text)


def to_ctc_tokens(words: Sequence[str], alphabet) -> list[int]:
    """Encode words as a pipe-delimited character token stream.

    The emitted layout is a leading separator, then each word's characters
    followed by a separator: ``| C A T | A N D | D O G |``. Characters are
    case-folded to uppercase before lookup; an unmapped character, or a
    separator inside a word, raises :class:`TokenizationError`.
    """
    ids = [alphabet.pipe_id]
    for word in words:
        for ch in word.upper():
            try:
                ids.append(alphabet.index(ch))
            except KeyError:
                raise TokenizationError(ch, word) from None
            if ids[-1] == alphabet.pipe_id:
                raise TokenizationError(ch, word)
        ids.append(alphabet.pipe_id)
    return ids
