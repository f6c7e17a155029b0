"""Gloss notation: parsing, rendering, stemming, CTC tokenization."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signscribe.ctc import toy_alphabet
from signscribe.gloss import (
    GlossParseError,
    GlossSequence,
    GlossToken,
    TokenKind,
    TokenizationError,
    parse_gloss_sequence,
    render,
    stem_normalize,
    to_ctc_tokens,
)
from signscribe.stemming import porter_stem

FIXTURES = "src/signscribe/data/gloss_fixtures.txt"


class TestParse:
    def test_fingerspelled_words(self):
        seq = parse_gloss_sequence("fs-NEW fs-YORK")
        assert [t.kind for t in seq.tokens] == [TokenKind.FINGERSPELLED] * 2
        assert [t.text for t in seq.tokens] == ["NEW", "YORK"]

    def test_classifier_with_spaceless_motion(self):
        seq = parse_gloss_sequence("CL:4(list)")
        (tok,) = seq.tokens
        assert tok.kind is TokenKind.CLASSIFIER
        assert tok.handshape == "4"
        assert tok.motion == "list"

    def test_classifier_motion_with_space(self):
        (tok,) = parse_gloss_sequence("CL:1(point finger)").tokens
        assert tok.handshape == "1"
        assert tok.motion == "point finger"

    def test_empty_line(self):
        assert parse_gloss_sequence("").tokens == ()

    def test_lexicalized(self):
        (tok,) = parse_gloss_sequence("#BANK").tokens
        assert tok.kind is TokenKind.LEXICALIZED
        assert tok.text == "BANK"

    def test_name_sign(self):
        (tok,) = parse_gloss_sequence("ns-CHICAGO").tokens
        assert tok.kind is TokenKind.NAME_SIGN

    def test_prefix_case_folded(self):
        seq = parse_gloss_sequence("FS-23 FS-KIEV")
        assert all(t.kind is TokenKind.FINGERSPELLED for t in seq.tokens)
        assert render(seq) == "fs-23 fs-KIEV"

    def test_plain_gloss_uppercased(self):
        (tok,) = parse_gloss_sequence("cat").tokens
        assert tok.kind is TokenKind.GLOSS
        assert tok.text == "CAT"

    def test_compound_hyphen_preserved(self):
        (tok,) = parse_gloss_sequence("SHUT-DOWN").tokens
        assert tok.text == "SHUT-DOWN"

    def test_unbalanced_classifier_has_byte_offset(self):
        with pytest.raises(GlossParseError) as exc_info:
            parse_gloss_sequence("GOOD CL:4(list")
        assert exc_info.value.offset == 9

    def test_nested_parens_rejected(self):
        with pytest.raises(GlossParseError):
            parse_gloss_sequence("CL:1(a(b))")

    def test_empty_prefix_token(self):
        with pytest.raises(GlossParseError):
            parse_gloss_sequence("fs-")
        with pytest.raises(GlossParseError):
            parse_gloss_sequence("#")

    def test_stray_paren_rejected(self):
        with pytest.raises(GlossParseError):
            parse_gloss_sequence("WEIRD(TOKEN)")


class TestRender:
    def test_number_fingerspelling(self):
        assert render(GlossSequence(tokens=(
            GlossToken(kind=TokenKind.FINGERSPELLED, text="23"),
        ))) == "fs-23"

    def test_empty(self):
        assert render(GlossSequence(tokens=())) == ""

    def test_classifier(self):
        tok = GlossToken(
            kind=TokenKind.CLASSIFIER, text="CL:1(point finger)",
            handshape="1", motion="point finger",
        )
        assert render(GlossSequence(tokens=(tok,))) == "CL:1(point finger)"

    def test_fixture_round_trip(self):
        for line in Path(FIXTURES).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            normalized = " ".join(line.split())
            assert render(parse_gloss_sequence(line)) == normalized


@settings(max_examples=300)
@given(st.text(max_size=60))
def test_parse_total_on_arbitrary_text(line):
    try:
        parse_gloss_sequence(line)
    except GlossParseError as exc:
        assert exc.offset >= 0


_TOKEN_TEXT = st.text(alphabet=st.characters(whitelist_categories=(), whitelist_characters="ABCXYZ0123-"), min_size=1, max_size=8).filter(lambda s: s.strip("-") == s)


@given(st.lists(_TOKEN_TEXT, min_size=0, max_size=6))
def test_round_trip_on_generated_lines(texts):
    line = " ".join("fs-" + t if i % 2 else t for i, t in enumerate(texts))
    seq = parse_gloss_sequence(line)
    assert render(parse_gloss_sequence(render(seq))) == render(seq)


class TestStemNormalize:
    def test_plural_gloss(self):
        seq = parse_gloss_sequence("DAYS")
        assert stem_normalize(seq).tokens[0].text == "DAY"

    def test_ing_form(self):
        seq = parse_gloss_sequence("RUNNING")
        assert stem_normalize(seq).tokens[0].text == "RUN"

    def test_non_gloss_untouched(self):
        seq = parse_gloss_sequence("fs-DAYS")
        assert stem_normalize(seq).tokens[0].text == "DAYS"

    @given(st.lists(st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=1, max_size=10), min_size=1, max_size=5))
    def test_idempotent(self, words):
        seq = parse_gloss_sequence(" ".join(words))
        once = stem_normalize(seq)
        assert stem_normalize(once) == once

    def test_fixpoint_on_cascading_suffixes(self):
        # A single pass leaves HOUSES at HOUS, whose trailing S still
        # strips; normalization settles at the fixpoint.
        (tok,) = stem_normalize(parse_gloss_sequence("HOUSES")).tokens
        assert tok.text == "HOU"


class TestPorterStem:
    # Expected values derived by hand from the published rule tables.
    CASES = {
        "caresses": "caress",
        "ponies": "poni",
        "ties": "ti",
        "caress": "caress",
        "cats": "cat",
        "feed": "feed",
        "agreed": "agre",
        "plastered": "plaster",
        "bled": "bled",
        "motoring": "motor",
        "sing": "sing",
        "conflated": "conflat",
        "troubled": "troubl",
        "sized": "size",
        "hopping": "hop",
        "tanned": "tan",
        "falling": "fall",
        "hissing": "hiss",
        "fizzed": "fizz",
        "failing": "fail",
        "filing": "file",
        "happy": "happi",
        "sky": "ski",
        "relational": "relat",
        "conditional": "condit",
        "rational": "ration",
        "valenci": "valenc",
        "hesitanci": "hesit",
        "digitizer": "digit",
        "conformabli": "conform",
        "radicalli": "radic",
        "differentli": "differ",
        "vileli": "vile",
        "analogousli": "analog",
        "vietnamization": "vietnam",
        "predication": "predic",
        "operator": "oper",
        "feudalism": "feudal",
        "decisiveness": "decis",
        "hopefulness": "hope",
        "callousness": "callous",
        "formaliti": "formal",
        "sensitiviti": "sensit",
        "sensibiliti": "sensibl",
        "triplicate": "triplic",
        "formative": "form",
        "formalize": "formal",
        "electriciti": "electr",
        "electrical": "electr",
        "hopeful": "hope",
        "goodness": "good",
        "revival": "reviv",
        "allowance": "allow",
        "inference": "infer",
        "airliner": "airlin",
        "gyroscopic": "gyroscop",
        "adjustable": "adjust",
        "defensible": "defens",
        "irritant": "irrit",
        "replacement": "replac",
        "adjustment": "adjust",
        "dependent": "depend",
        "adoption": "adopt",
        "homologou": "homolog",
        "communism": "commun",
        "activate": "activ",
        "angulariti": "angular",
        "homologous": "homolog",
        "effective": "effect",
        "bowdlerize": "bowdler",
        "probate": "probat",
        "rate": "rate",
        "cease": "ceas",
        "controll": "control",
        "roll": "roll",
    }

    @pytest.mark.parametrize("word,expected", sorted(CASES.items()))
    def test_rule_table_vectors(self, word, expected):
        assert porter_stem(word) == expected

    def test_short_words_unchanged(self):
        assert porter_stem("at") == "at"
        assert porter_stem("I") == "I"

    def test_non_letters_pass_through(self):
        assert porter_stem("23") == "23"
        assert porter_stem("shut-down") == "shut-down"


class TestToCtcTokens:
    def test_three_words(self):
        alpha = toy_alphabet()
        ids = to_ctc_tokens(["CAT", "AND", "DOG"], alpha)
        symbols = ["|" if i == alpha.pipe_id else alpha.char(i) for i in ids]
        assert symbols == list("|CAT|AND|DOG|".replace("", ""))  # char-by-char
        assert symbols == ["|", "C", "A", "T", "|", "A", "N", "D", "|", "D", "O", "G", "|"]

    def test_empty_phrase(self):
        alpha = toy_alphabet()
        assert to_ctc_tokens([], alpha) == [alpha.pipe_id]

    def test_case_folding(self):
        alpha = toy_alphabet()
        assert to_ctc_tokens(["cat"], alpha) == to_ctc_tokens(["CAT"], alpha)

    def test_unmapped_character_named(self):
        alpha = toy_alphabet()
        with pytest.raises(TokenizationError) as exc_info:
            to_ctc_tokens(["A?B"], alpha)
        assert exc_info.value.char == "?"
        assert exc_info.value.word == "A?B"

    @given(st.lists(st.text(alphabet="ABCXYZ01", min_size=1, max_size=7), max_size=5))
    def test_length_formula(self, words):
        alpha = toy_alphabet()
        ids = to_ctc_tokens(words, alpha)
        assert len(ids) == 1 + sum(len(w) + 1 for w in words)
