"""Classic Porter stemmer (1980 rule set).

One departure from the original tables: the step that rewrites a final
"y" to "i" requires the preceding character to be a consonant (and a stem
longer than one letter), so DAYS stems to DAY rather than DAI. This keeps
plural glosses and their singulars on a common stem, which is what the
annotation normalization relies on.

Operates on lowercase ASCII words. Characters outside a-z are treated as
consonants, so tokens like "shut-down" or "23" pass through the rules
unharmed. Words of length <= 2 are returned unchanged.
"""

from __future__ import annotations

import functools

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return True if i == 0 else not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Count of vowel-consonant sequences: [C](VC)^m[V]."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        vowel = not _is_consonant(stem, i)
        if prev_vowel and not vowel:
            m += 1
        prev_vowel = vowel
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """Consonant-vowel-consonant ending where the last consonant is not w, x, y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _replace_longest(word: str, rules, condition) -> str:
    """Apply the longest matching suffix rule whose condition holds.

    Porter's rule: the longest matching suffix is selected first, and only
    then is the condition tested; a failed condition ends the step without
    trying shorter suffixes.
    """
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if condition(stem):
                return stem + replacement
            return word
    return word


_STEP2_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
)

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        if _measure(stem) > 0:
            return word[:-1]
        return word
    fired = False
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        word = word[:-2]
        fired = True
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        word = word[:-3]
        fired = True
    if not fired:
        return word
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y"):
        stem = word[:-1]
        if len(stem) > 1 and _is_consonant(stem, len(stem) - 1):
            return stem + "i"
    return word


def _step4(word: str) -> str:
    for suffix in sorted(_STEP4_SUFFIXES, key=len, reverse=True):
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) <= 1:
                return word
            if suffix == "ion" and (not stem or stem[-1] not in "st"):
                return word
            return stem
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


def porter_stem(word: str) -> str:
    """Stem a lowercase word with the original Porter algorithm."""
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _replace_longest(word, _STEP2_RULES, lambda s: _measure(s) > 0)
    word = _replace_longest(word, _STEP3_RULES, lambda s: _measure(s) > 0)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word


@functools.cache
def stem_fixpoint(word: str) -> str:
    """Apply the stemmer until the word stops changing (at most 8 rounds).

    A single Porter pass is not idempotent (HOUSES -> HOUS -> HOU); the
    fixpoint leaves already-normal words untouched and gives annotation
    normalization a stable canonical form. Memoised: vocabulary lookups
    stem the same few glosses over and over.
    """
    for _ in range(8):
        out = porter_stem(word)
        if out == word:
            return out
        word = out
    return word
