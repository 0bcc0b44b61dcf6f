"""Tokenization.

The word index records "the location(s) of all the words in the file"
(Section 2 of the paper).  We tokenize with a simple, deterministic rule:
a *word* is a maximal run of alphanumeric characters (plus a configurable set
of extra word characters such as ``-`` for hyphenated names).  Tokens carry
their half-open ``[start, end)`` character span so that match points can be
joined against region indexes.

One compiled regular expression does the scanning: ``[^\\W_]`` is exactly
the set of characters for which ``str.isalnum()`` holds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

DEFAULT_EXTRA_WORD_CHARS = "-_"


@dataclass(frozen=True)
class Token:
    """A word occurrence: its text and half-open character span."""

    text: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end - self.start != len(self.text):
            raise ValueError(
                f"token span [{self.start}, {self.end}) does not match text of "
                f"length {len(self.text)}"
            )


@lru_cache(maxsize=16)
def _word_pattern(extra_word_chars: str) -> re.Pattern[str]:
    if not extra_word_chars:
        return re.compile(r"[^\W_]+")
    extra = "".join(re.escape(char) for char in extra_word_chars)
    return re.compile(rf"(?:[^\W_]|[{extra}])+")


def token_spans(
    text: str,
    *,
    extra_word_chars: str = DEFAULT_EXTRA_WORD_CHARS,
    lowercase: bool = False,
) -> Iterator[tuple[str, int, int]]:
    """Yield ``(word, start, end)`` for each word of ``text`` in document order.

    The span always addresses ``text``; with ``lowercase`` only the word is
    folded, and a fold may change its length (``"İ".lower()`` is two
    characters).  This is :func:`tokenize` without a :class:`Token` per word,
    for the index builders.
    """
    for match in _word_pattern(extra_word_chars).finditer(text):
        start, end = match.span()
        word = match.group()
        yield (word.lower() if lowercase else word), start, end


def tokenize(
    text: str,
    *,
    extra_word_chars: str = DEFAULT_EXTRA_WORD_CHARS,
    lowercase: bool = False,
) -> Iterator[Token]:
    """Yield the word tokens of ``text`` in document order.

    Parameters
    ----------
    text:
        The text to tokenize.
    extra_word_chars:
        Characters treated as part of a word in addition to alphanumerics.
    lowercase:
        If true, token text is lowercased (spans still address the original
        text).  The index engine uses this for case-insensitive word indexes.
        The span is checked against the original word before it is folded,
        since a fold may change the word's length.
    """
    for word, start, end in token_spans(text, extra_word_chars=extra_word_chars):
        token = Token(text=word, start=start, end=end)
        if lowercase:
            object.__setattr__(token, "text", word.lower())
        yield token


def tokenize_words(text: str, **kwargs: object) -> list[str]:
    """Return just the word strings of ``text`` (convenience for tests)."""
    return [word for word, _, _ in token_spans(text, **kwargs)]  # type: ignore[arg-type]
