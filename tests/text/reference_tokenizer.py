"""Test-only oracle: the per-character tokenizer that
:mod:`repro.text.tokenizer` replaced with one compiled regular expression.

It walks the text one character at a time and asks ``str.isalnum()`` of
each, which makes it slow but obviously faithful to the word rule; the
differential tests in ``test_tokenizer.py`` check the regex tokenizer
against it span for span.  Nothing in ``src`` imports it.
"""

from __future__ import annotations

from typing import Iterator

from repro.text.tokenizer import DEFAULT_EXTRA_WORD_CHARS


def _is_word_char(char: str, extra: str) -> bool:
    return char.isalnum() or char in extra


def reference_token_spans(
    text: str,
    *,
    extra_word_chars: str = DEFAULT_EXTRA_WORD_CHARS,
    lowercase: bool = False,
) -> Iterator[tuple[str, int, int]]:
    """Yield ``(word, start, end)`` per word; the span addresses ``text``
    and only the word is folded under ``lowercase``."""
    position = 0
    length = len(text)
    while position < length:
        if _is_word_char(text[position], extra_word_chars):
            start = position
            while position < length and _is_word_char(text[position], extra_word_chars):
                position += 1
            word = text[start:position]
            if lowercase:
                word = word.lower()
            yield word, start, position
        else:
            position += 1
