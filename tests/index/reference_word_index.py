"""Test-only oracle: the eager word index that
:class:`repro.index.word_index.WordIndex` replaced.

It makes a :class:`Region` per token and a sorted :class:`RegionSet` per
word up front, over the per-character reference tokenizer.  The lazy index
keeps int spans and builds a word's set on first lookup; the differential
tests in ``test_word_index.py`` check it against this one lookup for
lookup.  Nothing in ``src`` imports it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator

from repro.algebra.region import Region, RegionSet
from repro.text.tokenizer import DEFAULT_EXTRA_WORD_CHARS
from tests.text.reference_tokenizer import reference_token_spans


class ReferenceWordIndex:
    def __init__(
        self,
        text: str,
        *,
        lowercase: bool = False,
        extra_word_chars: str = DEFAULT_EXTRA_WORD_CHARS,
        scope: RegionSet | None = None,
    ) -> None:
        self._lowercase = lowercase
        postings: dict[str, list[Region]] = {}
        starts: list[int] = []
        ends: list[int] = []
        for word, start, end in reference_token_spans(
            text, extra_word_chars=extra_word_chars, lowercase=lowercase
        ):
            occurrence = Region(start, end)
            if scope is not None and not scope.any_including(occurrence):
                continue
            postings.setdefault(word, []).append(occurrence)
            starts.append(start)
            ends.append(end)
        self._postings = {word: RegionSet(entries) for word, entries in postings.items()}
        self._token_starts = starts
        self._token_ends = ends
        self._vocabulary = sorted(self._postings)

    def occurrences(self, word: str) -> RegionSet:
        if self._lowercase:
            word = word.lower()
        return self._postings.get(word, RegionSet.empty())

    def token_count_between(self, start: int, end: int) -> int:
        low = bisect_left(self._token_starts, start)
        high = bisect_left(self._token_starts, end)
        count = high - low
        if count and self._token_ends[high - 1] > end:
            count -= 1
        return count

    def words_with_prefix(self, prefix: str) -> Iterator[str]:
        if self._lowercase:
            prefix = prefix.lower()
        return (word for word in self._vocabulary if word.startswith(prefix))

    def occurrences_with_prefix(self, prefix: str) -> RegionSet:
        merged: set[Region] = set()
        for word in self.words_with_prefix(prefix):
            merged.update(self._postings[word])
        return RegionSet(merged)

    @property
    def vocabulary(self) -> tuple[str, ...]:
        return tuple(self._vocabulary)

    @property
    def posting_count(self) -> int:
        return len(self._token_starts)

    def frequency(self, word: str) -> int:
        if self._lowercase:
            word = word.lower()
        return len(self._postings.get(word, ()))
