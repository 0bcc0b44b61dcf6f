"""Inverted word index with positions.

Records the ``[start, end)`` span of every word occurrence, supporting:

- ``occurrences(word)`` — the match points of a word (what selections join
  against region indexes);
- ``token_count_between(start, end)`` — how many words a span contains
  (exact-selection support: a ``Last_Name`` region *is* "Chang" iff it
  contains that occurrence and exactly one word);
- prefix lookups over the sorted vocabulary (PAT's lexical search).

A *selective* word index (Section 7: "Selective indexing can also be done
for words") only records occurrences inside a given scope region set.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain, islice
from operator import le
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from repro.algebra.region import Region, RegionSet
from repro.text.tokenizer import DEFAULT_EXTRA_WORD_CHARS, token_spans


def _pairs(spans: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The ``(start, end)`` pairs of a flat ``start, end, start, end, …`` array."""
    values = iter(spans)
    return zip(values, values)


class WordIndex:
    """An inverted index over one text.

    Each word's postings are one flat int array of spans
    (``start, end, start, end, …`` in document order).  The
    :class:`RegionSet` the evaluator reads is built on a word's first
    lookup and memoized; two threads building the same word at once store
    equal sets, and the dict store is atomic, so no lock is needed.

    Parameters
    ----------
    text:
        The corpus text.
    lowercase:
        Fold words to lower case (queries are folded too).
    extra_word_chars:
        Extra characters counting as word characters.
    scope:
        When given, only tokens inside some scope region are indexed.
    """

    def __init__(
        self,
        text: str,
        *,
        lowercase: bool = False,
        extra_word_chars: str = DEFAULT_EXTRA_WORD_CHARS,
        scope: RegionSet | None = None,
    ) -> None:
        self._lowercase = lowercase
        postings: dict[str, array[int]] = {}
        starts: array[int] = array("q")
        ends: array[int] = array("q")
        for word, start, end in token_spans(
            text, extra_word_chars=extra_word_chars, lowercase=lowercase
        ):
            if scope is not None and not scope.any_including(Region(start, end)):
                continue
            spans = postings.get(word)
            if spans is None:
                spans = postings[word] = array("q")
            spans.append(start)
            spans.append(end)
            starts.append(start)
            ends.append(end)
        self._fill(postings, starts, ends)

    @classmethod
    def from_postings(
        cls, postings: Mapping[str, Sequence[int]], *, lowercase: bool = False
    ) -> "WordIndex":
        """Build from each word's flat span array (``start, end, start,
        end, …``), as :meth:`RegionSet.from_pairs` builds from spans.

        The token arrays are the postings' spans sorted by start, kept as
        compact int arrays like the constructor's.  Raises
        ``ValueError`` when two tokens overlap, since
        :meth:`token_count_between` relies on tokens never overlapping.
        """
        index = cls.__new__(cls)
        index._lowercase = lowercase
        flat = chain.from_iterable(postings.values())
        end_of = dict(zip(flat, flat))
        if 2 * len(end_of) != sum(map(len, postings.values())):
            raise ValueError("two word tokens start at the same offset")
        starts = array("q", sorted(end_of))
        ends = array("q", map(end_of.__getitem__, starts))
        if not all(map(le, ends, islice(starts, 1, None))):
            raise ValueError("word tokens overlap")
        index._fill(dict(postings), starts, ends)
        return index

    def _fill(
        self, postings: dict[str, Sequence[int]], starts: Sequence[int], ends: Sequence[int]
    ) -> None:
        self._postings = postings
        self._sets: dict[str, RegionSet] = {}
        self._token_starts = starts
        self._token_ends = ends
        self._vocabulary = sorted(postings)

    # -- the evaluator's WordLookup protocol -----------------------------------

    def occurrences(self, word: str) -> RegionSet:
        """All spans where ``word`` occurs."""
        if self._lowercase:
            word = word.lower()
        found = self._sets.get(word)
        if found is None:
            spans = self._postings.get(word)
            if spans is None:
                return RegionSet.empty()
            found = self._sets[word] = RegionSet.from_pairs(_pairs(spans))
        return found

    def token_count_between(self, start: int, end: int) -> int:
        """Number of word tokens whose span lies entirely in ``[start, end)``.

        Tokens never overlap, so only the last token starting in the range
        can cross its right edge.
        """
        low = bisect_left(self._token_starts, start)
        high = bisect_left(self._token_starts, end)
        count = high - low
        if count and self._token_ends[high - 1] > end:
            count -= 1
        return count

    # -- lexical (prefix) search -------------------------------------------------

    def words_with_prefix(self, prefix: str) -> Iterator[str]:
        """Vocabulary words starting with ``prefix``, in sorted order."""
        if self._lowercase:
            prefix = prefix.lower()
        index = bisect_left(self._vocabulary, prefix)
        while index < len(self._vocabulary) and self._vocabulary[index].startswith(prefix):
            yield self._vocabulary[index]
            index += 1

    def occurrences_with_prefix(self, prefix: str) -> RegionSet:
        """All occurrences of all words starting with ``prefix``."""
        return RegionSet.from_pairs(
            pair
            for word in self.words_with_prefix(prefix)
            for pair in _pairs(self._postings[word])
        )

    # -- introspection -------------------------------------------------------------

    @property
    def vocabulary(self) -> tuple[str, ...]:
        return tuple(self._vocabulary)

    @property
    def postings(self) -> Mapping[str, Sequence[int]]:
        """Each word's flat span array (``start, end, …``), read-only."""
        return MappingProxyType(self._postings)

    @property
    def vocabulary_size(self) -> int:
        return len(self._vocabulary)

    @property
    def posting_count(self) -> int:
        """Total number of indexed occurrences."""
        return len(self._token_starts)

    def frequency(self, word: str) -> int:
        if self._lowercase:
            word = word.lower()
        return len(self._postings.get(word, ())) // 2

    def __contains__(self, word: str) -> bool:
        if self._lowercase:
            word = word.lower()
        return word in self._postings
