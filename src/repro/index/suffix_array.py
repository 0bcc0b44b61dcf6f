"""PAT-style semi-infinite string (sistring) array.

The PAT system indexes the suffixes of the text that begin at word starts
("sistrings") in a Patricia tree; prefix search then finds every text
position where a given string begins a word.  A sorted suffix array over the
same positions supports the identical query with two binary searches.

Keys are compared up to ``key_length`` characters — ample for query strings,
which are words or short phrases; queries longer than ``key_length`` are
rejected rather than answered wrongly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.algebra.region import Region, RegionSet
from repro.errors import RegionIndexError
from repro.text.tokenizer import token_spans


class SuffixArray:
    """A sorted array of sistring positions supporting prefix search."""

    def __init__(
        self,
        text: str,
        positions: Iterable[int] | None = None,
        key_length: int = 64,
    ) -> None:
        if key_length <= 0:
            raise RegionIndexError("key_length must be positive")
        self._text = text
        self._key_length = key_length
        if positions is None:
            starts: Sequence[int] = [start for _, start, _ in token_spans(text)]
        else:
            starts = sorted(set(positions))
        self._array = sorted(starts, key=lambda p: text[p : p + key_length])

    @property
    def key_length(self) -> int:
        return self._key_length

    def __len__(self) -> int:
        return len(self._array)

    # -- search --------------------------------------------------------------------

    def _lower_bound(self, prefix: str) -> int:
        low, high = 0, len(self._array)
        while low < high:
            mid = (low + high) // 2
            position = self._array[mid]
            if self._text[position : position + len(prefix)] < prefix:
                low = mid + 1
            else:
                high = mid
        return low

    def _upper_bound(self, prefix: str) -> int:
        low, high = 0, len(self._array)
        while low < high:
            mid = (low + high) // 2
            position = self._array[mid]
            if self._text[position : position + len(prefix)] <= prefix:
                low = mid + 1
            else:
                high = mid
        return low

    def _validate(self, prefix: str) -> None:
        if not prefix:
            raise RegionIndexError("empty search prefix")
        if len(prefix) > self._key_length:
            raise RegionIndexError(
                f"prefix of length {len(prefix)} exceeds the index key length "
                f"{self._key_length}"
            )

    def find(self, prefix: str) -> RegionSet:
        """All positions where ``prefix`` begins a sistring, as
        ``len(prefix)``-wide regions — O(log n + occurrences) via the two
        binary searches."""
        self._validate(prefix)
        low = self._lower_bound(prefix)
        high = self._upper_bound(prefix)
        return RegionSet(
            Region(position, position + len(prefix)) for position in self._array[low:high]
        )

    def count(self, prefix: str) -> int:
        """How many sistrings begin with ``prefix`` (PAT frequency search).

        O(log n): the two binary searches alone, no region materialisation.
        """
        self._validate(prefix)
        return self._upper_bound(prefix) - self._lower_bound(prefix)
