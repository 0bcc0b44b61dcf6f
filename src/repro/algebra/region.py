"""Regions, region sets, and region instances.

A *region* is a substring of the indexed text "defined by a pair of positions
in the text corresponding to the beginning and end of the region" (Section
3.1).  We use half-open ``[start, end)`` character offsets.  The paper's
inclusion relation ``r ⊒ s`` ("the endpoints of s are within those of r")
maps to ``r.start <= s.start and s.end <= r.end``.

A :class:`RegionSet` is an immutable, duplicate-free, sorted collection of
regions; the paper's instances put "no restrictions on overlaps", so nothing
here assumes nesting or disjointness.  An :class:`Instance` maps region names
to region sets (Definition: "An instance I of a region index Z is a mapping
associating an instance Ri(I) to each region name Ri").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Mapping

from repro.errors import RegionError


@dataclass(frozen=True, order=True)
class Region:
    """A half-open span ``[start, end)`` of the corpus text.

    Regions sort by ``(start, end)``; this is the canonical order used by all
    merge-based set operations.  A zero-width region (``start == end``) is a
    *match point* in the paper's terminology.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise RegionError(f"region start {self.start} is negative")
        if self.end < self.start:
            raise RegionError(f"region end {self.end} precedes start {self.start}")

    # -- inclusion tests (the paper's ⊒ relation) --------------------------

    def includes(self, other: "Region") -> bool:
        """``self ⊒ other``: other's endpoints lie within self's."""
        return self.start <= other.start and other.end <= self.end

    def strictly_includes(self, other: "Region") -> bool:
        """``self ⊐ other``: inclusion between distinct extents."""
        return self.includes(other) and self != other

    def overlaps(self, other: "Region") -> bool:
        """True when the two spans share at least one position."""
        return self.start < other.end and other.start < self.end

    def __len__(self) -> int:
        return self.end - self.start

    def text(self, corpus_text: str) -> str:
        """The substring of ``corpus_text`` this region denotes."""
        return corpus_text[self.start : self.end]

    def __repr__(self) -> str:  # compact for test failure output
        return f"Region({self.start}, {self.end})"


class RegionSet:
    """An immutable sorted set of :class:`Region` values.

    All operators of the region algebra consume and produce region sets.  The
    internal representation is a sorted tuple (by ``(start, end)``) plus two
    parallel offset arrays used for binary searching during inclusion joins.
    """

    __slots__ = ("_regions", "_starts", "_ends", "_prefix_max_end")

    def __init__(self, regions: Iterable[Region] = ()) -> None:
        unique = sorted(set(regions))
        self._fill(
            tuple(unique),
            [region.start for region in unique],
            [region.end for region in unique],
        )

    def _fill(self, regions: tuple[Region, ...], starts: list[int], ends: list[int]) -> None:
        self._regions = regions
        self._starts = starts
        self._ends = ends
        # prefix_max_end[i] = max end among regions[0..i]; supports O(log n)
        # "is some region including r" tests (see included_in / outermost).
        self._prefix_max_end = list(accumulate(ends, max))

    # -- construction helpers ---------------------------------------------

    @classmethod
    def empty(cls) -> "RegionSet":
        return _EMPTY

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "RegionSet":
        """Build from ``(start, end)`` int pairs, in any order, duplicates allowed.

        Pairs are sorted and deduplicated as int tuples, which is far cheaper
        than ordering :class:`Region` dataclasses; each region is still made
        by the validating constructor.
        """
        unique = sorted({(start, end) for start, end in pairs})
        result = cls.__new__(cls)
        result._fill(
            tuple([Region(start, end) for start, end in unique]),
            [start for start, _ in unique],
            [end for _, end in unique],
        )
        return result

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> "RegionSet":
        """Build from ``(start, end)`` pairs (test convenience)."""
        return cls.from_pairs(pairs)

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self) -> Iterator[Region]:
        return iter(self._regions)

    def __contains__(self, region: object) -> bool:
        if not isinstance(region, Region):
            return False
        index = bisect_left(self._regions, region)
        return index < len(self._regions) and self._regions[index] == region

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RegionSet):
            return self._regions == other._regions
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._regions)

    def __repr__(self) -> str:
        inner = ", ".join(f"({r.start},{r.end})" for r in self._regions[:8])
        suffix = ", ..." if len(self._regions) > 8 else ""
        return f"RegionSet[{inner}{suffix}]"

    def __bool__(self) -> bool:
        return bool(self._regions)

    @property
    def regions(self) -> tuple[Region, ...]:
        return self._regions

    # -- search primitives used by the operators ---------------------------

    def first_index_with_start_at_least(self, position: int) -> int:
        """Index of the first region whose start is >= ``position``."""
        return bisect_left(self._starts, position)

    def first_index_with_start_greater(self, position: int) -> int:
        """Index of the first region whose start is > ``position``."""
        return bisect_right(self._starts, position)

    def region_at(self, index: int) -> Region:
        return self._regions[index]

    def any_including(self, target: Region) -> bool:
        """Is there a region in this set that includes ``target``?

        Uses the prefix-max-end array: candidates are exactly the regions
        with ``start <= target.start``; among those, one includes ``target``
        iff the maximum end is ``>= target.end``.
        """
        count = self.first_index_with_start_greater(target.start)
        if count == 0:
            return False
        return self._prefix_max_end[count - 1] >= target.end

    def any_strictly_including(self, target: Region) -> bool:
        """Is there a region with a *different extent* including ``target``?"""
        count = self.first_index_with_start_greater(target.start)
        if count == 0:
            return False
        if self._prefix_max_end[count - 1] < target.end:
            return False
        # The prefix max might be realised only by target itself; check for a
        # distinct witness by scanning the (rare) ambiguous window.
        for index in range(count - 1, -1, -1):
            if self._prefix_max_end[index] < target.end:
                break
            region = self._regions[index]
            if region.end >= target.end and region != target:
                return True
        return False

    def any_included_in(self, container: Region) -> bool:
        """Is there a region in this set included in ``container``?"""
        index = self.first_index_with_start_at_least(container.start)
        while index < len(self._regions) and self._starts[index] <= container.end:
            if self._ends[index] <= container.end:
                return True
            index += 1
        return False

    def iter_included_in(self, container: Region) -> Iterator[Region]:
        """Yield regions of this set included in ``container``."""
        index = self.first_index_with_start_at_least(container.start)
        while index < len(self._regions) and self._starts[index] <= container.end:
            if self._ends[index] <= container.end:
                yield self._regions[index]
            index += 1

    def any_strictly_between(self, outer: Region, inner: Region) -> bool:
        """Is some region ``t`` of this set *between* outer and inner?

        "Between" follows the paper's direct-inclusion semantics: ``outer ⊒ t``
        and ``t ⊒ inner`` with ``t``'s extent different from both.  Regions
        with the same extent as ``outer`` or ``inner`` do not break direct
        inclusion (coincident regions of different names are common, e.g. an
        ``Authors`` list with a single ``Name``).
        """
        index = self.first_index_with_start_at_least(outer.start)
        while index < len(self._regions) and self._starts[index] <= inner.start:
            candidate = self._regions[index]
            if (
                candidate.end <= outer.end
                and candidate.end >= inner.end
                and candidate != outer
                and candidate != inner
            ):
                return True
            index += 1
        return False


_EMPTY = RegionSet()


class Instance:
    """A mapping from region names to region sets (one indexed file state).

    The union of all region sets is the set of *indexed regions*; direct
    inclusion ``⊃d`` is defined relative to it ("there is no other *indexed*
    region between r and s").  The merged view is materialised lazily and
    cached, because every ``⊃d``/``⊂d`` evaluation consults it.
    """

    def __init__(self, mapping: Mapping[str, RegionSet | Iterable[Region]] | None = None) -> None:
        self._sets: dict[str, RegionSet] = {}
        self._all: RegionSet | None = None
        if mapping:
            for region_name, regions in mapping.items():
                self.assign(region_name, regions)

    def assign(self, region_name: str, regions: RegionSet | Iterable[Region]) -> None:
        """Set the instance of ``region_name`` (replacing any previous one)."""
        region_set = regions if isinstance(regions, RegionSet) else RegionSet(regions)
        self._sets[region_name] = region_set
        self._all = None

    def get(self, region_name: str) -> RegionSet:
        """The region set for ``region_name`` (empty if never assigned)."""
        return self._sets.get(region_name, _EMPTY)

    def __contains__(self, region_name: str) -> bool:
        return region_name in self._sets

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._sets))

    def items(self) -> Iterator[tuple[str, RegionSet]]:
        return iter(self._sets.items())

    def all_regions(self) -> RegionSet:
        """All indexed regions, merged (distinct extents)."""
        if self._all is None:
            merged: set[Region] = set()
            for region_set in self._sets.values():
                merged.update(region_set)
            self._all = RegionSet(merged)
        return self._all

    def total_region_count(self) -> int:
        """Total number of index entries (sum over names, with multiplicity)."""
        return sum(len(region_set) for region_set in self._sets.values())

    def restrict(self, names: Iterable[str]) -> "Instance":
        """A new instance keeping only the given region names.

        This models *partial indexing*: the same file, with fewer region
        indexes built.
        """
        keep = set(names)
        return Instance({n: s for n, s in self._sets.items() if n in keep})
