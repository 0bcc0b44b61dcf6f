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
from itertools import accumulate, chain, islice
from operator import le, lt
from typing import Iterable, Iterator, Mapping, Sequence

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
    internal representation is two parallel offset arrays, sorted by
    ``(start, end)`` and used for binary searching during inclusion joins,
    plus the tuple of :class:`Region` objects they denote.  A set built from
    int pairs or arrays creates that tuple on first use and then keeps it;
    two threads creating it at once store equal tuples, so no lock is
    needed.
    """

    __slots__ = ("_regions", "_starts", "_ends", "_prefix_max_end")

    def __init__(self, regions: Iterable[Region] = ()) -> None:
        unique = sorted(set(regions))
        self._fill(
            [region.start for region in unique],
            [region.end for region in unique],
            tuple(unique),
        )

    def _fill(
        self, starts: list[int], ends: list[int], regions: tuple[Region, ...] | None = None
    ) -> None:
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
        than ordering :class:`Region` dataclasses.  The spans are checked as
        :class:`Region` would check them; the regions themselves are made on
        first use.
        """
        unique = sorted({(start, end) for start, end in pairs})
        starts, ends = (list(column) for column in zip(*unique)) if unique else ([], [])
        return cls._checked(starts, ends)

    @classmethod
    def from_arrays(cls, starts: Sequence[int], ends: Sequence[int]) -> "RegionSet":
        """Build from parallel ``starts``/``ends`` arrays already sorted by
        ``(start, end)`` without duplicates.

        Raises :class:`RegionError` when the arrays differ in length, are
        not strictly sorted, or hold a negative or inverted span.  Every
        check is one pass over the arrays, not a Python loop per span.
        """
        starts, ends = list(starts), list(ends)
        if len(starts) != len(ends):
            raise RegionError(f"{len(starts)} starts but {len(ends)} ends")
        pairs = zip(starts, ends)
        following = zip(islice(starts, 1, None), islice(ends, 1, None))
        if not all(map(lt, pairs, following)):
            raise RegionError("spans are not sorted and unique")
        return cls._checked(starts, ends)

    @classmethod
    def _checked(cls, starts: list[int], ends: list[int]) -> "RegionSet":
        """A set over sorted, unique arrays, once every span is valid."""
        if starts and starts[0] < 0:
            raise RegionError(f"region start {starts[0]} is negative")
        if not all(map(le, starts, ends)):
            start, end = next(pair for pair in zip(starts, ends) if pair[1] < pair[0])
            raise RegionError(f"region end {end} precedes start {start}")
        result = cls.__new__(cls)
        result._fill(starts, ends)
        return result

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> "RegionSet":
        """Build from ``(start, end)`` pairs (test convenience)."""
        return cls.from_pairs(pairs)

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[Region]:
        return iter(self.regions)

    def __contains__(self, region: object) -> bool:
        if not isinstance(region, Region):
            return False
        low = bisect_left(self._starts, region.start)
        high = bisect_right(self._starts, region.start, low)
        index = bisect_left(self._ends, region.end, low, high)
        return index < high and self._ends[index] == region.end

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RegionSet):
            return self._starts == other._starts and self._ends == other._ends
        return NotImplemented

    def __hash__(self) -> int:
        return hash((tuple(self._starts), tuple(self._ends)))

    def __repr__(self) -> str:
        inner = ", ".join(f"({s},{e})" for s, e in zip(self._starts[:8], self._ends[:8]))
        suffix = ", ..." if len(self._starts) > 8 else ""
        return f"RegionSet[{inner}{suffix}]"

    def __bool__(self) -> bool:
        return bool(self._starts)

    @property
    def regions(self) -> tuple[Region, ...]:
        regions = self._regions
        if regions is None:
            regions = self._regions = tuple(map(Region, self._starts, self._ends))
        return regions

    def pairs(self) -> Iterator[tuple[int, int]]:
        """The ``(start, end)`` int pairs in order, making no :class:`Region`."""
        return zip(self._starts, self._ends)

    # -- search primitives used by the operators ---------------------------

    def first_index_with_start_at_least(self, position: int) -> int:
        """Index of the first region whose start is >= ``position``."""
        return bisect_left(self._starts, position)

    def first_index_with_start_greater(self, position: int) -> int:
        """Index of the first region whose start is > ``position``."""
        return bisect_right(self._starts, position)

    def region_at(self, index: int) -> Region:
        return self.regions[index]

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
            end = self._ends[index]
            if end >= target.end and (self._starts[index], end) != (target.start, target.end):
                return True
        return False

    def any_included_in(self, container: Region) -> bool:
        """Is there a region in this set included in ``container``?"""
        index = self.first_index_with_start_at_least(container.start)
        while index < len(self._starts) and self._starts[index] <= container.end:
            if self._ends[index] <= container.end:
                return True
            index += 1
        return False

    def iter_included_in(self, container: Region) -> Iterator[Region]:
        """Yield regions of this set included in ``container``."""
        regions = self.regions
        index = self.first_index_with_start_at_least(container.start)
        while index < len(regions) and self._starts[index] <= container.end:
            if self._ends[index] <= container.end:
                yield regions[index]
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
        while index < len(self._starts) and self._starts[index] <= inner.start:
            start, end = self._starts[index], self._ends[index]
            if (
                inner.end <= end <= outer.end
                and (start, end) != (outer.start, outer.end)
                and (start, end) != (inner.start, inner.end)
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
            self._all = RegionSet.from_pairs(
                chain.from_iterable(
                    region_set.pairs() for region_set in self._sets.values()
                )
            )
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
