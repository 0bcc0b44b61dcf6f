"""Region and RegionSet basics."""

import pytest
from hypothesis import given, strategies as st

from repro.algebra.region import Instance, Region, RegionSet
from repro.errors import RegionError

spans = st.tuples(st.integers(0, 50), st.integers(0, 50)).map(
    lambda pair: Region(min(pair), max(pair))
)


class TestRegion:
    def test_invalid_end_before_start(self):
        with pytest.raises(RegionError):
            Region(5, 3)

    def test_negative_start(self):
        with pytest.raises(RegionError):
            Region(-1, 3)

    def test_includes_is_nonstrict(self):
        assert Region(2, 8).includes(Region(2, 8))
        assert Region(2, 8).includes(Region(3, 7))
        assert not Region(2, 8).includes(Region(1, 7))

    def test_strictly_includes(self):
        assert Region(2, 8).strictly_includes(Region(3, 7))
        assert not Region(2, 8).strictly_includes(Region(2, 8))

    def test_overlaps(self):
        assert Region(0, 5).overlaps(Region(4, 9))
        assert not Region(0, 5).overlaps(Region(5, 9))

    def test_len_and_text(self):
        region = Region(2, 6)
        assert len(region) == 4
        assert region.text("abcdefgh") == "cdef"

    def test_ordering_by_start_then_end(self):
        assert sorted([Region(3, 4), Region(1, 9), Region(1, 2)]) == [
            Region(1, 2),
            Region(1, 9),
            Region(3, 4),
        ]

    def test_match_point_zero_width(self):
        point = Region(5, 5)
        assert len(point) == 0
        assert Region(0, 9).includes(point)


class TestRegionSet:
    def test_deduplicates_and_sorts(self):
        regions = RegionSet([Region(5, 6), Region(1, 2), Region(5, 6)])
        assert list(regions) == [Region(1, 2), Region(5, 6)]
        assert len(regions) == 2

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=20), st.data())
    def test_from_pairs_matches_region_constructor(self, drawn, data):
        pairs = [(min(pair), max(pair)) for pair in drawn]
        pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=5)) if pairs else []
        pairs = data.draw(st.permutations(pairs))
        built = RegionSet.from_pairs(pairs)
        reference = RegionSet(Region(start, end) for start, end in pairs)
        assert built == reference
        assert built.regions == reference.regions
        for attribute in ("_starts", "_ends", "_prefix_max_end"):
            assert getattr(built, attribute) == getattr(reference, attribute)

    def test_from_pairs_validates_each_region(self):
        with pytest.raises(RegionError):
            RegionSet.from_pairs([(1, 2), (5, 3)])
        with pytest.raises(RegionError):
            RegionSet.from_pairs([(-1, 2)])

    @given(st.lists(spans, max_size=20), st.lists(spans, max_size=6))
    def test_lazy_sets_agree_with_eager_ones(self, drawn, probes):
        eager = RegionSet(drawn)
        pairs = [(region.start, region.end) for region in eager]
        lazy_sets = [
            RegionSet.from_pairs(reversed(pairs)),
            RegionSet.from_arrays([start for start, _ in pairs], [end for _, end in pairs]),
        ]
        for lazy in lazy_sets:
            assert len(lazy) == len(eager)
            assert bool(lazy) == bool(eager)
            assert lazy == eager and eager == lazy
            assert hash(lazy) == hash(eager)
            for probe in [*drawn, *probes]:
                assert (probe in lazy) == (probe in eager)
            assert list(lazy.pairs()) == pairs
            # None of the above needed a Region object.
            assert lazy._regions is None
            assert list(lazy) == list(eager)
            assert [lazy.region_at(i) for i in range(len(lazy))] == list(eager.regions)
            assert lazy._regions is lazy.regions  # made once, then kept

    @pytest.mark.parametrize(
        "starts,ends",
        [
            ([0, 1], [2]),  # lengths differ
            ([3, 1], [4, 2]),  # unsorted
            ([1, 1], [2, 2]),  # duplicate
            ([1, 1], [3, 2]),  # ends unsorted within one start
            ([-1], [2]),  # negative
            ([4], [2]),  # inverted
        ],
    )
    def test_from_arrays_rejects_bad_arrays(self, starts, ends):
        with pytest.raises(RegionError):
            RegionSet.from_arrays(starts, ends)

    def test_threads_materializing_at_once_agree(self):
        import threading

        lazy = RegionSet.from_pairs((i, i + 3) for i in range(5000))
        seen = []
        threads = [
            threading.Thread(target=lambda: seen.append(lazy.regions)) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(regions == seen[0] for regions in seen)
        assert list(lazy) == [Region(i, i + 3) for i in range(5000)]

    def test_contains(self):
        regions = RegionSet.of((1, 2), (5, 6))
        assert Region(1, 2) in regions
        assert Region(1, 3) not in regions
        assert "nope" not in regions

    def test_equality_and_hash(self):
        assert RegionSet.of((1, 2)) == RegionSet([Region(1, 2)])
        assert hash(RegionSet.of((1, 2))) == hash(RegionSet.of((1, 2)))

    def test_empty_is_falsy(self):
        assert not RegionSet.empty()
        assert RegionSet.of((0, 1))

    def test_any_including(self):
        regions = RegionSet.of((0, 10), (20, 30))
        assert regions.any_including(Region(2, 8))
        assert regions.any_including(Region(0, 10))
        assert not regions.any_including(Region(8, 22))

    def test_any_strictly_including_excludes_same_extent(self):
        regions = RegionSet.of((0, 10))
        assert not regions.any_strictly_including(Region(0, 10))
        assert regions.any_strictly_including(Region(1, 9))

    def test_any_included_in(self):
        regions = RegionSet.of((2, 4), (12, 14))
        assert regions.any_included_in(Region(0, 5))
        assert not regions.any_included_in(Region(5, 11))

    def test_iter_included_in(self):
        regions = RegionSet.of((2, 4), (3, 5), (12, 14))
        inside = list(regions.iter_included_in(Region(0, 6)))
        assert inside == [Region(2, 4), Region(3, 5)]

    def test_any_strictly_between(self):
        regions = RegionSet.of((0, 10), (2, 8), (3, 5))
        assert regions.any_strictly_between(Region(0, 10), Region(3, 5))
        assert not regions.any_strictly_between(Region(2, 8), Region(3, 5))

    def test_strictly_between_ignores_endpoint_extents(self):
        regions = RegionSet.of((0, 10), (3, 5))
        assert not regions.any_strictly_between(Region(0, 10), Region(3, 5))

    @given(st.lists(spans, max_size=15), spans)
    def test_any_including_matches_bruteforce(self, regions, target):
        region_set = RegionSet(regions)
        expected = any(r.includes(target) for r in region_set)
        assert region_set.any_including(target) == expected

    @given(st.lists(spans, max_size=15), spans)
    def test_any_strictly_including_matches_bruteforce(self, regions, target):
        region_set = RegionSet(regions)
        expected = any(r != target and r.includes(target) for r in region_set)
        assert region_set.any_strictly_including(target) == expected

    @given(st.lists(spans, max_size=15), spans)
    def test_any_included_in_matches_bruteforce(self, regions, container):
        region_set = RegionSet(regions)
        expected = any(container.includes(r) for r in region_set)
        assert region_set.any_included_in(container) == expected

    @given(st.lists(spans, max_size=12), spans, spans)
    def test_any_strictly_between_matches_bruteforce(self, regions, outer, inner):
        region_set = RegionSet(regions)
        expected = any(
            outer.includes(t) and t.includes(inner) and t != outer and t != inner
            for t in region_set
        )
        assert region_set.any_strictly_between(outer, inner) == expected


class TestInstance:
    def test_assign_and_get(self):
        instance = Instance({"A": RegionSet.of((0, 5))})
        assert instance.get("A") == RegionSet.of((0, 5))
        assert instance.get("missing") == RegionSet.empty()
        assert "A" in instance
        assert "missing" not in instance

    def test_all_regions_merges_distinct_extents(self):
        instance = Instance(
            {"A": RegionSet.of((0, 5), (6, 9)), "B": RegionSet.of((0, 5), (2, 3))}
        )
        assert list(instance.all_regions()) == [
            Region(0, 5),
            Region(2, 3),
            Region(6, 9),
        ]

    def test_all_regions_cache_invalidated_on_assign(self):
        instance = Instance({"A": RegionSet.of((0, 5))})
        assert len(instance.all_regions()) == 1
        instance.assign("B", RegionSet.of((7, 8)))
        assert len(instance.all_regions()) == 2

    def test_total_region_count_counts_multiplicity(self):
        instance = Instance(
            {"A": RegionSet.of((0, 5)), "B": RegionSet.of((0, 5))}
        )
        assert instance.total_region_count() == 2

    def test_restrict(self):
        instance = Instance(
            {"A": RegionSet.of((0, 5)), "B": RegionSet.of((7, 8))}
        )
        restricted = instance.restrict(["A"])
        assert restricted.names == ("A",)
        assert restricted.get("B") == RegionSet.empty()

    def test_accepts_iterables(self):
        instance = Instance({"A": [Region(0, 2)]})
        assert instance.get("A") == RegionSet.of((0, 2))
