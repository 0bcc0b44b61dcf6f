"""The paper's layered program for direct inclusion (Section 3.1).

The paper shows that ``⊃d`` "can be computed using the other algebra
operators, by an algorithm that additionally uses a while construct", and
presents it to "give intuition about the cost of this operation, and in
particular to show that it is significantly more expensive than the simple
inclusion operation ⊃".

This module implements that layered program faithfully, built only from
``ω``, ``⊃``, ``⊂``, ``−`` and ``∪``:

    R_layer  := ω(R);  R_rest := R − R_layer;  R_result := ∅
    while (R_layer ⊃ S) ≠ ∅ do
        shielded := ∪_{T ∈ Z−{S}} ( S ⊂ (T strictly inside R_layer) )
        R_result := R_result ∪ (R_layer ⊃ (S − shielded))
        R_layer  := ω(R_rest);  R_rest := R_rest − R_layer
    end
    return R_result

The program is exact on *laminar* instances (no two indexed regions
partially overlap) — which is what parse trees produce, the paper's
application domain.  The evaluator's pairwise ``⊃d`` in
:mod:`repro.algebra.ops` is the reference semantics for arbitrary instances;
``tests/algebra/test_direct.py`` checks that the two agree when laminar.
"""

from __future__ import annotations

from repro.algebra import ops
from repro.algebra.counters import OperationCounters
from repro.algebra.region import Instance, Region, RegionSet


def _strictly_included(inner: RegionSet, outer: RegionSet, counters: OperationCounters | None) -> RegionSet:
    """Regions of ``inner`` strictly included (distinct extent) in some
    region of ``outer`` — the "T strictly inside the layer" step."""
    kept: list[Region] = []
    for region in inner:
        if outer.any_strictly_including(region):
            kept.append(region)
    result = RegionSet(kept)
    if counters is not None:
        counters.record("⊂", comparisons=len(inner), produced=len(result))
    return result


def _shielded(
    targets: RegionSet,
    layer: RegionSet,
    instance: Instance,
    counters: OperationCounters | None,
) -> RegionSet:
    """The S regions hidden from the current layer by an intervening indexed
    region: some indexed ``t`` strictly inside a layer region strictly
    includes them."""
    shielded = RegionSet.empty()
    for _, indexed_set in instance.items():
        blockers = _strictly_included(indexed_set, layer, counters)
        if not blockers:
            continue
        covered: list[Region] = []
        for target in targets:
            if any(blocker != target for blocker in _including_iter(blockers, target)):
                covered.append(target)
        if counters is not None:
            counters.record("⊂", comparisons=len(targets), produced=len(covered))
        shielded = ops.union(shielded, RegionSet(covered), counters)
    return shielded


def _including_iter(candidates: RegionSet, target: Region):
    count = candidates.first_index_with_start_greater(target.start)
    for index in range(count):
        region = candidates.region_at(index)
        if region.end >= target.end:
            yield region


def layered_directly_including(
    left: RegionSet,
    right: RegionSet,
    instance: Instance,
    counters: OperationCounters | None = None,
) -> RegionSet:
    """Compute ``left ⊃d right`` with the paper's layered while-loop.

    Iterates over nested layers of ``left`` (outermost first) and, for each
    layer, selects the layer regions that include a ``right`` region not
    shielded by an intervening indexed region.
    """
    layer = ops.outermost(left, counters)
    rest = ops.difference(left, layer, counters)
    result = RegionSet.empty()
    while layer:
        if ops.including(layer, right, counters):
            visible = ops.difference(right, _shielded(right, layer, instance, counters), counters)
            result = ops.union(result, ops.including(layer, visible, counters), counters)
        if not rest:
            break
        layer = ops.outermost(rest, counters)
        rest = ops.difference(rest, layer, counters)
    return result


def is_laminar(instance: Instance) -> bool:
    """True when no two indexed regions partially overlap.

    Laminar families are exactly the instances produced by parse trees; the
    layered program above is exact on them.
    """
    regions = list(instance.all_regions())
    # Sweep in (start, -end) order keeping a stack of open regions.
    regions.sort(key=lambda region: (region.start, -region.end))
    stack: list[Region] = []
    for region in regions:
        while stack and stack[-1].end <= region.start:
            stack.pop()
        if stack and not stack[-1].includes(region):
            return False
        stack.append(region)
    return True
