"""Region inclusion graphs (Section 3.2, Definitions 3.1 and 3.2).

A RIG is the schema of a region instance: nodes are region names and an edge
``(Ri, Rj)`` states that an ``Ri`` region may *directly* include an ``Rj``
region.  Expression equivalence — and therefore the whole optimization of
Section 3 — is defined with respect to the instances satisfying a RIG.

This package provides the graph model (:mod:`repro.rig.graph`), the path
analyses the optimizer's preconditions need (:mod:`repro.rig.paths`), and the
automatic derivation of RIGs from structuring-schema grammars for both full
and partial indexing (:mod:`repro.rig.derive`, Sections 4.2 and 6.1).
"""

from repro.rig.graph import RegionInclusionGraph
from repro.rig.paths import (
    reach_plus,
    co_reach_plus,
    has_intermediate,
    every_path_starts_with_edge,
    every_path_ends_with_edge,
    every_path_through,
    coincident_related,
    simple_paths,
)
from repro.rig.derive import derive_full_rig, derive_partial_rig

__all__ = [
    "RegionInclusionGraph",
    "reach_plus",
    "co_reach_plus",
    "has_intermediate",
    "every_path_starts_with_edge",
    "every_path_ends_with_edge",
    "every_path_through",
    "coincident_related",
    "simple_paths",
    "derive_full_rig",
    "derive_partial_rig",
]
