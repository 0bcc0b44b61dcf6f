"""Path analyses: the optimizer's graph-side preconditions."""

from repro.rig.graph import RegionInclusionGraph
from repro.rig.paths import (
    co_reach_plus,
    coincident_related,
    every_path_ends_with_edge,
    every_path_starts_with_edge,
    every_path_through,
    has_intermediate,
    reach_plus,
    simple_paths,
)


def diamond() -> RegionInclusionGraph:
    #    A -> B -> D,  A -> C -> D,  A -> D
    return RegionInclusionGraph.from_adjacency(
        {"A": ["B", "C", "D"], "B": ["D"], "C": ["D"]}
    )


def paper_graph(paper_rig) -> RegionInclusionGraph:
    return paper_rig


class TestReachability:
    def test_reach_plus(self):
        graph = diamond()
        assert reach_plus(graph, "A") == {"B", "C", "D"}
        assert reach_plus(graph, "D") == frozenset()

    def test_co_reach_plus(self):
        graph = diamond()
        assert co_reach_plus(graph, "D") == {"A", "B", "C"}
        assert co_reach_plus(graph, "A") == frozenset()

    def test_reach_plus_with_cycle(self):
        graph = RegionInclusionGraph.from_adjacency({"S": ["S", "P"]})
        assert reach_plus(graph, "S") == {"S", "P"}


class TestHasIntermediate:
    def test_diamond_has_intermediates(self):
        assert has_intermediate(diamond(), "A", "D")

    def test_single_edge_has_none(self):
        graph = RegionInclusionGraph.from_adjacency({"A": ["B"]})
        assert not has_intermediate(graph, "A", "B")

    def test_paper_reference_authors(self, paper_rig):
        # Nothing can sit between Reference and Authors.
        assert not has_intermediate(paper_rig, "Reference", "Authors")
        # Name can sit between Reference and Last_Name.
        assert has_intermediate(paper_rig, "Reference", "Last_Name")

    def test_cycle_through_target_is_intermediate(self):
        # Section -> Section self-nesting: a Section can sit between.
        graph = RegionInclusionGraph.from_adjacency({"Doc": ["Sec"], "Sec": ["Sec"]})
        assert has_intermediate(graph, "Doc", "Sec")


class TestEveryPathStartsWithEdge:
    def test_requires_edge(self):
        graph = RegionInclusionGraph.from_adjacency({"A": ["B"], "B": ["C"]})
        assert not every_path_starts_with_edge(graph, "A", "C")

    def test_single_edge(self):
        graph = RegionInclusionGraph.from_adjacency({"A": ["B"]})
        assert every_path_starts_with_edge(graph, "A", "B")

    def test_bypass_path_fails(self):
        assert not every_path_starts_with_edge(diamond(), "A", "D")

    def test_cycle_after_edge_still_starts_with_it(self):
        # Doc -> Sec, Sec -> Sec: every walk Doc ->* Sec starts with the edge.
        graph = RegionInclusionGraph.from_adjacency({"Doc": ["Sec"], "Sec": ["Sec"]})
        assert every_path_starts_with_edge(graph, "Doc", "Sec")

    def test_self_loop_on_source_fails(self):
        graph = RegionInclusionGraph.from_adjacency({"A": ["A", "B"]})
        assert not every_path_starts_with_edge(graph, "A", "B")


class TestEveryPathEndsWithEdge:
    def test_single_edge(self):
        graph = RegionInclusionGraph.from_adjacency({"A": ["B"]})
        assert every_path_ends_with_edge(graph, "A", "B")

    def test_other_predecessor_reachable_fails(self):
        assert not every_path_ends_with_edge(diamond(), "A", "D")

    def test_unreachable_predecessor_is_fine(self):
        graph = RegionInclusionGraph.from_adjacency({"A": ["B"], "X": ["B"]})
        assert every_path_ends_with_edge(graph, "A", "B")


class TestEveryPathThrough:
    def test_paper_shortening_condition(self, paper_rig):
        # Every path Authors -> Last_Name goes through Name.
        assert every_path_through(paper_rig, "Authors", "Last_Name", "Name")
        # Not every path Reference -> Last_Name goes through Authors
        # (Editors is an alternative).
        assert not every_path_through(paper_rig, "Reference", "Last_Name", "Authors")
        # But every path Reference -> Last_Name goes through Name.
        assert every_path_through(paper_rig, "Reference", "Last_Name", "Name")

    def test_no_walk_at_all(self):
        graph = RegionInclusionGraph.from_adjacency({"A": ["B"]})
        assert not every_path_through(graph, "B", "A", "X")

    def test_endpoint_via(self):
        graph = RegionInclusionGraph.from_adjacency({"A": ["B"], "B": ["C"]})
        assert every_path_through(graph, "A", "C", "A")
        assert every_path_through(graph, "A", "C", "C")


class TestCoincidence:
    def test_unrelated_by_default(self, paper_rig):
        assert not coincident_related(paper_rig, "Authors", "Name")

    def test_chain_in_either_direction(self):
        graph = RegionInclusionGraph.from_adjacency({"A": ["B"], "B": ["C"]})
        graph.mark_coincident("A", "B")
        graph.mark_coincident("B", "C")
        assert coincident_related(graph, "A", "C")
        assert coincident_related(graph, "C", "A")

    def test_same_name(self, paper_rig):
        assert coincident_related(paper_rig, "Name", "Name")

    def test_broken_chain(self):
        graph = RegionInclusionGraph.from_adjacency({"A": ["B"], "B": ["C"]})
        graph.mark_coincident("A", "B")
        assert not coincident_related(graph, "A", "C")


class TestEnumeration:
    def test_simple_paths_diamond(self):
        paths = sorted(simple_paths(diamond(), "A", "D"))
        assert paths == [("A", "B", "D"), ("A", "C", "D"), ("A", "D")]

    def test_simple_paths_none(self):
        graph = RegionInclusionGraph.from_adjacency({"A": ["B"]})
        assert list(simple_paths(graph, "B", "A")) == []

    def test_simple_paths_same_node(self):
        graph = RegionInclusionGraph.from_adjacency({"A": ["B"]})
        assert list(simple_paths(graph, "A", "A")) == [("A",)]
