"""Proposition 3.3: trivially-empty expressions."""

from repro.algebra.ast import parse_expression
from repro.core.triviality import is_trivially_empty
from repro.rig.graph import RegionInclusionGraph


class TestPaperExamples:
    def test_e3_is_trivial(self, paper_rig):
        # Section 3.2: "Consider the expression e3 = Reference ⊃ Title ⊃
        # Last_Name.  The result of e3 is empty for all the instances
        # satisfying the above inclusion graph."
        expression = parse_expression("Reference > Title > Last_Name")
        assert is_trivially_empty(expression, paper_rig)

    def test_valid_chain_not_trivial(self, paper_rig):
        expression = parse_expression(
            "Reference >d Authors >d Name >d sigma[Chang](Last_Name)"
        )
        assert not is_trivially_empty(expression, paper_rig)

    def test_direct_without_edge(self, paper_rig):
        # Proposition 3.3(i): Reference ⊃d Last_Name, no edge.
        expression = parse_expression("Reference >d Last_Name")
        assert is_trivially_empty(expression, paper_rig)
        # But simple inclusion has a path, so it is not trivial.
        assert not is_trivially_empty(
            parse_expression("Reference > Last_Name"), paper_rig
        )

    def test_no_path(self, paper_rig):
        # Proposition 3.3(ii): no path from Key to Authors.
        assert is_trivially_empty(parse_expression("Key > Authors"), paper_rig)

    def test_backward_family(self, paper_rig):
        assert is_trivially_empty(
            parse_expression("Last_Name <d Reference"), paper_rig
        )
        assert not is_trivially_empty(
            parse_expression("Last_Name < Reference"), paper_rig
        )


class TestCoincidenceRefinement:
    def test_coincident_cluster_not_trivial(self):
        # Editors -> Name coincident: a Name can share an Editors extent, so
        # Reference ⊃d Name is realisable despite the missing edge.
        graph = RegionInclusionGraph.from_adjacency(
            {"Reference": ["Editors"], "Editors": ["Name"]}
        )
        graph.mark_coincident("Editors", "Name")
        assert not is_trivially_empty(
            parse_expression("Reference >d Name"), graph
        )

    def test_without_coincidence_it_is_trivial(self):
        graph = RegionInclusionGraph.from_adjacency(
            {"Reference": ["Editors"], "Editors": ["Name"]}
        )
        assert is_trivially_empty(parse_expression("Reference >d Name"), graph)

    def test_equal_extents_within_cluster(self):
        graph = RegionInclusionGraph.from_adjacency({"Authors": ["Name"]})
        graph.mark_coincident("Authors", "Name")
        # Name ⊃ Authors: reversed, but coincident extents make it possible.
        assert not is_trivially_empty(parse_expression("Name > Authors"), graph)


class TestSetOperations:
    def test_union_needs_both(self, paper_rig):
        trivial = "Reference > Title > Last_Name"
        valid = "Reference > Authors"
        assert not is_trivially_empty(
            parse_expression(f"({trivial}) | ({valid})"), paper_rig
        )
        assert is_trivially_empty(
            parse_expression(f"({trivial}) | ({trivial})"), paper_rig
        )

    def test_intersect_needs_one(self, paper_rig):
        trivial = "Reference > Title > Last_Name"
        valid = "Reference > Authors"
        assert is_trivially_empty(
            parse_expression(f"({trivial}) & ({valid})"), paper_rig
        )

    def test_difference_left_only(self, paper_rig):
        trivial = "Reference > Title > Last_Name"
        valid = "Reference > Authors"
        assert is_trivially_empty(
            parse_expression(f"({trivial}) - ({valid})"), paper_rig
        )
        assert not is_trivially_empty(
            parse_expression(f"({valid}) - ({trivial})"), paper_rig
        )

    def test_selection_wrapper(self, paper_rig):
        assert is_trivially_empty(
            parse_expression("sigma[w](Reference > Title > Last_Name)"), paper_rig
        )
