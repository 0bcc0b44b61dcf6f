"""The cold cardinality estimate EXPLAIN ANALYZE reports per plan node."""

from __future__ import annotations

import pytest

from repro.algebra.ast import parse_expression
from repro.core.cost import INCLUSION_SELECTIVITY, SELECT_SELECTIVITY, estimate_rows


class TestEstimates:
    def test_name_seeds_from_index_counts(self, bibtex_engine):
        instance = bibtex_engine.index.instance
        expected = len(instance.get("Reference"))
        assert expected > 0
        assert estimate_rows(parse_expression("Reference"), instance) == pytest.approx(
            float(expected)
        )

    def test_select_and_inclusion_priors(self, bibtex_engine):
        instance = bibtex_engine.index.instance
        names = float(len(instance.get("Last_Name")))
        references = float(len(instance.get("Reference")))
        assert estimate_rows(
            parse_expression("sigma[chang](Last_Name)"), instance
        ) == pytest.approx(names * SELECT_SELECTIVITY)
        for op in (">", ">d"):
            assert estimate_rows(
                parse_expression(f"Reference {op} sigma[chang](Last_Name)"), instance
            ) == pytest.approx(references * INCLUSION_SELECTIVITY)
