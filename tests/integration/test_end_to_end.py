"""End-to-end: engine == baseline across queries × index configurations.

This is the library's central correctness property: whatever the index
configuration (full, partial, scoped, minimal), the engine's answer equals
the standard-database pipeline's.
"""

import pytest

from repro.core.engine import FileQueryEngine
from repro.index.config import IndexConfig
from repro.workloads.bibtex import bibtex_schema, generate_bibtex

BIBTEX_QUERIES = [
    'SELECT r FROM Reference r WHERE r.Authors.Name.Last_Name = "Chang"',
    'SELECT r FROM Reference r WHERE r.Editors.Name.Last_Name = "Chang"',
    'SELECT r FROM Reference r WHERE r.*X.Last_Name = "Chang"',
    'SELECT r FROM Reference r WHERE r.X.Name.Last_Name = "Corliss"',
    'SELECT r FROM Reference r WHERE r.Year = "1982"',
    'SELECT r FROM Reference r WHERE r.Key = "Chan85f"',
    'SELECT r FROM Reference r WHERE r.Keywords.Keyword = "Taylor series"',
    'SELECT r FROM Reference r WHERE r.Year = "1982" OR r.Year = "1994"',
    'SELECT r FROM Reference r WHERE r.Publisher = "SIAM" '
    'AND r.Authors.Name.Last_Name = "Milo"',
    'SELECT r FROM Reference r WHERE NOT r.Publisher = "SIAM"',
    'SELECT r FROM Reference r WHERE NOT r.Authors.Name.Last_Name = "Chang"',
    'SELECT r FROM Reference r WHERE r.Year <> "1982"',
    "SELECT r FROM Reference r WHERE r.Editors.Name = r.Authors.Name",
    "SELECT r FROM Reference r "
    "WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name",
    "SELECT r.Key FROM Reference r",
    'SELECT r.Authors.Name.Last_Name FROM Reference r WHERE r.Year = "1982"',
    'SELECT r.Key, r.Year FROM Reference r WHERE r.Publisher = "ACM"',
    "SELECT r FROM Reference r",
    'SELECT r FROM Reference r WHERE r.Abstract = "Taylor"',
    'SELECT r FROM Reference r WHERE r.Referred.RefKey = "Chan85f"',
    # Multi-variable joins (Section 5.2's closing discussion).
    "SELECT r1 FROM Reference r1, Reference r2 "
    'WHERE r1.Referred.RefKey = r2.Key AND r2.Year = "1982"',
    "SELECT r1.Key, r2.Key FROM Reference r1, Reference r2 "
    "WHERE r1.Referred.RefKey = r2.Key "
    'AND r2.Authors.Name.Last_Name = "Chang"',
]

CONFIGS = {
    "full": IndexConfig.full(),
    "paper-partial": IndexConfig.partial({"Reference", "Key", "Last_Name"}),
    "authors-only": IndexConfig.partial({"Reference", "Authors", "Last_Name"}),
    "scoped": IndexConfig.partial({"Reference", "Key"}).with_scoped(
        "Last_Name", "Authors"
    ),
    "no-words": IndexConfig.full(word_index=False),
    "minimal": IndexConfig.partial({"Reference"}),
}


@pytest.fixture(scope="module")
def engines():
    text = generate_bibtex(entries=35, seed=11, self_edited_rate=0.25)
    schema = bibtex_schema()
    return {name: FileQueryEngine(schema, text, config) for name, config in CONFIGS.items()}


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("query", BIBTEX_QUERIES)
def test_engine_matches_baseline(engines, config_name, query):
    engine = engines[config_name]
    result = engine.query(query)
    baseline = engine.baseline_query(query)
    assert result.canonical_rows() == baseline.canonical_rows(), (
        f"[{config_name}] {query}\nplan: {engine.explain(query)}"
    )


@pytest.mark.parametrize("query", BIBTEX_QUERIES)
def test_exact_plans_really_are_exact(engines, query):
    """When a plan claims exactness, the candidate regions equal the answer
    regions (no filtering happened)."""
    for config_name, engine in engines.items():
        result = engine.query(query)
        if result.plan.exact and result.stats.strategy in (
            "index-project",
            "index-exact",
            "index-candidates",
        ):
            assert result.stats.objects_filtered_out == 0, (
                f"[{config_name}] {query} claimed exact but filtered"
            )


def test_candidates_are_supersets(engines):
    """Section 6: the candidate set is a superset of the answer regions."""
    for config_name, engine in engines.items():
        for query in BIBTEX_QUERIES:
            result = engine.query(query)
            if result.stats.strategy in ("index-project", "index-exact", "index-candidates"):
                assert result.stats.candidate_regions >= len(result.regions), (
                    f"[{config_name}] {query}"
                )
