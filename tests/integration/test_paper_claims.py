"""The paper's performance claims, as one table of work-counter ratios.

The paper's evaluation is qualitative (Section 8: "significant performance
improvements"; Sections 3.1, 5.2, 5.3, 6 and 7 each add one claim).  Each
row of ``CLAIMS`` measures one claim twice — the side the paper says is
cheaper and the side it beats — in deterministic work counters, never wall
time: region comparisons, bytes parsed, candidate regions, join bytes
compared, index entries and values visited.  The test asserts
``cheap <= max_share * costly``, so a row fails if its sides are swapped.

Every measurement also checks the answer.  The two sides return the same
regions or rows, or, where they ask different questions (E5, E9), each
side's answer equals the full scan's.

EXPERIMENTS.md records the measured values beside each paper quote.  E6
(a closure is one inclusion) is asserted by
``tests/core/test_pathexpr.py::TestClosure::test_closure_is_single_inclusion``.
Served wall-clock timing, including the cache (E11) and live ingest (E13),
is ``python -m bench``'s job.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import pytest

from repro.cache import CacheConfig
from repro.core.advisor import IndexAdvisor
from repro.core.engine import FileQueryEngine
from repro.db.evaluator import NaiveEvaluator
from repro.db.parser import parse_query
from repro.db.values import canonical
from repro.index.config import IndexConfig
from repro.workloads.bibtex import (
    CHANG_ANY_QUERY,
    CHANG_AUTHOR_QUERY,
    SELF_EDITED_QUERY,
    bibtex_schema,
    generate_bibtex,
)
from repro.workloads.sgml import generate_sgml, sgml_schema

ENTRIES = 200
# Caches off: a claim is about the paper's algorithms, not memoization.
NO_CACHE = CacheConfig.disabled()


@cache
def _bibtex(config: IndexConfig | None = None, entries: int = ENTRIES):
    text = generate_bibtex(entries=entries, seed=17, self_edited_rate=0.1)
    return FileQueryEngine(bibtex_schema(), text, config, cache_config=NO_CACHE)


@cache
def _database():
    return _bibtex().load_baseline_database()


def e1_optimized_expression() -> tuple[int, int]:
    """Theorem 3.6's most efficient version against the naive translation."""
    index = _bibtex().index
    naive = index.run("Reference >d Authors >d Name >d sigma[Chang](Last_Name)")
    optimized = index.run("Reference > Authors > sigma[Chang](Last_Name)")
    assert optimized.result == naive.result
    return optimized.counters.comparisons, naive.counters.comparisons


def e2_index_vs_scan() -> tuple[int, int]:
    """Bytes parsed: the index parses answers, the database the corpus."""
    engine = _bibtex()
    indexed = engine.query(CHANG_AUTHOR_QUERY)
    scanned = engine.baseline_query(CHANG_AUTHOR_QUERY)
    assert indexed.stats.strategy == "index-exact"
    assert indexed.canonical_rows() == scanned.canonical_rows()
    return indexed.stats.bytes_parsed, scanned.stats.bytes_parsed


def e3_direct_inclusion() -> tuple[int, int]:
    """The same operands under ``⊃`` and ``⊃d``; a section's own title is
    direct, so both keep every section."""
    text = generate_sgml(documents=40, depth=5, branching=2, seed=23)
    index = FileQueryEngine(sgml_schema(), text, cache_config=NO_CACHE).index
    direct = index.run("Section >d Title")
    simple = index.run("Section > Title")
    assert simple.result == direct.result
    return simple.counters.comparisons, direct.counters.comparisons


def e4_partial_index() -> tuple[int, int]:
    """Index entries of Ip against the full index; its candidates are a
    superset of the answer, filtered to exactly the full index's rows."""
    partial = _bibtex(IndexConfig.partial({"Reference", "Key", "Last_Name"}))
    full = _bibtex()
    result = partial.query(CHANG_AUTHOR_QUERY)
    assert result.stats.strategy == "index-candidates"
    assert result.stats.candidate_regions > len(result.rows)
    assert result.canonical_rows() == full.query(CHANG_AUTHOR_QUERY).canonical_rows()
    return (
        partial.statistics().total_region_entries,
        full.statistics().total_region_entries,
    )


def _variable_penalty(query: str) -> tuple[int, int]:
    """One path query's work on the index (comparisons) and in the
    database over a loaded image (values visited), answers checked equal."""
    engine = _bibtex()
    indexed = engine.query(query)
    evaluator = NaiveEvaluator(_database())
    rows = evaluator.evaluate(parse_query(query))
    assert {tuple(canonical(value) for value in row) for row in rows} == (
        indexed.canonical_rows()
    )
    return indexed.stats.algebra.comparisons, evaluator.report.values_visited


def e5_star_on_files() -> tuple[int, int]:
    """On files a path variable is no dearer: ``*X`` needs only ``⊃``."""
    star, _ = _variable_penalty(CHANG_ANY_QUERY)
    concrete, _ = _variable_penalty(CHANG_AUTHOR_QUERY)
    return star, concrete


def e5_star_in_oodb() -> tuple[int, int]:
    """In an OODB the variable traverses every path."""
    _, star = _variable_penalty(CHANG_ANY_QUERY)
    _, concrete = _variable_penalty(CHANG_AUTHOR_QUERY)
    return concrete, star


def e7_index_assisted_join() -> tuple[int, int]:
    """Join bytes compared against the corpus a parse-load-join reads."""
    engine = _bibtex()
    joined = engine.query(SELF_EDITED_QUERY)
    scanned = engine.baseline_query(SELF_EDITED_QUERY)
    assert joined.stats.strategy == "index-join"
    assert joined.canonical_rows() == scanned.canonical_rows()
    return joined.stats.join_bytes_compared, scanned.stats.bytes_parsed


def e8_advisor_index() -> tuple[int, int]:
    """The advisor's index against the full one: exact, same rows."""
    workload = [CHANG_AUTHOR_QUERY, 'SELECT r FROM Reference r WHERE r.Year = "1982"']
    advised = _bibtex(IndexAdvisor(bibtex_schema()).recommend(workload).config)
    full = _bibtex()
    result = advised.query(CHANG_AUTHOR_QUERY)
    assert result.plan.exact
    assert result.canonical_rows() == full.query(CHANG_AUTHOR_QUERY).canonical_rows()
    return (
        advised.statistics().total_region_entries,
        full.statistics().total_region_entries,
    )


def e9_scaling() -> tuple[float, float]:
    """Growth of bytes parsed as the corpus doubles, for a one-row key
    lookup: the index's tracks the answer, the scan's the corpus."""
    small, large = _bibtex(entries=ENTRIES // 2), _bibtex()
    key = small.index.region_text(next(iter(small.index.instance.get("Key"))))
    query = f'SELECT r FROM Reference r WHERE r.Key = "{key}"'
    indexed, scanned = [], []
    for engine in (small, large):
        result = engine.query(query)
        baseline = engine.baseline_query(query)
        assert len(result.rows) == 1
        assert result.canonical_rows() == baseline.canonical_rows()
        indexed.append(result.stats.bytes_parsed)
        scanned.append(baseline.stats.bytes_parsed)
    return indexed[1] / indexed[0], scanned[1] / scanned[0]


@dataclass(frozen=True)
class Claim:
    id: str
    section: str
    cheap: str
    costly: str
    max_share: float
    measure: Callable[[], tuple[float, float]]


# Measured values (cheap vs costly, 200 references) are in EXPERIMENTS.md.
CLAIMS = [
    Claim("E1", "§3.2", "optimized comparisons", "⊃d chain comparisons",
          1 / 1.5, e1_optimized_expression),
    Claim("E2", "§1", "index bytes parsed", "scan bytes parsed",
          0.15, e2_index_vs_scan),
    Claim("E3", "§3.1", "⊃ comparisons", "⊃d comparisons",
          1 / 1.5, e3_direct_inclusion),
    Claim("E4", "§6", "partial index entries", "full index entries",
          0.25, e4_partial_index),
    Claim("E5-files", "§5.3", "star-path comparisons",
          "concrete-path comparisons", 1.0, e5_star_on_files),
    Claim("E5-oodb", "§5.3", "concrete-path values visited",
          "star-path values visited", 0.25, e5_star_in_oodb),
    Claim("E7", "§5.2", "join bytes compared", "scan bytes parsed",
          0.15, e7_index_assisted_join),
    Claim("E8", "§7", "advisor index entries", "full index entries",
          0.30, e8_advisor_index),
    Claim("E9", "§1", "index bytes growth", "scan bytes growth",
          0.6, e9_scaling),
]


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim(claim: Claim):
    cheap, costly = claim.measure()
    assert cheap <= claim.max_share * costly, (
        f"{claim.id} ({claim.section}): {claim.cheap} {cheap} is not within "
        f"{claim.max_share:.0%} of {claim.costly} {costly}"
    )
