"""Cache transparency: results are byte-identical with caching on or off.

Seeded-random property test over the E1–E7 paper-claim queries (bibtex,
sgml, and log workloads).  For every query, an engine with ``CacheConfig()``
and an engine with ``CacheConfig.disabled()`` over the same corpus must
return identical ``canonical_rows()`` — in every interleaving order — and
a second identical query on the cached engine must report
``bytes_parsed == 0``.
"""

from __future__ import annotations

import random

import pytest

from repro.cache import CacheConfig
from repro.core.engine import FileQueryEngine
from repro.index.config import IndexConfig
from repro.workloads.bibtex import (
    CHANG_ANY_QUERY,
    CHANG_AUTHOR_QUERY,
    SELF_EDITED_QUERY,
    bibtex_schema,
    generate_bibtex,
)
from repro.workloads.logs import (
    ERROR_QUERY,
    FAILED_GETS_QUERY,
    STORAGE_ERRORS_QUERY,
    generate_log,
    log_schema,
)
from repro.workloads.sgml import COMPACTION_QUERY, generate_sgml, sgml_schema

# The E1–E7 paper-claim queries, grouped by workload.
BIBTEX_QUERIES = [
    CHANG_AUTHOR_QUERY,  # E1/E2/E4/E8: indexed exact match
    CHANG_ANY_QUERY,  # E5: path variable (*X) closure
    SELF_EDITED_QUERY,  # E7: join
    'SELECT r FROM Reference r WHERE r.Year = "1982"',  # E2: unindexable scan
    'SELECT r FROM Reference r WHERE r.Publisher = "SIAM" OR r.Publisher = "ACM"',
    'SELECT r.Authors.Name.Last_Name FROM Reference r WHERE r.Year = "1982"',
]
SGML_QUERIES = [
    'SELECT d FROM Document d WHERE d.*X.ParaText = "nesting"',  # E6: closure
    COMPACTION_QUERY,
]
LOG_QUERIES = [ERROR_QUERY, STORAGE_ERRORS_QUERY, FAILED_GETS_QUERY]


def _engine_pair(schema, text, config=None):
    """Same corpus, caching on vs. off."""
    return (
        FileQueryEngine(schema, text, config, cache_config=CacheConfig()),
        FileQueryEngine(schema, text, config, cache_config=CacheConfig.disabled()),
    )


@pytest.fixture(scope="module")
def bibtex_pairs():
    text = generate_bibtex(entries=40, seed=11, self_edited_rate=0.3)
    full = _engine_pair(bibtex_schema(), text)
    partial = _engine_pair(
        bibtex_schema(), text, IndexConfig.partial({"Reference", "Key", "Last_Name"})
    )
    return [full, partial]


@pytest.fixture(scope="module")
def sgml_pair():
    return _engine_pair(sgml_schema(), generate_sgml(documents=6, depth=4, seed=5))


@pytest.fixture(scope="module")
def log_pair():
    return _engine_pair(log_schema(), generate_log(entries=100, seed=9))


def _suite(bibtex_pairs, sgml_pair, log_pair):
    for pair in bibtex_pairs:
        yield from ((pair, query) for query in BIBTEX_QUERIES)
    yield from ((sgml_pair, query) for query in SGML_QUERIES)
    yield from ((log_pair, query) for query in LOG_QUERIES)


class TestCacheTransparency:
    def test_rows_identical_with_cache_on_and_off(self, bibtex_pairs, sgml_pair, log_pair):
        cases = list(_suite(bibtex_pairs, sgml_pair, log_pair))
        # Seeded-random interleaving: cache state accumulated by earlier
        # queries must never leak into later answers.
        random.Random(1994).shuffle(cases)
        for (cached, uncached), query in cases:
            hot = cached.query(query)
            cold = uncached.query(query)
            assert hot.canonical_rows() == cold.canonical_rows(), query
            assert hot.stats.strategy == cold.stats.strategy, query

    def test_second_identical_query_parses_zero_bytes(
        self, bibtex_pairs, sgml_pair, log_pair
    ):
        for (cached, _), query in _suite(bibtex_pairs, sgml_pair, log_pair):
            first = cached.query(query)
            second = cached.query(query)
            assert second.canonical_rows() == first.canonical_rows(), query
            assert second.stats.bytes_parsed == 0, query

    def test_disabled_engine_always_pays_parse_cost(self, bibtex_pairs):
        (_, uncached) = bibtex_pairs[1]  # partial index → candidate parsing
        first = uncached.query(CHANG_AUTHOR_QUERY)
        second = uncached.query(CHANG_AUTHOR_QUERY)
        assert second.stats.bytes_parsed == first.stats.bytes_parsed > 0
        assert second.stats.cache_hits == 0
        assert second.stats.bytes_parse_avoided == 0

    def test_warm_repeat_reports_cache_hits(self, bibtex_pairs):
        (cached, _) = bibtex_pairs[1]
        cached.query(CHANG_AUTHOR_QUERY)
        repeat = cached.query(CHANG_AUTHOR_QUERY)
        assert repeat.stats.cache_hits > 0
        assert repeat.stats.bytes_parse_avoided > 0
