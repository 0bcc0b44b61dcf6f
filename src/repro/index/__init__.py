"""The text indexing engine (the reproduction's PAT stand-in).

The paper assumes "that this is a service given by the underlying text
indexing system"; since no such system is available here, this package
implements it:

- :mod:`repro.index.word_index` — an inverted word index with positions
  ("recording the location(s) of all the words in the file"), optionally
  *selective* (only words inside chosen region types, Section 7);
- :mod:`repro.index.config` — declarative index configuration: full /
  partial region indexing, scoped region indexes ("index only the Name
  regions inside Authors"), selective word indexing;
- :mod:`repro.index.builder` — build region instances and engines from
  parse trees;
- :mod:`repro.index.engine` — the :class:`IndexEngine` facade: evaluates
  region expressions and implements the evaluator's word-lookup protocol;
- :mod:`repro.index.stats` — index size accounting for the
  space/efficiency tradeoff experiments.
"""

from repro.index.word_index import WordIndex
from repro.index.config import IndexConfig, ScopedRegionSpec
from repro.index.builder import collect_spans, build_instance, build_engine
from repro.index.engine import IndexEngine
from repro.index.stats import IndexStatistics

__all__ = [
    "WordIndex",
    "IndexConfig",
    "ScopedRegionSpec",
    "collect_spans",
    "build_instance",
    "build_engine",
    "IndexEngine",
    "IndexStatistics",
]
