"""Building index structures from parse trees.

Section 4.2: "each index Ai is instantiated by the set of all regions
corresponding to occurrences of Ai in the parse tree of the file".  The
builder walks a parse tree, collects those spans, applies the index
configuration (partial sets, scoped indexes), and assembles an
:class:`~repro.index.engine.IndexEngine`.
"""

from __future__ import annotations

from collections import defaultdict

from repro.algebra.region import Instance, RegionSet
from repro.errors import IndexConfigError
from repro.index.config import IndexConfig
from repro.index.engine import IndexEngine
from repro.index.word_index import WordIndex
from repro.schema.parser import ParseNode


def collect_spans(tree: ParseNode) -> dict[str, list[tuple[int, int]]]:
    """All non-terminal occurrence spans, grouped by non-terminal."""
    spans: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for symbol, start, end in tree.nonterminal_spans():
        spans[symbol].append((start, end))
    return dict(spans)


def build_instance(
    tree: ParseNode,
    config: IndexConfig,
    root: str,
    known_names: "tuple[str, ...] | None" = None,
) -> Instance:
    """The region instance a configuration builds for one parse tree.

    ``known_names`` lists the grammar's non-terminals; names that never
    occur in this particular tree still get (empty) indexes, so expressions
    over them evaluate to ∅ rather than failing name lookup.
    """
    spans = collect_spans(tree)
    available = set(spans.keys()) | {root} | set(known_names or ())
    indexed = config.indexed_names(available, root)
    instance = Instance()
    for name in sorted(indexed):
        instance.assign(name, RegionSet.from_pairs(spans.get(name, ())))
    for spec in config.scoped:
        if spec.source not in spans and spec.scope not in spans:
            # Both absent: legal (the file just has no such regions).
            instance.assign(spec.name, RegionSet.empty())
            continue
        scope_regions = RegionSet.from_pairs(spans.get(spec.scope, ()))
        source_regions = RegionSet.from_pairs(spans.get(spec.source, ()))
        instance.assign(
            spec.name,
            RegionSet(r for r in source_regions if scope_regions.any_including(r)),
        )
    return instance


def build_engine(
    text: str,
    tree: ParseNode,
    config: IndexConfig | None = None,
    root: str | None = None,
    known_names: tuple[str, ...] | None = None,
) -> IndexEngine:
    """Assemble a full :class:`IndexEngine` for one parsed corpus.

    ``root`` defaults to the parse tree's own symbol (excluded from full
    indexing, per the paper); ``known_names`` lists the grammar's
    non-terminals so names absent from this tree still index (empty).
    """
    config = config if config is not None else IndexConfig.full()
    root_symbol = root if root is not None else tree.symbol
    instance = build_instance(tree, config, root_symbol, known_names=known_names)

    word_index = None
    if config.word_index:
        scope = None
        if config.word_scope is not None:
            scope = instance.get(config.word_scope)
            if config.word_scope not in instance:
                spans = collect_spans(tree)
                if config.word_scope not in spans:
                    raise IndexConfigError(
                        f"word scope {config.word_scope!r} does not occur in the parse tree"
                    )
                scope = RegionSet.from_pairs(spans[config.word_scope])
        word_index = WordIndex(text, lowercase=config.lowercase_words, scope=scope)

    return IndexEngine(
        text=text, instance=instance, word_index=word_index, config=config
    )
