"""Index configuration.

Section 7 of the paper discusses *what to index*: the full set of grammar
non-terminals, a partial subset, scoped region indexes ("instead of indexing
all the Name regions it is better to index only those that reside in some
Authors region"), and selective word indexing.  :class:`IndexConfig`
declares these choices; :mod:`repro.index.builder` realises them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import IndexConfigError


@dataclass(frozen=True)
class ScopedRegionSpec:
    """A scoped region index: ``source`` regions that lie inside some
    ``scope`` region, published under ``name`` (default
    ``"source@scope"``)."""

    source: str
    scope: str
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            object.__setattr__(self, "name", f"{self.source}@{self.scope}")
        if self.source == self.scope:
            raise IndexConfigError("scoped index source and scope must differ")


@dataclass(frozen=True)
class IndexConfig:
    """What the index engine should build.

    Attributes
    ----------
    region_names:
        The non-terminals to index; ``None`` means all (full indexing, minus
        the grammar root).
    scoped:
        Additional scoped region indexes.
    word_index:
        Whether to build the word index at all.
    word_scope:
        Selective word indexing: only index words inside regions of this
        non-terminal (``None`` = everywhere).
    lowercase_words:
        Case-fold the word index.
    """

    region_names: frozenset[str] | None = None
    scoped: tuple[ScopedRegionSpec, ...] = ()
    word_index: bool = True
    word_scope: str | None = None
    lowercase_words: bool = False

    @classmethod
    def full(cls, **overrides: object) -> "IndexConfig":
        """Index every non-terminal (Section 5's setting)."""
        return cls(region_names=None, **overrides)  # type: ignore[arg-type]

    @classmethod
    def partial(cls, names: Iterable[str], **overrides: object) -> "IndexConfig":
        """Index only the given non-terminals (Section 6's setting)."""
        return cls(region_names=frozenset(names), **overrides)  # type: ignore[arg-type]

    def with_scoped(self, source: str, scope: str, name: str = "") -> "IndexConfig":
        """A copy with one more scoped region index."""
        spec = ScopedRegionSpec(source=source, scope=scope, name=name)
        return IndexConfig(
            region_names=self.region_names,
            scoped=self.scoped + (spec,),
            word_index=self.word_index,
            word_scope=self.word_scope,
            lowercase_words=self.lowercase_words,
        )

    def indexed_names(self, all_nonterminals: Iterable[str], root: str) -> frozenset[str]:
        """Resolve the concrete set of plain (unscoped) indexed names."""
        if self.region_names is None:
            return frozenset(name for name in all_nonterminals if name != root)
        available = set(all_nonterminals)
        unknown = self.region_names - available
        if unknown:
            raise IndexConfigError(
                f"configured region names not in the grammar: {sorted(unknown)}"
            )
        return self.region_names
