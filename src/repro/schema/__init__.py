"""Structuring schemas (Section 4, after [ACM93]).

A structuring schema is "a database schema and a grammar annotated with
database programs": the grammar describes the file's structure, the
annotations say how each derivation rule's word maps into the database.
This package provides:

- :mod:`repro.schema.grammar` — the grammar formalism (sequence, star and
  alternative rules over literals, terminals and non-terminals);
- :mod:`repro.schema.types` — database type descriptions for annotations;
- :mod:`repro.schema.actions` — rule actions (``$$ := ...`` programs),
  including the automatic *natural* actions of Section 4.2;
- :mod:`repro.schema.parser` — a recursive-descent parser, compiled once
  per grammar, with PEG semantics (ordered alternatives with backtracking,
  whitespace skipped before every symbol); it captures the region of every
  non-terminal occurrence (these regions are what the region indexes
  record), and can re-parse an arbitrary file region starting at any
  non-terminal (needed for candidate parsing, Section 6.2);
- :mod:`repro.schema.structuring` — the :class:`StructuringSchema` façade;
- :mod:`repro.schema.pushdown` — selective instantiation: build only the
  database values a query needs ([ACM93]'s optimization, used in the
  candidate-filtering phase).
"""

from repro.schema.grammar import (
    Grammar,
    NonTerminal,
    Literal,
    TWord,
    TQuoted,
    TUntil,
    TNumber,
    SeqRule,
    StarRule,
)
from repro.schema.parser import Parser, ParseNode
from repro.schema.structuring import StructuringSchema
from repro.schema.pushdown import PathTrie

__all__ = [
    "Grammar",
    "NonTerminal",
    "Literal",
    "TWord",
    "TQuoted",
    "TUntil",
    "TNumber",
    "SeqRule",
    "StarRule",
    "Parser",
    "ParseNode",
    "StructuringSchema",
    "PathTrie",
]
