"""The output oracle: what every served answer is checked against.

The oracle is the repo's own standard-database pipeline — parse the whole
corpus, load it, evaluate the query naively (what
``FileQueryEngine.baseline_query`` does) — with the corpus parse shared by
all queries (``load_baseline_database``'s amortised form), and no index,
plan or cache between the text and the rows.  Served rows are display
strings, so the oracle renders its rows the same way.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.api import render_rows
from repro.db.evaluator import NaiveEvaluator
from repro.db.loader import load_database
from repro.db.model import Database
from repro.db.parser import parse_query

#: Warning codes that mean rows may be missing: an answer carrying one is
#: a failed operation even when its status is 200.
LOSSY_WARNINGS = {"partial-result", "shard-failed"}


class Oracle:
    """Rows per query text over one corpus, computed on first use."""

    def __init__(self, schema: Any, database: Database) -> None:
        self._schema = schema
        self._database = database
        self._evaluator = NaiveEvaluator(database)
        self._rows: dict[str, list[list[str]]] = {}

    @classmethod
    def over(cls, schema: Any, text: str) -> "Oracle":
        return cls(schema, load_database(schema, text).database)

    def fork(self) -> "Oracle":
        """An independent oracle over the same objects, for a pass that
        will :meth:`extend` it."""
        database = Database()
        for class_name in self._database.classes:
            for obj in self._database.extent(class_name):
                database.insert(obj)
        twin = Oracle(self._schema, database)
        twin._rows = dict(self._rows)
        return twin

    def extend(self, records: str) -> None:
        """Load appended records behind the corpus — the database a
        rebuild over corpus + records would hold."""
        self._database.load_value(self._schema.instantiate(self._schema.parse(records)))
        self._rows.clear()

    def rows(self, query: str) -> list[list[str]]:
        if query not in self._rows:
            self._rows[query] = render_rows(self._evaluator.evaluate(parse_query(query)))
        return self._rows[query]

    def digest(self, query: str) -> str:
        return rows_digest(self.rows(query))


def rows_digest(rows: list[list[str]]) -> str:
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()[:16]


def envelope_fault(status: int, payload: dict[str, Any]) -> str | None:
    """Why a response counts as failed whatever its rows, or ``None``."""
    if status != 200:
        return f"status {status}"
    if payload.get("ok") is not True:
        return "ok is not true"
    lossy = LOSSY_WARNINGS.intersection(w.get("code") for w in payload.get("warnings", []))
    if lossy:
        return "warning " + ",".join(sorted(lossy))
    return None


def page_fault(oracle: Oracle, query: str, payload: dict[str, Any]) -> str | None:
    """Why one served page disagrees with the oracle, or ``None``.  Every
    page is checked in place — its rows must be the oracle's rows at
    ``row_start`` — which is stricter than reassembling the pages."""
    expected = oracle.rows(query)
    if payload.get("total_rows") != len(expected):
        return f"total_rows {payload.get('total_rows')} != {len(expected)}"
    start = payload.get("row_start", 0)
    rows = payload.get("rows", [])
    if rows != expected[start : start + len(rows)]:
        return f"rows at {start} differ from oracle {oracle.digest(query)}"
    at_end = start + len(rows) >= len(expected)
    if (payload.get("next_cursor") is None) != at_end:
        return f"next_cursor does not match the end of the rows at {start}"
    return None
