"""The four served workloads: seeded corpora, query pools and op streams.

Everything here derives from ``--seed`` alone; the server under test only
ever sees the generated files.  ``WORKLOADS`` says why each one exists —
which layers it loads and which it must leave idle.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import threading
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro.live import LiveEngine
from repro.shard import ShardedEngine
from repro.workloads.bibtex import LAST_NAMES, PUBLISHERS, bibtex_schema, generate_bibtex
from repro.workloads.logs import (
    COMPONENTS,
    FAILED_GETS_QUERY,
    LEVELS,
    generate_log,
    log_schema,
    tail_entries,
)

#: Closed loop: this many client threads, each on one keep-alive
#: connection.  Equal to the sandbox's core count and to the server's
#: ``--workers``, so admission never queues and never rejects.
CLIENTS = 2

YEARS = [str(year) for year in range(1975, 1995)]

PROJECTIONS = ["r", "r.Key", "r.Title", "r.Year", "r.Publisher", "r.Authors.Name.Last_Name"]


def _reference_query(projection: str, condition: str) -> str:
    return f"SELECT {projection} FROM Reference r WHERE {condition}"


def _author(name: str) -> str:
    return f'r.Authors.Name.Last_Name = "{name}"'


def _hot_pool(rng: random.Random) -> list[list[str]]:
    names = rng.sample(LAST_NAMES, 8)
    years = rng.sample(YEARS, 8)
    return [[_reference_query("r", _author(name))] for name in names] + [
        [_reference_query("r.Title", f'r.Year = "{year}"')] for year in years
    ]


def _cold_pool(rng: random.Random) -> list[list[str]]:
    # Conditions of one size — each selects about a tenth of the references
    # — so that a run's latency says how fast the layers are, not which
    # conditions it happened to draw.
    conditions = (
        [_author(name) for name in LAST_NAMES]
        + [f'r.Editors.Name.Last_Name = "{name}"' for name in LAST_NAMES]
        + [f'r.Year = "{a}" OR r.Year = "{b}"' for a, b in zip(YEARS[::2], YEARS[1::2])]
    )
    return [
        [_reference_query(projection, condition) for projection in PROJECTIONS]
        for condition in conditions
    ]


def _sharded_pool(rng: random.Random) -> list[list[str]]:
    # Whole objects only: a projection whose values repeat across shards is
    # answered differently by the sharded and the solo engine (see README).
    return [
        [_reference_query("r", condition)]
        for condition in (
            [_author(name) for name in LAST_NAMES]
            + [f'r.Year = "{year}"' for year in YEARS]
            + [f'r.Publisher = "{publisher}"' for publisher in PUBLISHERS]
            + [f'r.*X.Last_Name = "{name}"' for name in rng.sample(LAST_NAMES, 2)]
        )
    ]


def _live_pool(rng: random.Random) -> list[list[str]]:
    return [
        [f'SELECT e FROM Entry e WHERE e.Level = "{level}" AND e.Component = "{component}"']
        for level in LEVELS
        for component in COMPONENTS
    ] + [[FAILED_GETS_QUERY]]


@dataclass(frozen=True)
class Spec:
    """One workload's fixed shape (everything but the seed)."""

    name: str
    why: str
    schema_name: str  # `repro serve --workload` value
    entries: int
    #: The query texts, in groups: texts of one group cost about the same
    #: (one condition under several projections), groups differ.
    pool: Callable[[random.Random], list[list[str]]]
    page_size: int
    warmup_ops: int | None = None  # None: one pass over the pool
    follow_share: float = 0.0  # ops that follow the previous next_cursor
    append_share: float = 0.0
    shards: int = 0  # 0: solo engine served from --file
    replicas: int | None = None
    preload_frames: int = 0
    traced_ops: int = 150  # ops replayed by each in-process pass

    @property
    def live(self) -> bool:
        return self.append_share > 0


WORKLOADS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="hot-read",
            why="16 texts on 400 references fit every cache, so the time is "
            "server + api (HTTP, admission, cursor replay, render); parser work must not show",
            schema_name="bibtex",
            entries=400,
            pool=_hot_pool,
            page_size=20,
            follow_share=0.3,
        ),
        Spec(
            name="cold-read",
            why="300 texts on 1500 references overflow the plan and parse caches, so "
            "schema parsing and db instantiation dominate and core/index are visible",
            schema_name="bibtex",
            entries=1500,
            pool=_cold_pool,
            page_size=50,
            warmup_ops=30,
            traced_ops=30,
        ),
        Spec(
            name="sharded-read",
            why="warm queries through 8 shards x 2 replicas: scatter, per-shard execute, "
            "merge, 20 KB envelopes, and the persisted-index load path in set-up",
            schema_name="bibtex",
            entries=2000,
            pool=_sharded_pool,
            page_size=50,
            shards=8,
            replicas=2,
            traced_ops=60,
        ),
        Spec(
            name="live-mixed",
            why="15% appends beside 85% queries on a live engine: journal fsync, per-record "
            "parse, delta segment rebuilt after each append; set-up is restart with replay",
            schema_name="logs",
            entries=4000,
            pool=_live_pool,
            page_size=50,
            append_share=0.15,
            shards=4,
            preload_frames=256,
            traced_ops=80,
        ),
    )
}


@dataclass
class Op:
    """One request: the endpoint, its JSON body, and what to check it by."""

    path: str  # "/query" | "/append"
    body: dict[str, Any]
    query: str | None = None  # query text (first pages and follow-ups)
    record: str | None = None  # appended record


class ClientStream:
    """One closed-loop client's op sequence.

    The client deals from a deck: every group of the pool once, plus the
    workload's share of appends and cursor follow-ups, shuffled; when the
    deck runs out it is shuffled again.  Each text is as likely as under
    independent draws, but every stretch of a run holds the same mix of
    cheap and costly ops, so a run's medians are not moved by which texts
    a short run happened to draw.  The sequence of *choices* depends only
    on ``(workload, seed, client)``; a follow-up carries the cursor of the
    client's previous response, which is itself deterministic."""

    def __init__(self, prepared: "Prepared", client: int) -> None:
        self._prepared = prepared
        self._spec = prepared.spec
        self._rng = random.Random(f"{self._spec.name}/{prepared.seed}/{client}")
        self._client = client
        self._appends = 0
        self._follow: tuple[str, str] | None = None  # (query, next_cursor)
        self._deck: list[tuple[str, int]] = []

    def _shuffled_deck(self) -> list[tuple[str, int]]:
        spec, groups = self._spec, len(self._prepared.groups)
        per_query = 1.0 - spec.append_share - spec.follow_share
        deck = [("query", group) for group in range(groups)]
        deck += [("append", 0)] * round(groups * spec.append_share / per_query)
        deck += [("follow", 0)] * round(groups * spec.follow_share / per_query)
        self._rng.shuffle(deck)
        return deck

    def choice(self) -> tuple[str, str]:
        """The next planned ``(kind, query text)``, before any response is
        known (a follow-up's text is used when there is nothing to follow)."""
        if not self._deck:
            self._deck = self._shuffled_deck()
        kind, group = self._deck.pop()
        if kind == "follow":
            group = self._rng.randrange(len(self._prepared.groups))
        return kind, self._rng.choice(self._prepared.groups[group])

    def next_op(self) -> Op:
        kind, query = self.choice()
        if kind == "append":
            # Client k appends records k, k+CLIENTS, ...: disjoint, ordered.
            record = self._prepared.append_record(self._client + CLIENTS * self._appends)
            self._appends += 1
            return Op("/append", {"record": record}, record=record)
        if kind == "follow" and self._follow is not None:
            query, cursor = self._follow
            return Op("/query", {"query": query, "cursor": cursor}, query=query)
        return Op("/query", {"query": query, "page_size": self._spec.page_size}, query=query)

    def observe(self, op: Op, payload: dict[str, Any]) -> None:
        if op.query is not None:
            cursor = payload.get("next_cursor")
            self._follow = (op.query, cursor) if cursor else None


def warmup_ops(prepared: "Prepared") -> list[Op]:
    """The warm-up that precedes every timed run, so lazy set-up and the
    first fill of the caches are not billed to the first requests."""
    spec = prepared.spec
    if spec.warmup_ops is None:
        queries = list(prepared.pool)
    else:
        rng = random.Random(f"{spec.name}/{prepared.seed}/warmup")
        queries = [rng.choice(prepared.pool) for _ in range(spec.warmup_ops)]
    return [
        Op("/query", {"query": query, "page_size": spec.page_size}, query=query)
        for query in queries
    ]


def op_sequence_digest(prepared: "Prepared", ops: int = 256) -> str:
    """A digest of the first ``ops`` planned choices of every client: equal
    for equal seeds, different otherwise."""
    digest = hashlib.sha256()
    for client in range(CLIENTS):
        stream = ClientStream(prepared, client)
        for _ in range(ops):
            digest.update("{}:{}\n".format(*stream.choice()).encode())
    return digest.hexdigest()


@dataclass
class Prepared:
    """A workload made concrete for one seed: files on disk plus what the
    harness needs to drive and check it."""

    spec: Spec
    seed: int
    schema: Any
    text: str
    groups: list[list[str]]
    corpus_path: Path
    index_dir: Path | None
    preloaded: list[str] = field(default_factory=list)
    save_s: float | None = None  # ShardedEngine.save during preparation

    @cached_property
    def pool(self) -> list[str]:
        return [query for group in self.groups for query in group]

    @property
    def corpus_sha256(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()

    @property
    def corpus_bytes(self) -> int:
        return len(self.text.encode("utf-8"))

    def __post_init__(self) -> None:
        # One seeded record stream shared by the clients; the entry clock
        # continues the corpus's, so every record has its own timestamp.
        self._append_stream = tail_entries(
            entries=10**6,
            seed=self.seed + 1,
            start=self.spec.entries + self.spec.preload_frames,
        )
        self._append_records: list[str] = []
        self._append_lock = threading.Lock()

    def append_record(self, number: int) -> str:
        """The ``number``-th record of the append stream."""
        with self._append_lock:
            while len(self._append_records) <= number:
                self._append_records.append(next(self._append_stream))
            return self._append_records[number]

    def serve_args(self, index_dir: Path | None = None) -> list[str]:
        """``repro serve`` arguments (after ``serve``) selecting this
        workload's backend."""
        args = ["--workload", self.spec.schema_name]
        if self.index_dir is None:
            return args + ["--file", str(self.corpus_path)]
        args += ["--index", str(index_dir or self.index_dir)]
        return args + ["--live"] if self.spec.live else args

    def disk_bytes(self) -> int:
        """Bytes on disk the served backend reads: the saved index
        directory (all replicas, journals), or the corpus file alone."""
        if self.index_dir is None:
            return self.corpus_path.stat().st_size
        return tree_bytes(self.index_dir)

    def copy_index(self, target: Path) -> Path:
        """A private copy of the index directory (live passes mutate it)."""
        shutil.copytree(self.index_dir, target)
        return target


def tree_bytes(directory: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(parent, name))
        for parent, _, names in os.walk(directory)
        for name in names
    )


def prepare(spec: Spec, seed: int, workdir: Path) -> Prepared:
    """Generate the corpus and, for indexed workloads, build and save the
    index under ``workdir`` (a temporary directory the caller removes)."""
    if spec.schema_name == "bibtex":
        schema, text = bibtex_schema(), generate_bibtex(entries=spec.entries, seed=seed)
    else:
        schema, text = log_schema(), generate_log(entries=spec.entries, seed=seed)
    corpus_path = workdir / "corpus.txt"
    corpus_path.write_text(text, encoding="utf-8")
    groups = spec.pool(random.Random(f"{spec.name}/{seed}/pool"))
    prepared = Prepared(spec, seed, schema, text, groups, corpus_path, index_dir=None)
    if not spec.shards:
        return prepared
    prepared.index_dir = workdir / "index"
    engine = ShardedEngine.split(schema, text, spec.shards)
    started = perf_counter()
    engine.save(prepared.index_dir, replicas=spec.replicas)
    prepared.save_s = perf_counter() - started
    if spec.preload_frames:
        # Journal frames appended offline and left unfolded: the served
        # engine must replay them at start-up and carry them as a delta.
        frames = list(
            tail_entries(entries=spec.preload_frames, seed=seed + 2, start=spec.entries)
        )
        live = LiveEngine.open(schema, prepared.index_dir)
        try:
            for record in frames:
                live.append(record)
        finally:
            live.close()
        prepared.preloaded = frames
    return prepared
