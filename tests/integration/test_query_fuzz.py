"""Randomized query fuzzing: engine == baseline, always.

Generates random (but well-formed) XSQL queries over the BibTeX schema —
random attribute paths, star/plain variables, constants sampled from the
corpus so matches actually occur, boolean combinations, joins — and checks
that every index configuration returns exactly the standard-database
pipeline's answer.  A second input, SGML documents whose titles are one
word from a three-word set, puts equal titles at every nesting depth: the
selections, joins and projections on it must not trust a direct inclusion
through an indexed ``Title`` wrapper or round a nested section.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import FileQueryEngine
from repro.index.config import IndexConfig
from repro.workloads.bibtex import bibtex_schema, generate_bibtex
from repro.workloads.sgml import generate_sgml, sgml_schema

CORPUS = generate_bibtex(entries=18, seed=101, self_edited_rate=0.2)

CONFIGS = [
    IndexConfig.full(),
    IndexConfig.partial({"Reference", "Key", "Last_Name"}),
    IndexConfig.partial({"Reference", "Authors", "Last_Name", "Year"}),
    IndexConfig.partial({"Reference"}),
    IndexConfig.partial({"Reference", "Key"}).with_scoped("Last_Name", "Authors"),
    IndexConfig.full(word_index=False),
]

# Paths through the BibTeX attribute structure, as (rendered-steps) pools.
CONCRETE_PATHS = [
    "Key",
    "Year",
    "Publisher",
    "Pages",
    "Authors.Name.Last_Name",
    "Authors.Name.First_Name",
    "Editors.Name.Last_Name",
    "Keywords.Keyword",
    "Referred.RefKey",
    "Title",
    "Abstract",
]
VARIABLE_PATHS = [
    "*X.Last_Name",
    "*X.Keyword",
    "X.Name.Last_Name",
    "*Y.First_Name",
]
CONSTANTS = [
    "Chang", "Corliss", "Milo", "SIAM", "ACM", "1982", "1990",
    "Taylor series", "region algebra", "Chan85f", "nonexistent-value",
]


def _random_condition(rng: random.Random, depth: int = 0) -> str:
    roll = rng.random()
    if depth < 2 and roll < 0.25:
        op = rng.choice(["AND", "OR"])
        return (
            f"({_random_condition(rng, depth + 1)} {op} "
            f"{_random_condition(rng, depth + 1)})"
        )
    if depth < 2 and roll < 0.35:
        return f"NOT ({_random_condition(rng, depth + 1)})"
    if roll < 0.45:
        left = rng.choice(CONCRETE_PATHS)
        right = rng.choice(CONCRETE_PATHS)
        return f"r.{left} = r.{right}"
    path = rng.choice(CONCRETE_PATHS + VARIABLE_PATHS)
    literal = rng.choice(CONSTANTS)
    roll = rng.random()
    if roll < 0.1 and " " not in literal:
        return f'r.{path} LIKE "{literal[: max(1, len(literal) // 2)]}*"'
    op = "=" if roll < 0.9 else "<>"
    return f'r.{path} {op} "{literal}"'


def _random_query(rng: random.Random) -> str:
    if rng.random() < 0.7:
        select = "r"
    else:
        select = "r." + rng.choice(CONCRETE_PATHS)
    query = f"SELECT {select} FROM Reference r"
    if rng.random() < 0.9:
        query += f" WHERE {_random_condition(rng)}"
    return query


@pytest.fixture(scope="module")
def engines():
    schema = bibtex_schema()
    return [FileQueryEngine(schema, CORPUS, config) for config in CONFIGS]


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_random_queries_match_baseline(engines, seed):
    rng = random.Random(seed)
    query = _random_query(rng)
    engine = engines[rng.randrange(len(engines))]
    result = engine.query(query)
    baseline = engine.baseline_query(query)
    assert result.canonical_rows() == baseline.canonical_rows(), (
        f"query: {query}\nplan:\n{engine.explain(query)}"
    )


@given(st.integers(0, 100_000))
@settings(max_examples=25, deadline=None)
def test_random_multi_variable_queries_match_baseline(engines, seed):
    rng = random.Random(seed)
    join_path = rng.choice(["Referred.RefKey", "Key", "Year"])
    other_path = rng.choice(["Key", "Year"])
    condition = f"r1.{join_path} = r2.{other_path}"
    if rng.random() < 0.6:
        condition += f" AND {_random_condition(rng).replace('r.', 'r2.')}"
    select = rng.choice(["r1", "r1.Key, r2.Key"])
    query = f"SELECT {select} FROM Reference r1, Reference r2 WHERE {condition}"
    engine = engines[rng.randrange(len(engines))]
    result = engine.query(query)
    baseline = engine.baseline_query(query)
    assert result.canonical_rows() == baseline.canonical_rows(), (
        f"query: {query}"
    )


TITLE_WORDS = ["Alpha", "Beta", "Gamma"]
SGML_CONFIGS = {
    "full": IndexConfig.full(),
    # Every title and paragraph wrapper left out of the index.
    "unwrapped": IndexConfig.partial(
        {"Document", "Sections", "Section", "Subsections", "Paragraphs", "TitleText", "ParaText"}
    ),
}
SGML_TITLES = [
    "d.TitleText",
    "d.Sections.Section.TitleText",
    "d.Sections.Section.Subsections.Section.TitleText",
]
SGML_QUERIES = (
    [
        f'SELECT d FROM Document d WHERE {path} = "{word}"'
        for path in SGML_TITLES + [
            "d.*X.TitleText",
            "d.Sections.*X.TitleText",
            "d.Sections.Section.Paragraphs.ParaText",
            "d.Sections.Section.Subsections.Section.Paragraphs.ParaText",
        ]
        for word in TITLE_WORDS
    ]
    + [
        f"SELECT d FROM Document d WHERE {left} = {right}"
        for index, left in enumerate(SGML_TITLES)
        for right in SGML_TITLES[index + 1 :]
    ]
    + [f"SELECT {path} FROM Document d" for path in SGML_TITLES]
    + [f'SELECT {path} FROM Document d WHERE d.TitleText = "Alpha"' for path in SGML_TITLES]
)


def _one_word_titles(seed: int) -> str:
    rng = random.Random(seed)
    text = generate_sgml(documents=6, depth=3, seed=seed)
    return re.sub(r"<t>[^<]*</t>", lambda _: f"<t>{rng.choice(TITLE_WORDS)}</t>", text)


@pytest.mark.parametrize("config", SGML_CONFIGS.values(), ids=SGML_CONFIGS.keys())
def test_sgml_one_word_titles_match_baseline(config):
    wrong = []
    for seed in range(8):
        engine = FileQueryEngine(sgml_schema(), _one_word_titles(seed), config)
        for query in SGML_QUERIES:
            result = engine.query(query)
            if result.canonical_rows() != engine.baseline_query(query).canonical_rows():
                wrong.append(f"seed {seed}, {result.plan.strategy}: {query}")
    assert not wrong, f"{len(wrong)} wrong answers:\n" + "\n".join(wrong)
