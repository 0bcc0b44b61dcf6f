"""Citation analysis: multi-variable joins and LIKE.

The paper's introduction motivates queries no text tool can express —
join-like questions over file content.  This example runs them:

- which references cite a paper authored by Chang? (two range variables);
- whose last names start with "Cor"? (LIKE — PAT's lexical search).

Run:  python examples/citation_analysis.py
"""

from repro import FileQueryEngine
from repro.db.values import canonical
from repro.workloads.bibtex import bibtex_schema, generate_bibtex


def main() -> None:
    text = generate_bibtex(entries=120, seed=13)
    engine = FileQueryEngine(bibtex_schema(), text)
    print(f"corpus: {len(text)} bytes, 120 references\n")

    # -- multi-variable join: citers of Chang's papers --------------------
    join_query = (
        "SELECT r1.Key, r2.Key FROM Reference r1, Reference r2 "
        "WHERE r1.Referred.RefKey = r2.Key "
        'AND r2.Authors.Name.Last_Name = "Chang"'
    )
    result = engine.query(join_query)
    print(f"citations of Chang-authored papers ({result.stats.strategy}):")
    for citing, cited in sorted(
        (str(canonical(a)), str(canonical(b))) for a, b in result.rows
    )[:6]:
        print(f"  {citing}  cites  {cited}")
    print(f"  ({len(result.rows)} citation pairs; candidates narrowed to "
          f"{result.stats.candidate_regions} regions)\n")

    # -- LIKE: lexical prefix search ---------------------------------------
    like_query = (
        'SELECT r.Key FROM Reference r WHERE r.Authors.Name.Last_Name LIKE "Cor*"'
    )
    like_result = engine.query(like_query)
    print(f'authors matching "Cor*": {len(like_result.rows)} references')
    print(f"  plan: {engine.plan(like_query).optimized_expression}\n")

    # -- everything agrees with the database baseline ------------------------
    for query in (join_query, like_query):
        assert (
            engine.query(query).canonical_rows()
            == engine.baseline_query(query).canonical_rows()
        )
    print("\nall answers verified against the standard-database baseline")


if __name__ == "__main__":
    main()
