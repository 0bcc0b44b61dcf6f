"""The inverted word index."""

import sys
import threading

from hypothesis import given, strategies as st

from repro.algebra.region import Region, RegionSet
from repro.core.engine import FileQueryEngine
from repro.index.config import IndexConfig
from repro.index.word_index import WordIndex
from repro.workloads.bibtex import bibtex_schema, generate_bibtex
from tests.index.reference_word_index import ReferenceWordIndex

TEXT = 'AUTHOR = "G. Corliss and Y. Chang" KEYWORDS = "Taylor series; Chang"'


class TestOccurrences:
    def test_positions(self):
        index = WordIndex(TEXT)
        chang = index.occurrences("Chang")
        assert len(chang) == 2
        for region in chang:
            assert TEXT[region.start : region.end] == "Chang"

    def test_missing_word(self):
        index = WordIndex(TEXT)
        assert index.occurrences("absent") == RegionSet.empty()

    def test_case_sensitivity_default(self):
        index = WordIndex(TEXT)
        assert len(index.occurrences("chang")) == 0

    def test_lowercase_folding(self):
        index = WordIndex(TEXT, lowercase=True)
        assert len(index.occurrences("chang")) == 2
        assert len(index.occurrences("CHANG")) == 2

    def test_frequency_and_contains(self):
        index = WordIndex(TEXT)
        assert index.frequency("Chang") == 2
        assert index.frequency("nope") == 0
        assert "Chang" in index
        assert "nope" not in index


class TestTokenCounting:
    def test_token_count_between(self):
        index = WordIndex("alpha beta gamma")
        assert index.token_count_between(0, 16) == 3
        assert index.token_count_between(0, 5) == 1
        assert index.token_count_between(0, 4) == 0  # "alph" cut short
        assert index.token_count_between(6, 10) == 1

    def test_exact_selection_support(self):
        # A Last_Name region is "the word Chang" iff it holds exactly one
        # token and that token is Chang.
        index = WordIndex('"Chang" "Chang Corliss"')
        single = Region(1, 6)
        double = Region(9, 22)
        assert index.token_count_between(single.start, single.end) == 1
        assert index.token_count_between(double.start, double.end) == 2


class TestScope:
    def test_selective_word_indexing(self):
        # Section 7: index only the words inside chosen regions.
        scope = RegionSet.of((0, 34))  # the AUTHOR field only
        index = WordIndex(TEXT, scope=scope)
        assert index.frequency("Chang") == 1
        assert index.frequency("Taylor") == 0

    def test_scope_reduces_postings(self):
        full = WordIndex(TEXT)
        scoped = WordIndex(TEXT, scope=RegionSet.of((0, 34)))
        assert scoped.posting_count < full.posting_count


class TestVocabulary:
    def test_sorted_vocabulary(self):
        index = WordIndex("beta alpha beta")
        assert index.vocabulary == ("alpha", "beta")
        assert index.vocabulary_size == 2
        assert index.posting_count == 3

    def test_prefix_search(self):
        index = WordIndex("Chang Chapman Corliss chart")
        assert list(index.words_with_prefix("Cha")) == ["Chang", "Chapman"]
        occurrences = index.occurrences_with_prefix("Cha")
        assert len(occurrences) == 2

    def test_prefix_search_no_match(self):
        index = WordIndex("alpha")
        assert list(index.words_with_prefix("z")) == []


class TestUnicodeFolding:
    def test_lowercase_index_over_dotted_capital_i(self):
        # "İ".lower() is two characters; the index used to refuse the text.
        text = "İstanbul and istanbul"
        index = WordIndex(text, lowercase=True)
        assert [text[r.start : r.end] for r in index.occurrences("İSTANBUL")] == [
            "İstanbul"
        ]
        assert index.token_count_between(0, 8) == 1

    def test_lowercase_engine_builds_saves_and_loads(self, tmp_path):
        schema = bibtex_schema()
        text = generate_bibtex(entries=4, seed=3).replace("Bertino", "İnce")
        engine = FileQueryEngine(schema, text, IndexConfig.full(lowercase_words=True))
        query = 'SELECT r.Key FROM Reference r WHERE r.Authors.Name.Last_Name = "İnce"'
        assert len(engine.query(query).rows) == 1
        engine.save(str(tmp_path / "idx"))
        restored = FileQueryEngine.from_saved(schema, str(tmp_path / "idx"))
        assert restored.query(query).canonical_rows() == engine.query(query).canonical_rows()


words = st.text(alphabet="abAB-İé", min_size=1, max_size=4)
corpora = st.lists(
    st.one_of(words, st.sampled_from([" ", "  ", ", ", "\n", '"'])), max_size=40
).map("".join)


@st.composite
def scopes(draw, text):
    if draw(st.booleans()):
        return None
    ends = st.integers(0, len(text))
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=4))
    return RegionSet.from_pairs((min(pair), max(pair)) for pair in pairs)


class TestMatchesEagerReference:
    """Int-span postings with lazily built sets against the eager index."""

    @given(st.data(), corpora, st.booleans())
    def test_every_lookup(self, data, text, lowercase):
        scope = data.draw(scopes(text))
        lazy = WordIndex(text, lowercase=lowercase, scope=scope)
        eager = ReferenceWordIndex(text, lowercase=lowercase, scope=scope)
        assert lazy.vocabulary == eager.vocabulary
        assert lazy.vocabulary_size == len(eager.vocabulary)
        assert lazy.posting_count == eager.posting_count
        probes = list(eager.vocabulary) + data.draw(st.lists(words, max_size=3))
        for word in probes:
            assert lazy.occurrences(word) == eager.occurrences(word)
            assert lazy.occurrences(word) == eager.occurrences(word)  # memoized
            assert lazy.frequency(word) == eager.frequency(word)
            assert (word in lazy) == (eager.frequency(word) > 0)
        for prefix in data.draw(st.lists(st.text(alphabet="abAB-İé", max_size=2), max_size=3)):
            assert list(lazy.words_with_prefix(prefix)) == list(eager.words_with_prefix(prefix))
            assert lazy.occurrences_with_prefix(prefix) == eager.occurrences_with_prefix(prefix)
        positions = st.integers(0, len(text))
        for start, end in data.draw(st.lists(st.tuples(positions, positions), max_size=5)):
            assert lazy.token_count_between(start, end) == eager.token_count_between(start, end)


class TestConcurrentLookups:
    def test_threads_building_the_same_words_agree(self):
        # The memo is filled without a lock: racing builds of one word
        # store equal sets, so every reader sees the eager answer.
        text = generate_bibtex(entries=20, seed=4)
        index = WordIndex(text)
        reference = ReferenceWordIndex(text)
        wrong: list[str] = []

        def look_up_every_word() -> None:
            for word in reference.vocabulary:
                if index.occurrences(word) != reference.occurrences(word):
                    wrong.append(word)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=look_up_every_word) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
