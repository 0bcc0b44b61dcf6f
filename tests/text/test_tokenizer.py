"""Tokenization."""

import pytest
from hypothesis import given, strategies as st

from repro.text.tokenizer import Token, token_spans, tokenize, tokenize_words
from repro.workloads.bibtex import generate_bibtex
from repro.workloads.logs import generate_log
from repro.workloads.sgml import generate_sgml
from repro.workloads.source import generate_source
from tests.text.reference_tokenizer import reference_token_spans

#: Characters the word rule must classify: ASCII and non-ASCII letters,
#: ASCII and non-ASCII digits, combining marks, the default extra word
#: characters, U+0130 (whose lowercase is two characters), separators.
TRICKY = "aZ9é߀Ωß中٣²\u0301\u0308-_İ :.\"\t\n"
texts = st.one_of(
    st.text(alphabet=st.sampled_from(TRICKY), max_size=60),
    st.text(alphabet=st.characters(), max_size=60),
)


class TestToken:
    def test_span_must_match_text(self):
        with pytest.raises(ValueError):
            Token(text="abc", start=0, end=2)

    def test_valid(self):
        token = Token(text="abc", start=5, end=8)
        assert token.start == 5


class TestTokenize:
    def test_simple_words(self):
        assert tokenize_words("hello world") == ["hello", "world"]

    def test_spans_address_original_text(self):
        text = "  foo  bar"
        tokens = list(tokenize(text))
        assert [(t.start, t.end) for t in tokens] == [(2, 5), (7, 10)]
        for token in tokens:
            assert text[token.start : token.end] == token.text

    def test_hyphen_and_underscore_are_word_chars(self):
        assert tokenize_words("Last_Name well-known") == ["Last_Name", "well-known"]

    def test_punctuation_splits(self):
        assert tokenize_words('AUTHOR = "G. Corliss"') == ["AUTHOR", "G", "Corliss"]

    def test_lowercase_keeps_spans_when_the_fold_changes_length(self):
        # "İ".lower() is "i" + U+0307: the folded word is one character
        # longer than its span, which still addresses the original text.
        tokens = list(tokenize("an İstanbul trip", lowercase=True))
        assert [(t.text, t.start, t.end) for t in tokens] == [
            ("an", 0, 2),
            ("i̇stanbul", 3, 11),
            ("trip", 12, 16),
        ]

    def test_lowercase_option(self):
        tokens = list(tokenize("Chang", lowercase=True))
        assert tokens[0].text == "chang"
        assert (tokens[0].start, tokens[0].end) == (0, 5)

    def test_custom_word_chars(self):
        assert tokenize_words("10:15:03", extra_word_chars=":") == ["10:15:03"]
        assert tokenize_words("10:15:03", extra_word_chars="") == ["10", "15", "03"]

    def test_empty_text(self):
        assert tokenize_words("") == []

    def test_numbers_are_words(self):
        assert tokenize_words("pages 114--144") == ["pages", "114--144"]

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=80))
    def test_tokens_never_overlap_and_are_in_order(self, text):
        tokens = list(tokenize(text))
        for before, after in zip(tokens, tokens[1:]):
            assert before.end <= after.start

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=80))
    def test_token_spans_reproduce_text(self, text):
        for token in tokenize(text):
            assert text[token.start : token.end] == token.text


class TestMatchesReference:
    """The regex tokenizer against the per-character oracle."""

    @pytest.mark.parametrize(
        "corpus",
        [
            generate_bibtex(entries=30, seed=1),
            generate_log(entries=60, seed=2),
            generate_sgml(documents=5, seed=3),
            generate_source(functions=10, seed=4),
        ],
        ids=["bibtex", "logs", "sgml", "source"],
    )
    def test_every_workload_generator(self, corpus):
        for lowercase in (False, True):
            assert list(token_spans(corpus, lowercase=lowercase)) == list(
                reference_token_spans(corpus, lowercase=lowercase)
            )

    @given(texts, st.booleans())
    def test_default_word_chars(self, text, lowercase):
        assert list(token_spans(text, lowercase=lowercase)) == list(
            reference_token_spans(text, lowercase=lowercase)
        )

    @given(texts, st.booleans())
    def test_custom_word_chars(self, text, lowercase):
        for extra in ("", "-", ":", "]^\\", "-_."):
            assert list(
                token_spans(text, extra_word_chars=extra, lowercase=lowercase)
            ) == list(reference_token_spans(text, extra_word_chars=extra, lowercase=lowercase))

    @given(texts, st.booleans())
    def test_tokens_carry_the_same_spans(self, text, lowercase):
        assert [(t.text, t.start, t.end) for t in tokenize(text, lowercase=lowercase)] == list(
            reference_token_spans(text, lowercase=lowercase)
        )
