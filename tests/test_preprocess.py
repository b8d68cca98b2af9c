"""Tokenizer behavior, stopword loading, and normalization invariants."""

from __future__ import annotations

import random
import re
import string
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbrsearch import ConfigError, PreprocessConfig, load_stopwords, tokenize


def _reference(text: str, config: PreprocessConfig) -> list[str]:
    """The tokenizer's definition: split on runs of non-alphanumerics, lower each token, filter."""
    pieces = [piece.lower() for piece in re.findall(r"[^\W_]+", text)]
    return [p for p in pieces if len(p) >= config.min_token_length and p not in config.stopwords]


# ASCII with the separators that keep text off the split path, and non-ASCII
# letters, marks and spaces: U+0130 lowers to two characters, final sigma,
# composed and decomposed e-acute, sharp s, a fullwidth letter, no-break
# space, next line, em space, ideographic space, line separator, a
# titlecase digraph
_ALPHABET = (
    string.ascii_letters + string.digits + " -,._\t\x1c"
    + "\u0130\u03a3\u03c2\u00e9\u0301\u00df\uff33\xa0\x85\u2003\u3000\u2028\u01c5"
)


@st.composite
def _texts_and_configs(draw):
    """Text of the alphabet, with a config that has no stopwords or some of the text's words."""
    text = draw(st.text(alphabet=_ALPHABET, max_size=30))
    words = _reference(text, PreprocessConfig())
    stopwords = draw(st.sets(st.sampled_from(words), min_size=1)) if words and draw(st.booleans()) else ()
    return text, PreprocessConfig(frozenset(stopwords), draw(st.integers(1, 3)))


class TestTokenize:
    def test_title_splits_into_lowercase_words(self):
        text = "Sistem Navigasi Gedung dengan Metode Algoritma Djikstra"
        assert tokenize(text) == [
            "sistem", "navigasi", "gedung", "dengan", "metode", "algoritma", "djikstra",
        ]

    def test_empty_input_yields_no_tokens(self):
        assert tokenize("") == []

    def test_separator_only_input_yields_no_tokens(self):
        assert tokenize("  ?!--  ") == []

    def test_punctuation_splits_and_surface_order_is_kept(self):
        assert tokenize("TF-IDF, TF-IDF!") == ["tf", "idf", "tf", "idf"]

    def test_stopwords_are_dropped(self):
        config = PreprocessConfig(stopwords=frozenset({"dengan", "dan"}))
        assert tokenize("Sistem dengan Metode dan Data", config) == ["sistem", "metode", "data"]

    def test_stopword_entries_are_normalized_at_config_time(self):
        config = PreprocessConfig(stopwords=frozenset({"Dengan"}))
        assert "dengan" in config.stopwords
        assert tokenize("sistem dengan metode", config) == ["sistem", "metode"]

    def test_short_tokens_are_dropped(self):
        config = PreprocessConfig(min_token_length=3)
        assert tokenize("di a sistem ke data", config) == ["sistem", "data"]

    def test_digits_and_accented_letters_are_token_characters(self):
        assert tokenize("algoritma2 café") == ["algoritma2", "café"]

    def test_an_underscore_splits_a_token(self):
        assert tokenize("a_b") == ["a", "b"]

    def test_a_run_of_spaces_and_punctuation_is_one_split(self):
        assert tokenize("TF-IDF  Sistem") == ["tf", "idf", "sistem"]

    def test_each_token_is_lowercased_after_the_split(self):
        # "İ".lower() gains a combining dot, which is no token character
        assert tokenize("İstanbul İZMİR") == ["i\u0307stanbul", "i\u0307zmi\u0307r"]

    def test_min_token_length_below_one_is_rejected(self):
        with pytest.raises(ConfigError, match="min_token_length"):
            PreprocessConfig(min_token_length=0)


class TestTokenizeProperties:
    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(drawn=_texts_and_configs())
    def test_equals_the_regex_definition(self, drawn):
        text, config = drawn
        # ASCII text takes a lowered split, and a config that filters nothing
        # skips the filter; neither may change a token
        assert tokenize(text, config) == _reference(text, config)

    # plain ASCII takes the split path; punctuation, an underscore, a tab,
    # surrounding spaces and non-ASCII text take the regex
    @pytest.mark.parametrize(
        "text",
        [
            "Sistem Pakar Diagnosa Penyakit",
            "TF-IDF, Cosine: Sistem Temu Kembali",
            "sistem_informasi akademik",
            "Aplikasi\tMonitoring Sistem",
            "\u0130stanbul \u0130ZM\u0130R Sistem",
            "Stra\u00dfe STRASSE caf\u00e9 cafe\u0301 \u03a3\u039f\u03a6\u039f\u03a3",
            "  Pakar  Sistem  ",
        ],
    )
    @pytest.mark.parametrize(
        "config",
        [PreprocessConfig(), PreprocessConfig(stopwords=frozenset({"sistem"}), min_token_length=2)],
        ids=["default", "filtered"],
    )
    def test_titles_of_every_path_equal_the_regex_definition(self, text, config):
        assert tokenize(text, config) == _reference(text, config)

    def test_idempotent_over_rejoined_tokens(self):
        rng = random.Random(90125)
        config = PreprocessConfig(stopwords=frozenset({"dan"}), min_token_length=2)
        alphabet = "abc AB-.!?12é "
        for _ in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
            once = tokenize(text, config)
            assert tokenize(" ".join(once), config) == once

    def test_deterministic_for_identical_input(self):
        text = "Sistem; Navigasi! Gedung?"
        config = PreprocessConfig(stopwords=frozenset({"gedung"}))
        assert tokenize(text, config) == tokenize(text, config)

    def test_word_permutation_preserves_the_token_multiset(self):
        rng = random.Random(11)
        text = "Perancangan dan Implementasi Aplikasi Sistem Monitoring"
        expected = Counter(tokenize(text))
        for _ in range(25):
            words = text.split()
            rng.shuffle(words)
            assert Counter(tokenize(" ".join(words))) == expected


class TestLoadStopwords:
    def test_entries_are_casefolded_and_collected(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("dan\nDengan\n", encoding="utf-8")
        assert load_stopwords(path) == {"dan", "dengan"}

    def test_comments_and_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\n\ndi\n", encoding="utf-8")
        assert load_stopwords(path) == {"di"}

    def test_only_a_line_feed_ends_an_entry(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("dan\u2028di\nyang\n", encoding="utf-8")
        assert load_stopwords(path) == {"dan\u2028di", "yang"}

    def test_duplicates_collapse(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("di\ndi\n", encoding="utf-8")
        assert load_stopwords(path) == {"di"}

    def test_a_leading_byte_order_mark_is_not_part_of_the_first_word(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("yang\ndan\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        stopwords = load_stopwords(path)
        assert stopwords == {"yang", "dan"}
        assert tokenize("Sistem yang Cerdas", PreprocessConfig(stopwords=stopwords)) == [
            "sistem",
            "cerdas",
        ]

    def test_missing_file_raises_config_error_naming_the_path(self, tmp_path):
        missing = tmp_path / "nope.txt"
        with pytest.raises(ConfigError, match="nope.txt"):
            load_stopwords(missing)
