"""Tests for the lexicon word-counting baseline."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tweetiment.errors import LexiconConflictError
from tweetiment.models import OpinionLexicon, baseline_classify, load_opinion_lexicon
from tweetiment.sentiment import Sentiment

LEXICON = OpinionLexicon(
    positive_words=frozenset({"good", "great", "happy"}),
    negative_words=frozenset({"bad", "sad", "awful"}),
)


class TestOpinionLexicon:
    def test_conflict_rejected(self):
        with pytest.raises(LexiconConflictError):
            OpinionLexicon(
                positive_words=frozenset({"fine", "odd"}),
                negative_words=frozenset({"odd"}),
            )

    def test_empty_sides_allowed(self):
        lex = OpinionLexicon(positive_words=frozenset(), negative_words=frozenset())
        assert baseline_classify(["anything"], lex) is Sentiment.POSITIVE

    def test_load_from_files(self, tmp_path):
        pos = tmp_path / "pos.txt"
        neg = tmp_path / "neg.txt"
        pos.write_text("; header comment\nGood\ngreat\n\n", encoding="utf-8")
        neg.write_text("bad\n", encoding="utf-8")
        lex = load_opinion_lexicon(pos, neg)
        assert lex.positive_words == {"good", "great"}
        assert lex.negative_words == {"bad"}

    def test_load_drops_byte_order_mark(self, tmp_path):
        pos = tmp_path / "pos.txt"
        neg = tmp_path / "neg.txt"
        pos.write_text("good\ngreat\n", encoding="utf-8-sig")
        neg.write_text("bad\n", encoding="utf-8-sig")
        lex = load_opinion_lexicon(pos, neg)
        assert lex.positive_words == {"good", "great"}
        assert lex.negative_words == {"bad"}

    def test_load_conflict(self, tmp_path):
        pos = tmp_path / "pos.txt"
        neg = tmp_path / "neg.txt"
        pos.write_text("odd\n", encoding="utf-8")
        neg.write_text("ODD\n", encoding="utf-8")
        with pytest.raises(LexiconConflictError):
            load_opinion_lexicon(pos, neg)


class TestBaselineClassify:
    def test_positive_majority(self):
        assert baseline_classify(["i", "feel", "good"], LEXICON) is Sentiment.POSITIVE

    def test_tie_goes_positive(self):
        assert baseline_classify(["good", "bad"], LEXICON) is Sentiment.POSITIVE

    def test_negative_majority(self):
        assert baseline_classify(["bad", "bad", "good"], LEXICON) is Sentiment.NEGATIVE

    def test_no_hits_is_a_tie(self):
        assert baseline_classify(["neutral", "words"], LEXICON) is Sentiment.POSITIVE

    @given(
        st.lists(st.sampled_from(sorted(LEXICON.positive_words)), max_size=5),
        st.lists(st.sampled_from(sorted(LEXICON.negative_words)), max_size=5),
        st.lists(st.sampled_from(["the", "a", "URL"]), max_size=5),
        st.randoms(),
    )
    def test_counting_rule(self, pos_hits, neg_hits, filler, rng):
        tweet = pos_hits + neg_hits + filler
        rng.shuffle(tweet)
        expected = (
            Sentiment.POSITIVE
            if len(pos_hits) >= len(neg_hits)
            else Sentiment.NEGATIVE
        )
        assert baseline_classify(tweet, LEXICON) is expected

    @given(
        st.lists(st.sampled_from(sorted(LEXICON.positive_words)), max_size=4),
        st.randoms(),
    )
    def test_balanced_tweets_classify_positive(self, pos_hits, rng):
        # One negative hit per positive hit, any order: always a tie.
        neg_pool = sorted(LEXICON.negative_words)
        tweet = pos_hits + [neg_pool[i % len(neg_pool)] for i in range(len(pos_hits))]
        rng.shuffle(tweet)
        assert baseline_classify(tweet, LEXICON) is Sentiment.POSITIVE
