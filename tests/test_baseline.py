"""Tests for the lexicon word-counting baseline."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tweetiment.errors import LexiconConflictError
from tweetiment.models import OpinionLexicon, baseline_classify, load_opinion_lexicon
from tweetiment.models.baseline import baseline_predict_many
from tweetiment.normalize import TokenBatch, normalize_batch
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


def oracle_classify(tweet, lexicon):
    """The per-token loop the batch baseline replaced."""
    positive_hits = 0
    negative_hits = 0
    for token in tweet:
        if token in lexicon.positive_words:
            positive_hits += 1
        elif token in lexicon.negative_words:
            negative_hits += 1
    if positive_hits >= negative_hits:
        return Sentiment.POSITIVE
    return Sentiment.NEGATIVE


WORDS = ["good", "great", "bad", "sad", "the", "URL", "EMO_POS"]


@st.composite
def lexicons(draw):
    """A lexicon over WORDS, either side possibly empty."""
    n = len(WORDS)
    sides = draw(st.lists(st.sampled_from([None, "pos", "neg"]), min_size=n, max_size=n))
    return OpinionLexicon(
        positive_words=frozenset(w for w, side in zip(WORDS, sides) if side == "pos"),
        negative_words=frozenset(w for w, side in zip(WORDS, sides) if side == "neg"),
    )


class TestBaselinePredictMany:
    @given(st.lists(st.lists(st.sampled_from(WORDS + ["x"]), max_size=8), max_size=12), lexicons())
    def test_token_lists_match_the_loop(self, tweets, lexicon):
        expected = [oracle_classify(tweet, lexicon) for tweet in tweets]
        assert baseline_predict_many(tweets, lexicon) == expected
        assert baseline_predict_many(TokenBatch.of(tweets), lexicon) == expected
        assert [baseline_classify(tweet, lexicon) for tweet in tweets] == expected

    @given(
        st.lists(
            st.lists(st.sampled_from(["good,", "good", "Good!", "bad", "bad...", ":(", "zz"]))
            .map(" ".join),
            max_size=10,
        ),
        lexicons(),
    )
    def test_normalized_batches_match_the_loop(self, raws, lexicon):
        # "good," and "good" are two raw forms, two ids, one word
        batch = normalize_batch(raws)
        assert baseline_predict_many(batch, lexicon) == [oracle_classify(t, lexicon) for t in batch]

    def test_two_raw_forms_of_one_word_both_count(self):
        # the second tweet's "good" is the word's second id
        batch = normalize_batch(["good, bad", "good good bad"])
        assert batch.words == ["good", "bad", "good"]
        assert batch.counts_in({"good"}).tolist() == [1, 2]
        assert baseline_predict_many(batch, LEXICON) == [Sentiment.POSITIVE] * 2

    def test_empty_tweets_and_batches_are_ties(self):
        assert baseline_predict_many([[], ["bad"], []], LEXICON) == [
            Sentiment.POSITIVE, Sentiment.NEGATIVE, Sentiment.POSITIVE,
        ]
        assert baseline_predict_many([], LEXICON) == []
        empty = normalize_batch(["", "!!!"])
        assert baseline_predict_many(empty, LEXICON) == [Sentiment.POSITIVE] * 2

    def test_an_empty_side_never_wins(self):
        negative_only = OpinionLexicon(frozenset(), frozenset({"bad"}))
        assert baseline_predict_many([["good"], ["bad"], ["bad", "good"]], negative_only) == [
            Sentiment.POSITIVE, Sentiment.NEGATIVE, Sentiment.NEGATIVE,
        ]

    def test_ties_go_positive(self):
        tweets = [["good", "bad"], ["sad", "x", "great"], ["bad", "good", "sad", "happy"]]
        assert baseline_predict_many(tweets, LEXICON) == [Sentiment.POSITIVE] * 3


class TestCountsIn:
    # a hand-made batch: "good" twice in words, "unused" never in ids, an empty tweet
    BATCH = TokenBatch(
        ["good", "unused", "bad", "good"],
        np.array([0, 3, 2, 3, 0], np.int32),
        np.array([0, 2, 2, 5], np.int32),
    )

    @pytest.mark.parametrize(
        "words,expected",
        [
            ({"good"}, [2, 0, 2]),
            ({"bad"}, [0, 0, 1]),
            ({"good", "bad"}, [2, 0, 3]),
            ({"unused"}, [0, 0, 0]),
            (set(), [0, 0, 0]),
        ],
    )
    def test_hand_made_batch(self, words, expected):
        counts = self.BATCH.counts_in(words)
        assert counts.tolist() == expected
        assert counts.tolist() == [sum(token in words for token in tweet) for tweet in self.BATCH]

    def test_empty_batch(self):
        assert TokenBatch.of([]).counts_in({"good"}).tolist() == []

    @given(
        st.lists(st.lists(st.sampled_from(WORDS), max_size=6), max_size=10),
        st.sets(st.sampled_from(WORDS)),
    )
    def test_counts_match_the_token_lists(self, tweets, words):
        counts = TokenBatch.of(tweets).counts_in(words)
        assert counts.tolist() == [sum(token in words for token in tweet) for tweet in tweets]
