"""Tests for evaluation reports and corpus statistics."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tweetiment.errors import DataError
from tweetiment.evaluation import (
    baseline_report,
    corpus_stats,
    evaluate,
    format_report,
    format_stats,
)
from tweetiment.models import OpinionLexicon
from tweetiment.sentiment import Sentiment, check_labels
from sample_data import STATS_CORPUS

NEG, POS = Sentiment.NEGATIVE, Sentiment.POSITIVE

STATS_TWEETS = [tokens for tokens, _ in STATS_CORPUS]
STATS_LABELS = [Sentiment(label) for _, label in STATS_CORPUS]


def sentiments(min_size=1):
    return st.lists(st.sampled_from([NEG, POS]), min_size=min_size, max_size=12)


class TestEvaluate:
    def test_perfect(self):
        report = evaluate([POS, NEG], [POS, NEG])
        assert report.accuracy == 1.0
        assert report.n_docs == 2

    def test_half(self):
        report = evaluate([POS, POS], [POS, NEG])
        assert report.accuracy == 0.5
        assert report.true_positives == 1
        assert report.false_positives == 1
        assert report.true_negatives == 0
        assert report.false_negatives == 0

    def test_hand_counted(self):
        report = evaluate([NEG, NEG, NEG, POS], [POS, NEG, NEG, POS])
        assert report.accuracy == 0.75
        assert report.false_negatives == 1

    def test_confusion_sums_to_n_docs(self):
        report = evaluate([POS, NEG, POS], [NEG, NEG, POS])
        assert sum(map(sum, report.confusion)) == report.n_docs == 3

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            evaluate([POS], [POS, NEG])

    def test_empty(self):
        with pytest.raises(DataError, match="empty"):
            evaluate([], [])

    @pytest.mark.parametrize(
        "predictions, gold, bad",
        # without the label check, -1 counted as a positive prediction (accuracy 1.0)
        # and a gold 2 raised IndexError
        [([-1, 0], [1, 0], "-1"), ([1, 0], [2, 0], "2"), ([1.0, 0], [1, 0], "1.0")],
    )
    def test_labels_other_than_0_and_1(self, predictions, gold, bad):
        with pytest.raises(DataError, match=f"labels must be 0 or 1, got {bad}$"):
            evaluate(predictions, gold)

    @given(sentiments())
    def test_self_agreement_is_perfect(self, labels):
        assert evaluate(labels, labels).accuracy == 1.0

    @given(sentiments(min_size=2), st.randoms())
    def test_accuracy_invariant_under_pair_permutation(self, gold, rng):
        predictions = [POS if rng.random() < 0.5 else NEG for _ in gold]
        paired = list(zip(predictions, gold))
        baseline_accuracy = evaluate(predictions, gold).accuracy
        rng.shuffle(paired)
        shuffled_accuracy = evaluate([p for p, _ in paired], [g for _, g in paired]).accuracy
        assert shuffled_accuracy == baseline_accuracy


class TestCorpusStats:
    def test_hand_computed_corpus(self):
        stats = corpus_stats(STATS_TWEETS, STATS_LABELS)
        assert stats.n_tweets == 10
        assert stats.n_positive == 6
        assert stats.n_negative == 4

        assert stats.user_mentions.total == 4
        assert math.isclose(stats.user_mentions.average, 0.4, abs_tol=1e-9)
        assert stats.user_mentions.maximum == 2

        assert stats.emoticons.total == 6
        assert stats.emoticons.positive == 3
        assert stats.emoticons.negative == 3
        assert math.isclose(stats.emoticons.average, 0.6, abs_tol=1e-9)
        assert stats.emoticons.maximum == 3

        assert stats.urls.total == 4
        assert math.isclose(stats.urls.average, 0.4, abs_tol=1e-9)
        assert stats.urls.maximum == 2

        assert stats.unigrams.total == 30
        assert stats.unigrams.unique == 15
        assert math.isclose(stats.unigrams.average, 3.0, abs_tol=1e-9)
        assert stats.unigrams.maximum == 5

        assert stats.bigrams.total == 20
        assert stats.bigrams.unique == 19
        assert math.isclose(stats.bigrams.average, 2.0, abs_tol=1e-9)
        assert stats.bigrams.maximum is None

    def test_labels_are_counted_by_value(self):
        # counted by identity, int labels once gave 0 positive and 3 negative
        tweets = [["a"], ["b"], ["c"]]
        for labels in ([1, 0, 1], [POS, NEG, POS], [True, False, True]):
            stats = corpus_stats(tweets, labels)
            assert (stats.n_positive, stats.n_negative) == (2, 1)
        assert corpus_stats(tweets, [1, None, 0]).n_positive is None
        with pytest.raises(DataError, match="labels must be 0 or 1, got 2"):
            corpus_stats(tweets, [1, 2, None])

    def test_one_label_per_tweet(self):
        # a label list of another length was once counted as given
        with pytest.raises(DataError, match="2 labels for 1 tweets"):
            corpus_stats([["a"]], [1, 0])
        with pytest.raises(DataError, match="1 labels for 2 tweets"):
            corpus_stats([["a"], ["b"]], [1])

    def test_single_tweet_example(self):
        stats = corpus_stats([["USER_MENTION", "hi", "EMO_POS"]], [POS])
        assert stats.user_mentions.total == 1
        assert stats.user_mentions.average == 1.0
        assert stats.user_mentions.maximum == 1
        assert stats.emoticons.total == 1
        assert stats.emoticons.positive == 1
        assert stats.emoticons.negative == 0
        assert stats.unigrams.total == 3
        assert stats.unigrams.unique == 3

    def test_empty_corpus(self):
        stats = corpus_stats([], [])
        assert stats.n_tweets == 0
        assert stats.n_positive == 0
        assert stats.n_negative == 0
        assert stats.unigrams.total == 0
        assert stats.unigrams.average == 0.0
        assert stats.bigrams.unique == 0

    def test_unlabeled_corpus_has_no_label_counts(self):
        stats = corpus_stats([["hi"], ["there"]])
        assert stats.n_tweets == 2
        assert stats.n_positive is None
        assert stats.n_negative is None

    def test_partially_labeled_treated_as_unlabeled(self):
        stats = corpus_stats([["hi"], ["there"]], [POS, None])
        assert stats.n_positive is None

    def test_doubling_doubles_totals_keeps_averages(self):
        once = corpus_stats(STATS_TWEETS, STATS_LABELS)
        twice = corpus_stats(STATS_TWEETS * 2, STATS_LABELS * 2)
        assert twice.unigrams.total == 2 * once.unigrams.total
        assert twice.user_mentions.total == 2 * once.user_mentions.total
        assert math.isclose(twice.unigrams.average, once.unigrams.average, abs_tol=1e-9)
        assert twice.unigrams.maximum == once.unigrams.maximum

    @given(st.lists(st.lists(st.sampled_from(["a", "b", "URL", "EMO_POS"]), max_size=5), max_size=6))
    def test_totals_additive_under_concatenation(self, tokens_lists):
        half = len(tokens_lists) // 2
        whole = corpus_stats(tokens_lists)
        left = corpus_stats(tokens_lists[:half])
        right = corpus_stats(tokens_lists[half:])
        assert whole.unigrams.total == left.unigrams.total + right.unigrams.total
        assert whole.bigrams.total == left.bigrams.total + right.bigrams.total
        assert whole.urls.total == left.urls.total + right.urls.total
        assert whole.emoticons.total == left.emoticons.total + right.emoticons.total

    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c"]), max_size=5), max_size=6))
    def test_averages_consistent_with_totals(self, tokens_lists):
        stats = corpus_stats(tokens_lists)
        if stats.n_tweets:
            assert math.isclose(
                stats.unigrams.average, stats.unigrams.total / stats.n_tweets, abs_tol=1e-9
            )
        assert stats.unigrams.unique <= stats.unigrams.total


class TestBaselineReport:
    lexicon = OpinionLexicon(
        positive_words=frozenset({"good"}), negative_words=frozenset({"bad"})
    )

    def test_lexicon_aligned_corpus_beats_chance(self):
        corpus = [
            (["good", "day"], POS),
            (["good"], POS),
            (["bad", "news"], NEG),
            (["bad", "bad"], NEG),
        ]
        report = baseline_report(corpus, self.lexicon, [POS, POS, NEG, NEG])
        assert report.baseline_accuracy is not None
        assert report.baseline_accuracy > 0.5

    def test_identical_predictions_equal_accuracy(self):
        corpus = [(["good"], POS), (["bad"], NEG)]
        # Model predictions replicate what the lexicon would say.
        report = baseline_report(corpus, self.lexicon, [POS, NEG])
        assert report.accuracy == report.baseline_accuracy == 1.0

    def test_empty_lexicon_forces_all_positive(self):
        empty = OpinionLexicon(positive_words=frozenset(), negative_words=frozenset())
        corpus = [(["x"], POS), (["y"], NEG), (["z"], POS), (["w"], POS)]
        report = baseline_report(corpus, empty, [NEG, NEG, NEG, NEG])
        assert report.baseline_accuracy == 0.75  # fraction of positive golds


class TestRendering:
    def test_stats_formatting(self):
        text = format_stats(corpus_stats(STATS_TWEETS, STATS_LABELS))
        assert "avg 0.4000" in text
        assert "max N/A" in text
        assert "positive      6" in text

    def test_unlabeled_stats_omit_label_rows(self):
        text = format_stats(corpus_stats([["hi"]]))
        assert "positive" not in text.splitlines()[1]

    def test_report_formatting(self):
        report = baseline_report(
            [(["good"], POS), (["bad"], NEG)],
            TestBaselineReport.lexicon,
            [POS, POS],
        )
        text = format_report(report)
        assert "accuracy: 0.5000" in text
        assert "baseline accuracy: 1.0000" in text


@pytest.mark.parametrize(
    "labels",
    [[Sentiment.POSITIVE, Sentiment.NEGATIVE], [], [True, 0, np.int64(1), np.uint8(0), Sentiment.POSITIVE]],
)
def test_check_labels_accepts_integers_0_and_1(labels):
    assert check_labels(iter(labels)) == labels


@pytest.mark.parametrize(
    "labels, bad",
    [
        ([Sentiment.POSITIVE, 2, -1], "2"),
        ([Sentiment.NEGATIVE, np.int64(3)], repr(np.int64(3))),
        ([Sentiment.POSITIVE, 1.0], "1.0"),
        ([Sentiment.POSITIVE, "1"], "'1'"),
        ([None, Sentiment.POSITIVE], "None"),
    ],
)
def test_check_labels_names_the_first_other_label(labels, bad):
    # a list that is not all Sentiment members is checked label by label
    with pytest.raises(DataError, match=re.escape(f"labels must be 0 or 1, got {bad}") + "$"):
        check_labels(labels)
