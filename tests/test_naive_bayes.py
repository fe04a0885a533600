"""Tests for the Naive Bayes classifier, including a brute-force oracle."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tweetiment.errors import DataError
from tweetiment.features import FREQUENCY, PRESENCE, FeatureVector
from tweetiment.models import nb_predict, nb_train
from tweetiment.sentiment import Sentiment


def fv(entries, mode=FREQUENCY):
    return FeatureVector(entries=entries, mode=mode)


# The two-document worked example: P(good|pos) = (2+1)/(2+2) = 0.75,
# P(good|neg) = (0+1)/(1+2) = 1/3, priors 1/2 each.
WORKED_CORPUS = [
    (fv({0: 2}), Sentiment.POSITIVE),  # "good good"
    (fv({1: 1}), Sentiment.NEGATIVE),  # "bad"
]


def oracle_log_scores(train_pairs, doc_entries, vocab_size, alpha):
    """Plain-arithmetic evaluation of the smoothed product formula."""
    docs_per_class = {0: 0, 1: 0}
    counts = {(c, i): 0 for c in (0, 1) for i in range(vocab_size)}
    for vector, label in train_pairs:
        c = int(label)
        docs_per_class[c] += 1
        for i, v in vector.entries.items():
            if 0 <= i < vocab_size:
                counts[(c, i)] += v
    n_docs = docs_per_class[0] + docs_per_class[1]
    scores = []
    for c in (0, 1):
        total = sum(counts[(c, i)] for i in range(vocab_size))
        score = math.log(docs_per_class[c] / n_docs)
        for i, v in doc_entries.items():
            if 0 <= i < vocab_size:
                likelihood = (counts[(c, i)] + alpha) / (total + alpha * vocab_size)
                score += v * math.log(likelihood)
        scores.append(score)
    return scores


class TestNbTrain:
    def test_worked_example(self):
        model = nb_train(WORKED_CORPUS, vocab_size=2, alpha=1.0)
        assert math.isclose(math.exp(model.feature_log_likelihood[1, 0]), 0.75, abs_tol=1e-12)
        assert math.isclose(math.exp(model.feature_log_likelihood[0, 0]), 1 / 3, abs_tol=1e-12)
        assert math.isclose(math.exp(model.class_log_prior[0]), 0.5, abs_tol=1e-12)
        assert math.isclose(math.exp(model.class_log_prior[1]), 0.5, abs_tol=1e-12)

    def test_empty_corpus(self):
        with pytest.raises(DataError, match="no training data"):
            nb_train([], vocab_size=2)

    def test_single_class(self):
        with pytest.raises(DataError, match="degenerate labels"):
            nb_train([(fv({0: 1}), Sentiment.POSITIVE)], vocab_size=2)

    def test_mixed_modes(self):
        corpus = [
            (fv({0: 1}, PRESENCE), Sentiment.POSITIVE),
            (fv({1: 1}, FREQUENCY), Sentiment.NEGATIVE),
        ]
        with pytest.raises(DataError, match="mixed feature modes"):
            nb_train(corpus, vocab_size=2)

    @pytest.mark.parametrize("value", [-5.0, math.nan, math.inf])
    def test_bad_feature_value(self, value):
        # Each of these gave NaN likelihoods; a NaN value gave no warning.
        corpus = [(fv({0: value}), Sentiment.POSITIVE), (fv({1: 1}), Sentiment.NEGATIVE)]
        with pytest.raises(DataError, match="finite and non-negative"):
            nb_train(corpus, vocab_size=2)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            nb_train(WORKED_CORPUS, vocab_size=2, alpha=0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha(self, alpha):
        # NaN passes an `alpha <= 0` test and would write an all-NaN model
        with pytest.raises(ValueError, match="finite"):
            nb_train(WORKED_CORPUS, vocab_size=2, alpha=alpha)

    def test_likelihoods_normalize(self):
        model = nb_train(WORKED_CORPUS, vocab_size=2)
        sums = np.exp(model.feature_log_likelihood).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-9)

    def test_priors_normalize(self):
        model = nb_train(WORKED_CORPUS, vocab_size=2)
        assert math.isclose(np.exp(model.class_log_prior).sum(), 1.0, abs_tol=1e-12)

    def test_duplication_invariance_of_priors(self):
        # Smoothed likelihoods are NOT duplication-invariant: tripling the
        # counts shrinks the relative weight of the additive constant,
        # (3k+a)/(3n+aV) != (k+a)/(n+aV).  Only the priors are ratios of
        # raw counts.
        once = nb_train(WORKED_CORPUS, vocab_size=2)
        thrice = nb_train(WORKED_CORPUS * 3, vocab_size=2)
        assert np.array_equal(once.class_log_prior, thrice.class_log_prior)


class TestNbPredict:
    def test_worked_example_prediction(self):
        model = nb_train(WORKED_CORPUS, vocab_size=2)
        label, scores = nb_predict(model, fv({0: 1}))
        assert label is Sentiment.POSITIVE
        assert scores[1] > scores[0]

    def test_empty_doc_ties_positive(self):
        model = nb_train(WORKED_CORPUS, vocab_size=2)
        label, scores = nb_predict(model, fv({}))
        assert label is Sentiment.POSITIVE
        assert scores[0] == scores[1]  # equal priors only

    def test_oov_same_as_empty(self):
        model = nb_train(WORKED_CORPUS, vocab_size=2)
        _, empty_scores = nb_predict(model, fv({}))
        _, oov_scores = nb_predict(model, fv({17: 3}))
        assert np.array_equal(empty_scores, oov_scores)

    def test_mode_mismatch_rejected(self):
        model = nb_train(WORKED_CORPUS, vocab_size=2)
        with pytest.raises(DataError, match="mode"):
            nb_predict(model, fv({0: 1}, PRESENCE))

    def test_presence_prediction_ignores_repeats(self):
        corpus = [
            (fv({0: 1}, PRESENCE), Sentiment.POSITIVE),
            (fv({1: 1}, PRESENCE), Sentiment.NEGATIVE),
        ]
        model = nb_train(corpus, vocab_size=2)
        label, _ = nb_predict(model, fv({0: 1}, PRESENCE))
        assert label is Sentiment.POSITIVE


def small_corpora():
    vector = st.dictionaries(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=2),
        max_size=3,
    ).map(fv)
    pair = st.tuples(vector, st.sampled_from([Sentiment.NEGATIVE, Sentiment.POSITIVE]))
    return st.lists(pair, min_size=2, max_size=6).filter(
        lambda pairs: len({label for _, label in pairs}) == 2
    )


class TestOracleAgreement:
    @given(
        small_corpora(),
        st.dictionaries(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=1, max_value=2),
            max_size=3,
        ),
    )
    def test_log_scores_match_brute_force(self, corpus, doc_entries):
        model = nb_train(corpus, vocab_size=3)
        _, scores = nb_predict(model, fv(doc_entries))
        expected = oracle_log_scores(corpus, doc_entries, vocab_size=3, alpha=1.0)
        assert math.isclose(scores[0], expected[0], abs_tol=1e-9)
        assert math.isclose(scores[1], expected[1], abs_tol=1e-9)

    @given(small_corpora())
    def test_determinism(self, corpus):
        a = nb_train(corpus, vocab_size=3)
        b = nb_train(corpus, vocab_size=3)
        assert np.array_equal(a.class_log_prior, b.class_log_prior)
        assert np.array_equal(a.feature_log_likelihood, b.feature_log_likelihood)
