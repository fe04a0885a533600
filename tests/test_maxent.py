"""Tests for the MaxEnt classifier and its two trainers.

Two independent oracles keep the trainers honest: a scalar fixed-point
recurrence computed in plain arithmetic for the two-document corpus, and
a quasi-Newton optimizer (scipy L-BFGS-B) maximizing the same conditional
log-likelihood for the four-document corpus.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import logsumexp

from sample_data import assert_training_rejected, row, rows
from tweetiment.errors import DataError
from tweetiment.features import (
    FREQUENCY,
    PRESENCE,
    build_vocabulary,
    class_scores,
    document_matrix,
)
from tweetiment.models import (
    MaxEntModel,
    TrainerConfig,
    maxent_predict,
    maxent_train,
)
from tweetiment.models.maxent import _forward, maxent_probs
from tweetiment.normalize import TokenBatch
from tweetiment.sentiment import Sentiment


# Two separable documents: feature 0 fires only with positive, 1 only
# with negative.  Document mass is 1 everywhere, so GIS and IIS perform
# literally the same update each iteration.
TWO_DOCS = [
    (row({0: 1}), Sentiment.POSITIVE),
    (row({1: 1}), Sentiment.NEGATIVE),
]

# Four documents over three features; documents 1 and 4 share features
# but disagree on the label, so the corpus is not fully separable and
# every (feature, class) pair carries empirical mass.  One direction
# still separates documents 2 and 3, so the likelihood supremum sits at
# infinity and scaling approaches it slowly; expectations converge all
# the same.
FOUR_DOCS = [
    (row({0: 1, 1: 1}), Sentiment.POSITIVE),
    (row({0: 1, 2: 1}), Sentiment.NEGATIVE),
    (row({1: 1, 2: 1}), Sentiment.POSITIVE),
    (row({0: 1, 1: 1}), Sentiment.NEGATIVE),
]

# Every singleton pattern here occurs with both labels, which rules out
# any weakly separating direction: the optimum is finite, interior, and
# unique up to the per-feature softmax gauge.  The mixed three-feature
# pair couples the features so the trainers cannot solve one column at a
# time.
INTERIOR_DOCS = (
    [(row({0: 1}), Sentiment.POSITIVE)] * 2
    + [(row({0: 1}), Sentiment.NEGATIVE)]
    + [(row({1: 1}), Sentiment.POSITIVE)]
    + [(row({1: 1}), Sentiment.NEGATIVE)] * 2
    + [(row({0: 1, 1: 1, 2: 1}), Sentiment.POSITIVE)]
    + [(row({0: 1, 1: 1, 2: 1}), Sentiment.NEGATIVE)]
    + [(row({2: 1}), Sentiment.POSITIVE)]
    + [(row({2: 1}), Sentiment.NEGATIVE)]
)


def expectations(model, corpus):
    """Empirical and model feature expectations, in plain arithmetic."""
    vocab = model.vocab_size
    empirical = np.zeros((2, vocab))
    modeled = np.zeros((2, vocab))
    for vector, label in corpus:
        probs = maxent_probs(model, vector)[0]
        for i, v in vector.entries.items():
            empirical[int(label), i] += v
            for c in (0, 1):
                modeled[c, i] += probs[c] * v
    return empirical, modeled


class TestTrainerConfig:
    def test_defaults(self):
        config = TrainerConfig()
        assert config.algorithm == "iis"
        assert config.max_iterations == 100
        assert config.ll_tolerance == 1e-6

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            TrainerConfig(algorithm="sgd")

    def test_zero_iterations_forbidden(self):
        with pytest.raises(ValueError):
            TrainerConfig(max_iterations=0)

    def test_zero_tolerance_forbidden(self):
        with pytest.raises(ValueError):
            TrainerConfig(ll_tolerance=0.0)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf])
    def test_non_finite_tolerance_forbidden(self, tolerance):
        # NaN passes a `<= 0` test and makes the stopping rule never fire
        with pytest.raises(ValueError, match="finite"):
            TrainerConfig(ll_tolerance=tolerance)


class TestMaxentProb:
    def test_zero_weights_uniform(self):
        model = MaxEntModel(weights=np.zeros((2, 3)), vocab_size=3)
        assert np.allclose(maxent_probs(model, row({0: 1, 2: 2}))[0], [0.5, 0.5])

    def test_empty_doc_uniform(self):
        model = MaxEntModel(weights=np.random.default_rng(0).normal(size=(2, 3)), vocab_size=3)
        assert np.allclose(maxent_probs(model, row({}))[0], [0.5, 0.5])

    def test_single_weight_spot_value(self):
        weights = np.zeros((2, 1))
        weights[1, 0] = 1.0
        model = MaxEntModel(weights=weights, vocab_size=1)
        probs = maxent_probs(model, row({0: 1}))[0]
        assert math.isclose(probs[1], math.e / (math.e + 1), abs_tol=1e-12)

    def test_wider_matrix_rejected(self):
        # an index the model has no weight for is an error, not a zero
        model = MaxEntModel(weights=np.ones((2, 1)), vocab_size=1)
        with pytest.raises(ValueError, match="wider than the model"):
            maxent_probs(model, row({5: 3}))[0]

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.dictionaries(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=3),
            max_size=4,
        ),
    )
    def test_distribution_sums_to_one(self, rng_seed, entries):
        weights = np.random.default_rng(rng_seed).normal(scale=5.0, size=(2, 4))
        model = MaxEntModel(weights=weights, vocab_size=4)
        probs = maxent_probs(model, row(entries))[0]
        assert math.isclose(probs.sum(), 1.0, abs_tol=1e-9)
        assert (probs > 0).all()

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.dictionaries(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=3),
            max_size=4,
        ),
    )
    def test_per_feature_shift_invariance(self, rng_seed, entries):
        rng = np.random.default_rng(rng_seed)
        weights = rng.normal(size=(2, 4))
        shifts = rng.normal(size=4)
        model = MaxEntModel(weights=weights, vocab_size=4)
        shifted = MaxEntModel(weights=weights + shifts[None, :], vocab_size=4)
        doc = row(entries)
        assert np.allclose(
            maxent_probs(model, doc)[0], maxent_probs(shifted, doc)[0], atol=1e-12
        )


class TestMaxentTrainErrors:
    def test_empty_corpus(self):
        assert_training_rejected("empty", "gis", "iis")

    def test_single_class(self):
        assert_training_rejected("single_class", "gis", "iis")

    def test_no_active_features(self):
        corpus = [(row({}), Sentiment.POSITIVE), (row({}), Sentiment.NEGATIVE)]
        with pytest.raises(DataError, match="no active features"):
            maxent_train(corpus, vocab_size=2)

    @pytest.mark.parametrize("algorithm", ["gis", "iis"])
    def test_only_zero_feature_values(self, algorithm):
        # stored zeros are entries, but no feature is active
        corpus = [(row({0: 0.0}), Sentiment.POSITIVE), (row({1: 0.0}), Sentiment.NEGATIVE)]
        with pytest.raises(DataError, match="no active features"):
            maxent_train(corpus, vocab_size=2, config=TrainerConfig(algorithm=algorithm))

    @pytest.mark.parametrize("algorithm", ["gis", "iis"])
    @pytest.mark.parametrize("value", [-5.0, math.nan, math.inf])
    def test_bad_feature_value(self, value, algorithm):
        assert_training_rejected(str(value), algorithm)


def scalar_recurrence(iterations):
    """Weight of the separating feature on TWO_DOCS after n scaling steps.

    Both documents have mass 1, so each step adds log(1 / P(label|doc)),
    and by symmetry one scalar tracks both active weights.
    """
    lam = 0.0
    for _ in range(iterations):
        p = math.exp(lam) / (math.exp(lam) + 1.0)
        lam += math.log(1.0 / p)
    return lam


class TestGisTraining:
    def test_one_step_values(self):
        config = TrainerConfig(algorithm="gis", max_iterations=1)
        model = maxent_train(TWO_DOCS, vocab_size=2, config=config)
        assert math.isclose(model.weights[1, 0], math.log(2.0), abs_tol=1e-12)
        assert math.isclose(model.weights[0, 1], math.log(2.0), abs_tol=1e-12)
        assert model.weights[0, 0] == 0.0  # zero empirical mass stays frozen
        assert model.weights[1, 1] == 0.0

    def test_one_step_shrinks_expectation_gap(self):
        config = TrainerConfig(algorithm="gis", max_iterations=1)
        model = maxent_train(TWO_DOCS, vocab_size=2, config=config)
        uniform = MaxEntModel(weights=np.zeros((2, 2)), vocab_size=2)
        empirical, before = expectations(uniform, TWO_DOCS)
        _, after = expectations(model, TWO_DOCS)
        for c, i in [(1, 0), (0, 1)]:
            assert abs(after[c, i] - empirical[c, i]) < abs(before[c, i] - empirical[c, i])

    def test_hundred_steps_match_scalar_recurrence(self):
        config = TrainerConfig(algorithm="gis", max_iterations=100)
        model = maxent_train(TWO_DOCS, vocab_size=2, config=config)
        expected = scalar_recurrence(100)
        assert math.isclose(model.weights[1, 0], expected, abs_tol=1e-9)
        assert math.isclose(model.weights[0, 1], expected, abs_tol=1e-9)

    def test_separating_direction(self):
        config = TrainerConfig(algorithm="gis", max_iterations=100)
        model = maxent_train(TWO_DOCS, vocab_size=2, config=config)
        assert maxent_probs(model, row({0: 1}))[0][1] > 0.9
        assert maxent_predict(model, row({0: 1})) is Sentiment.POSITIVE
        assert maxent_predict(model, row({1: 1})) is Sentiment.NEGATIVE

    def test_ll_history_monotone(self):
        config = TrainerConfig(algorithm="gis", max_iterations=200, ll_tolerance=1e-12)
        model = maxent_train(FOUR_DOCS, vocab_size=3, config=config)
        history = model.ll_history
        assert len(history) >= 2
        for earlier, later in zip(history, history[1:]):
            assert later >= earlier - 1e-9

    def test_deterministic(self):
        config = TrainerConfig(algorithm="gis", max_iterations=50)
        a = maxent_train(FOUR_DOCS, vocab_size=3, config=config)
        b = maxent_train(FOUR_DOCS, vocab_size=3, config=config)
        assert np.array_equal(a.weights, b.weights)


@pytest.mark.parametrize("algorithm", ["gis", "iis"])
def test_separable_corpus_runs_every_update(algorithm):
    # the likelihood of separable data has no maximum, so its gain per
    # update never falls below the default tolerance
    model = maxent_train(TWO_DOCS, vocab_size=2, config=TrainerConfig(algorithm=algorithm))
    assert len(model.ll_history) == TrainerConfig().max_iterations + 1 == 101


@pytest.mark.parametrize("algorithm", ["gis", "iis"])
def test_tolerance_stops_a_corpus_with_a_maximum(algorithm):
    # one document given with each label: the uniform start is the
    # maximum, so the first update gains nothing and training stops
    doc = row({0: 1, 1: 2})
    corpus = [(doc, Sentiment.POSITIVE), (doc, Sentiment.NEGATIVE)]
    model = maxent_train(corpus, vocab_size=2, config=TrainerConfig(algorithm=algorithm))
    assert len(model.ll_history) == 2


class TestIisTraining:
    def test_matches_gis_when_masses_are_uniform(self):
        # All TWO_DOCS documents have mass 1, where the IIS update equation
        # reduces to the GIS one, so the trainers must agree step for step.
        gis = maxent_train(
            TWO_DOCS, vocab_size=2, config=TrainerConfig(algorithm="gis", max_iterations=40)
        )
        iis = maxent_train(
            TWO_DOCS, vocab_size=2, config=TrainerConfig(algorithm="iis", max_iterations=40)
        )
        assert np.allclose(gis.weights, iis.weights, atol=1e-9)

    def test_ll_history_monotone(self):
        config = TrainerConfig(algorithm="iis", max_iterations=200, ll_tolerance=1e-12)
        model = maxent_train(FOUR_DOCS, vocab_size=3, config=config)
        for earlier, later in zip(model.ll_history, model.ll_history[1:]):
            assert later >= earlier - 1e-9

    def test_separating_direction(self):
        model = maxent_train(TWO_DOCS, vocab_size=2)  # default config is IIS
        assert maxent_probs(model, row({0: 1}))[0][1] > 0.9

    def test_deterministic(self):
        config = TrainerConfig(algorithm="iis", max_iterations=50)
        a = maxent_train(FOUR_DOCS, vocab_size=3, config=config)
        b = maxent_train(FOUR_DOCS, vocab_size=3, config=config)
        assert np.array_equal(a.weights, b.weights)


class TestConstraintSatisfaction:
    def test_converged_expectations_match(self):
        config = TrainerConfig(algorithm="gis", max_iterations=5000, ll_tolerance=1e-13)
        model = maxent_train(FOUR_DOCS, vocab_size=3, config=config)
        empirical, modeled = expectations(model, FOUR_DOCS)
        assert np.abs(modeled - empirical).max() < 1e-3

    def test_iis_reaches_gis_likelihood(self):
        gis = maxent_train(
            FOUR_DOCS,
            vocab_size=3,
            config=TrainerConfig(algorithm="gis", max_iterations=5000, ll_tolerance=1e-13),
        )
        iis = maxent_train(
            FOUR_DOCS,
            vocab_size=3,
            config=TrainerConfig(algorithm="iis", max_iterations=5000, ll_tolerance=1e-13),
        )
        assert iis.ll_history[-1] >= gis.ll_history[-1] - 1e-6


def reference_nll(flat_weights, dense_docs, labels):
    """Conditional negative log-likelihood and gradient, written directly
    from the model equation with dense arithmetic."""
    n_docs, vocab = dense_docs.shape
    weights = flat_weights.reshape(2, vocab)
    scores = dense_docs @ weights.T
    norms = logsumexp(scores, axis=1)
    nll = -(scores[np.arange(n_docs), labels] - norms).sum()
    probs = np.exp(scores - norms[:, None])
    grad = np.zeros_like(weights)
    for c in (0, 1):
        grad[c] = -(dense_docs[labels == c].sum(axis=0) - probs[:, c] @ dense_docs)
    return nll, grad.ravel()


def densify(corpus, vocab_size):
    dense = np.zeros((len(corpus), vocab_size))
    labels = np.empty(len(corpus), dtype=int)
    for d, (vector, label) in enumerate(corpus):
        labels[d] = int(label)
        for i, v in vector.entries.items():
            dense[d, i] = v
    return dense, labels


def lbfgs_reference(corpus, vocab_size):
    dense, labels = densify(corpus, vocab_size)
    result = minimize(
        reference_nll,
        x0=np.zeros(2 * vocab_size),
        args=(dense, labels),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 500, "ftol": 1e-15, "gtol": 1e-12},
    )
    return MaxEntModel(weights=result.x.reshape(2, vocab_size), vocab_size=vocab_size), -result.fun


class TestAgainstConvexOptimizer:
    def test_final_likelihood_matches_lbfgs(self):
        _, optimum_ll = lbfgs_reference(INTERIOR_DOCS, vocab_size=3)
        for algorithm in ("gis", "iis"):
            config = TrainerConfig(algorithm=algorithm, max_iterations=5000, ll_tolerance=1e-13)
            model = maxent_train(INTERIOR_DOCS, vocab_size=3, config=config)
            assert model.ll_history[-1] <= optimum_ll + 1e-9  # optimizer bound holds
            assert model.ll_history[-1] >= optimum_ll - 1e-6  # and we reach it

    def test_predictions_match_lbfgs_weights(self):
        reference, _ = lbfgs_reference(INTERIOR_DOCS, vocab_size=3)
        trained = maxent_train(
            INTERIOR_DOCS,
            vocab_size=3,
            config=TrainerConfig(algorithm="iis", max_iterations=5000, ll_tolerance=1e-13),
        )
        probe_docs = [row({0: 1}), row({1: 1}), row({2: 1}), row({0: 1, 1: 1}), row({0: 2, 2: 1})]
        for doc in probe_docs:
            assert np.allclose(
                maxent_probs(trained, doc)[0], maxent_probs(reference, doc)[0], atol=1e-5
            )


class TestMaxentPredict:
    def test_zero_weights_tie_positive(self):
        model = MaxEntModel(weights=np.zeros((2, 2)), vocab_size=2)
        assert maxent_predict(model, row({0: 1})) is Sentiment.POSITIVE

    def test_empty_doc_tie_positive(self):
        model = MaxEntModel(weights=np.ones((2, 2)), vocab_size=2)
        assert maxent_predict(model, row({})) is Sentiment.POSITIVE


class TestForwardNormalizer:
    """_forward normalizes by scipy.special.logsumexp's formula without
    importing scipy.special; it must stay bit-equal to it."""

    @staticmethod
    def assert_bit_equal_to_logsumexp(score_rows):
        n = len(score_rows)
        # An identity document matrix makes the weights' columns the scores.
        matrix = rows([{d: 1} for d in range(n)])
        weights = np.array(score_rows, dtype=float).reshape(n, 2).T.copy()
        labels = np.arange(n) % 2
        log_probs, ll = _forward(matrix, weights, labels)
        scores = class_scores(matrix, weights)
        expected = scores - logsumexp(scores, axis=1, keepdims=True)
        assert np.array_equal(log_probs, expected)
        assert ll == float(expected[np.arange(n), labels].sum())

    def test_random_scores(self):
        # where NumPy's exp is vectorized (AVX-512), np.logaddexp differs from
        # logsumexp in the last bit on about 5% of such rows, so a formula
        # that is only close fails here
        rng = np.random.default_rng(7)
        self.assert_bit_equal_to_logsumexp(rng.normal(size=(10_000, 2)))

    def test_tied_scores(self):
        self.assert_bit_equal_to_logsumexp([[0.0, 0.0], [-0.0, 0.0], [3.5, 3.5], [-1e300, -1e300]])

    def test_large_magnitude_scores(self):
        self.assert_bit_equal_to_logsumexp(
            [[1e300, -1e300], [-1e300, 1e300], [7e15, 7e15 + 2], [-1e12, 1e-12], [709.0, -745.0]]
        )

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e300, max_value=1e300),
                st.floats(min_value=-1e300, max_value=1e300),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_any_finite_scores(self, score_rows):
        self.assert_bit_equal_to_logsumexp(score_rows)


def zipf_training_corpus(mode):
    """6,000 documents of 1 to 29 Zipf-drawn words, by a vocabulary of
    8,000 unigrams and 8,000 bigrams: (the corpus, its matrix, its width)."""
    rng = np.random.default_rng(5)
    lengths = rng.integers(1, 30, 6_000)
    ids = (rng.zipf(1.05, lengths.sum()) - 1) % 40_000
    offsets = np.concatenate(([0], lengths.cumsum()))
    batch = TokenBatch([f"w{k}" for k in range(40_000)], ids.astype(np.int32), offsets.astype(np.int32))
    vocab = build_vocabulary(batch, 8_000, 8_000)
    matrix = document_matrix(batch, vocab, mode)
    return [(matrix, np.arange(len(batch)) % 2)], matrix, len(vocab)


@pytest.mark.parametrize("mode", [PRESENCE, FREQUENCY])
def test_gis_training_peak_stays_within_a_multiple_of_the_matrix(mode, traced_peak):
    # GIS peaked at 2.37 times the training matrix's bytes in both modes
    # when its products ran through np.bincount; the row layout may not
    # take that up by more than a tenth.
    corpus, matrix, width = zipf_training_corpus(mode)
    config = TrainerConfig(algorithm="gis", max_iterations=5, ll_tolerance=1e-12)
    _, peak = traced_peak(maxent_train, corpus, width, config)
    assert peak < 1.1 * 2.37 * (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)


def test_iis_training_peak_stays_within_a_multiple_of_the_matrix(traced_peak):
    # IIS peaked at 5.31 times the training matrix's data and indices when
    # it gathered each entry's document through an int64 row per entry,
    # kept on the matrix beside its row layout.  Spreading each document's
    # values over its entries with np.repeat holds no such array: 4.82.
    # Summing (feature, document mass) buckets block by block, and taking
    # the Newton steps over the buckets, holds no float array per entry:
    # 3.96.  The bound leaves under a tenth above that.
    corpus, matrix, width = zipf_training_corpus(FREQUENCY)
    _, peak = traced_peak(maxent_train, corpus, width, TrainerConfig("iis", 2, 1e-12))
    assert peak < 4.3 * (matrix.data.nbytes + matrix.indices.nbytes)
