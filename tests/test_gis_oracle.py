"""The GIS update and its products against their earlier implementation.

`oracle_matvec`, `oracle_class_totals`, `oracle_class_scores`,
`oracle_forward` and `oracle_gis_step` are the earlier code, kept verbatim
as the reference, except that `oracle_class_scores` calls `oracle_matvec`
where the earlier code wrote `matrix @ row`, and that `oracle_matvec` and
`oracle_class_totals` spread each row's index over its entries with
`np.repeat` where the earlier code read the matrix's cached `rows`, an
array that is gone (the same values).  The current products skip
the multiply by an all-ones matrix's data, gather otherwise, and update in
place, but sum in the same order, so weights and log-likelihoods must be
equal bit for bit, not within a tolerance.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from sample_data import rows
from tweetiment.features import (
    FEATURE_MODES,
    build_vocabulary,
    class_scores,
    class_totals,
    document_matrix,
)
from tweetiment.models.maxent import (
    _WEIGHT_LIMIT,
    GIS,
    TrainerConfig,
    _forward,
    _gis_step,
    _iis_step,
    _MassBuckets,
    maxent_train,
)


def oracle_matvec(self, vector):
    """matrix @ vector, summing each row's products in entry order, as
    scipy's CSR mat-vec does, so the results are bit-equal to it."""
    rows = np.arange(self.shape[0]).repeat(np.diff(self.indptr))
    products = np.bincount(rows, self.data * vector[self.indices], self.shape[0])
    return products.astype(float, copy=False)  # int64 when there are no entries


def oracle_class_totals(matrix, doc_weights):
    """doc_weights.T @ matrix, shape (2, columns), for (documents, 2) doc_weights.
    Each column adds its products in entry order, as scipy's transposed
    CSR product does, so the results are bit-equal to it."""
    rows = np.arange(matrix.shape[0]).repeat(np.diff(matrix.indptr))
    weighted = (matrix.data * column[rows] for column in doc_weights.T)
    totals = [np.bincount(matrix.indices, w, matrix.shape[1]) for w in weighted]
    return np.array(totals, float)  # bincount gives int64 when there are no entries


def oracle_class_scores(matrix, weights):
    """matrix @ weights.T, shape (documents, 2), as one mat-vec per weight
    row: the product with weights.T would copy the weights per call.  A
    narrower matrix scores as if padded with zero columns; a wider one
    raises ValueError."""
    if matrix.shape[1] > weights.shape[1]:
        raise ValueError(f"a {matrix.shape[1]}-column matrix is wider than the model")
    return np.stack([oracle_matvec(matrix, row) for row in weights], axis=1)


def oracle_forward(matrix, weights, labels):
    """Per-document log class distribution and total log-likelihood."""
    scores = oracle_class_scores(matrix, weights)
    # scipy.special.logsumexp's own formula for two columns, bit-equal to
    # it; importing scipy.special would add about 150 ms to every process.
    peak = scores.max(axis=1, keepdims=True)
    other = scores.min(axis=1, keepdims=True)
    log_norm = np.where(other == peak, peak + np.log(2), peak + np.log1p(np.exp(other - peak)))
    log_probs = scores - log_norm
    ll = float(log_probs[np.arange(len(labels)), labels].sum())
    return log_probs, ll


def oracle_gis_step(weights, matrix, probs, empirical, active, slack):
    model_expectation = oracle_class_totals(matrix, probs)
    # Where empirical mass exists, model mass is positive too (the same
    # document contributes to both), so the ratio is well-defined.
    ratio = np.ones_like(weights)
    np.divide(empirical, model_expectation, out=ratio, where=active)
    stepped = weights + np.log(ratio) / slack
    return np.clip(stepped, -_WEIGHT_LIMIT, _WEIGHT_LIMIT)


def oracle_gis_train(matrix, labels, vocab_size, config):
    """maxent_train's GIS path on a stacked matrix, on the oracle products."""
    empirical = oracle_class_totals(matrix, np.eye(2)[labels])
    active = empirical > 0
    slack = float(oracle_matvec(matrix, np.ones(vocab_size)).max())
    weights = np.zeros((2, vocab_size))
    log_probs, ll = oracle_forward(matrix, weights, labels)
    history = [ll]
    for _ in range(config.max_iterations):
        weights = oracle_gis_step(weights, matrix, np.exp(log_probs), empirical, active, slack)
        log_probs, new_ll = oracle_forward(matrix, weights, labels)
        history.append(new_ll)
        improvement = (new_ll - ll) / max(abs(ll), 1e-12)
        ll = new_ll
        if improvement < config.ll_tolerance:
            break
    return weights, tuple(history)


# Tweets through document_matrix give all-ones (presence) or count
# (frequency) matrices.  Fractional values, which only a DocumentMatrix
# built directly holds, give masses that are not integers.  Empty documents
# and features no document has (vocabulary terms the tweets lack, indices
# up to the width that are never drawn) come up often.
WORDS = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=8)
VALUES = st.one_of(st.just(1.0), st.integers(1, 4).map(float), st.floats(0.05, 6.0))
ENTRY_ROWS = st.lists(
    st.dictionaries(st.integers(0, 7), VALUES, max_size=5), min_size=1, max_size=14
)


@st.composite
def document_matrices(draw):
    if draw(st.booleans()):
        vocab_tweets = draw(st.lists(WORDS, min_size=1, max_size=6))
        vocab = build_vocabulary(vocab_tweets, n_unigrams=5, n_bigrams=draw(st.integers(0, 6)))
        tweets = draw(st.lists(WORDS, min_size=1, max_size=14))
        return document_matrix(tweets, vocab, draw(st.sampled_from(FEATURE_MODES)))
    return rows(draw(ENTRY_ROWS), 8 + draw(st.integers(0, 3)))


def draw_labels(data, n_docs):
    return np.array(data.draw(st.lists(st.integers(0, 1), min_size=n_docs, max_size=n_docs)))


# Starting weights include the clip limits and their neighbourhood, where
# one class's probability is as small as training can make it.
WEIGHTS = st.one_of(
    st.floats(-_WEIGHT_LIMIT, _WEIGHT_LIMIT),
    st.sampled_from([-_WEIGHT_LIMIT, -29.5, 29.5, _WEIGHT_LIMIT]),
)


def assert_identical(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


@settings(max_examples=200, deadline=None)
@given(docs=document_matrices(), data=st.data(), n_updates=st.integers(1, 8))
def test_training_matches_oracle(docs, data, n_updates):
    labels = draw_labels(data, docs.shape[0])
    assume(labels.min() == 0 and labels.max() == 1 and docs.data.any())
    config = TrainerConfig(algorithm=GIS, max_iterations=n_updates, ll_tolerance=1e-12)
    model = maxent_train([(docs, labels)], docs.shape[1], config)
    weights, history = oracle_gis_train(docs, labels, docs.shape[1], config)
    assert_identical(model.weights, weights)
    assert model.ll_history == history


@settings(max_examples=200, deadline=None)
@given(docs=document_matrices(), data=st.data())
def test_step_from_any_weights_matches_oracle(docs, data):
    # the corpus may hold one class or no entries, which training refuses
    n_docs, vocab_size = docs.shape
    labels = draw_labels(data, n_docs)
    weights = np.array(
        data.draw(st.lists(WEIGHTS, min_size=2 * vocab_size, max_size=2 * vocab_size))
    ).reshape(2, vocab_size)
    log_probs, ll = _forward(docs, weights, labels)
    expected_log_probs, expected_ll = oracle_forward(docs, weights, labels)
    assert_identical(log_probs, expected_log_probs)
    assert ll == expected_ll

    empirical = oracle_class_totals(docs, np.eye(2)[labels])
    assert_identical(class_totals(docs, np.eye(2)[labels]), empirical)
    slack = max(float(oracle_matvec(docs, np.ones(vocab_size)).max(initial=0.0)), 1.0)
    # the step reads only the largest document mass, its constant C
    masses = np.full(n_docs, slack)
    oracle_args = (docs, np.exp(log_probs), empirical, empirical > 0, slack)
    # far from a fit, a class's model mass can underflow to 0 where it has
    # empirical mass: both steps then divide by zero and clip the infinity
    with np.errstate(divide="ignore"):
        assert_identical(_gis_step(weights, docs, log_probs, empirical, masses),
                         oracle_gis_step(weights, *oracle_args))


def test_step_matches_oracle_where_a_class_probability_underflows():
    # One document of mass 30 whose labeled class has log p = -745.2:
    # exp underflows to 0, so the class's model mass is 0, the ratio is
    # infinite and the clip gives the weight limit.  IIS solves in the
    # log domain and lands inside the clip, so one step function cannot
    # match both oracles.
    docs, labels = rows([{0: 30.0}]), np.array([0])
    weights = np.array([[-_WEIGHT_LIMIT], [-5.16]])
    log_probs, _ = _forward(docs, weights, labels)
    assert log_probs[0, 0] < -745 and np.exp(log_probs[0, 0]) == 0.0
    empirical, masses = class_totals(docs, np.eye(2)[labels]), docs @ np.ones(1)
    with np.errstate(divide="ignore"):
        stepped = _gis_step(weights, docs, log_probs, empirical, masses)
        expected = oracle_gis_step(weights, docs, np.exp(log_probs), empirical, empirical > 0, 30.0)
    assert_identical(stepped, expected)
    assert stepped[0, 0] == _WEIGHT_LIMIT
    buckets = _MassBuckets.of(docs, masses)
    assert abs(_iis_step(weights, docs, log_probs, empirical, masses, buckets)[0, 0] + 5.16) < 1e-9


@given(docs=document_matrices(), data=st.data())
def test_products_match_oracle(docs, data):
    vocab_size = docs.shape[1]
    ints = np.array(data.draw(st.lists(st.integers(-50, 50), min_size=vocab_size, max_size=vocab_size)))
    assert_identical(docs @ ints, oracle_matvec(docs, ints))
    weights = np.array(
        data.draw(st.lists(WEIGHTS, min_size=2 * vocab_size, max_size=2 * vocab_size))
    ).reshape(2, vocab_size)
    scores = class_scores(docs, weights)
    assert_identical(scores, oracle_class_scores(docs, weights))
    assert_identical(class_totals(docs, scores), oracle_class_totals(docs, scores))


@given(
    entries=st.lists(st.lists(st.integers(0, 9), max_size=6, unique=True), max_size=10),
    data=st.data(),
)
def test_all_ones_products_match_scipy(entries, data):
    docs = rows([dict.fromkeys(indices, 1.0) for indices in entries], 10)
    assert docs.all_ones
    oracle = csr_matrix((docs.data, docs.indices, docs.indptr), shape=docs.shape)
    weights = np.array(data.draw(st.lists(WEIGHTS, min_size=20, max_size=20))).reshape(2, 10)
    for row in weights:
        assert_identical(docs @ row, oracle @ row)
    ints = np.arange(10) - 4
    assert_identical(docs @ ints, (oracle @ ints).astype(float))
    scores = class_scores(docs, weights)
    assert_identical(scores, class_scores(oracle, weights))
    assert_identical(class_totals(docs, scores), (oracle.T @ scores).T)


def test_all_ones_is_read_from_the_data():
    assert rows([{0: 1.0, 2: 1.0}, {}]).all_ones
    assert rows([]).all_ones
    assert not rows([{0: 1.0, 2: 2.0}]).all_ones
    assert not rows([{0: 0.5}]).all_ones
