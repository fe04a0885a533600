"""The bucketed IIS update on hand-made matrices, against the per-pair oracle.

Each case pins one shape of (feature, document mass) bucket that the
hypothesis test in test_iis_oracle.py reaches only by chance: a class
probability that underflows, a feature whose documents span several
masses or share one, empty documents, a feature no document has,
fractional masses, and document_matrix's two feature modes.  Every case
compares the whole step with `oracle_iis_step` at 1e-9.
"""

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from sample_data import rows
from test_iis_oracle import oracle_iis_step
from tweetiment.features import FEATURE_MODES, build_vocabulary, class_totals, document_matrix
from tweetiment.models.maxent import _WEIGHT_LIMIT, _forward, _iis_step, _MassBuckets


def step_both(docs, labels, weights):
    """(the IIS step, the oracle's step, the step's inputs) for one matrix."""
    labels, weights = np.asarray(labels), np.asarray(weights, float)
    log_probs, _ = _forward(docs, weights, labels)
    empirical = class_totals(docs, np.eye(2)[labels])
    masses = docs @ np.ones(docs.shape[1])
    matrix = csr_matrix((docs.data, docs.indices, docs.indptr), shape=docs.shape)
    stepped = _iis_step(weights, docs, log_probs, empirical, masses, _MassBuckets.of(docs, masses))
    expected = oracle_iis_step(weights, matrix.tocsc(), log_probs, empirical, masses)
    np.testing.assert_allclose(stepped, expected, rtol=0, atol=1e-9)
    return stepped, (log_probs, empirical, masses)


def test_underflowing_class_probability_finds_the_finite_root():
    # One document of mass 30 whose labeled class has log p = -745.2, so
    # p itself underflows to 0.  Solved in the log domain, the weight
    # moves from -30 to the finite root near -5.16, not to the clip.
    docs = rows([{0: 30.0}])
    stepped, (log_probs, _, _) = step_both(docs, [0], [[-_WEIGHT_LIMIT], [-5.16]])
    assert np.exp(log_probs[0, 0]) == 0.0 and -745.3 < log_probs[0, 0] < -745.1
    assert abs(stepped[0, 0] + 5.16) < 1e-9


def test_underflow_in_a_feature_of_several_masses():
    # Feature 0 has documents of mass 30 and 31, both with a class
    # probability far below the smallest double: the bucket sums and the
    # Newton steps both stay in the log domain.
    docs = rows([{0: 30.0}, {0: 30.0, 1: 1.0}, {1: 2.0}])
    stepped, (log_probs, _, _) = step_both(docs, [0, 0, 1], [[-_WEIGHT_LIMIT, 0.0], [-5.0, 0.0]])
    assert (np.exp(log_probs[:2, 0]) == 0.0).all()
    assert -_WEIGHT_LIMIT < stepped[0, 0] < _WEIGHT_LIMIT


def test_feature_over_several_masses():
    docs = rows([{0: 1, 1: 1}, {0: 1}, {0: 2, 2: 1, 3: 1}, {0: 1, 1: 1, 2: 1}, {3: 1}])
    assert _MassBuckets.of(docs, docs @ np.ones(4)).sizes.tolist() == [4, 2, 2, 2]
    step_both(docs, [1, 0, 1, 0, 1], [[0.3, -0.2, 0.0, 1.5], [-0.7, 0.4, 2.0, -1.0]])


def test_feature_of_one_mass_is_solved_in_one_step():
    # Feature 0's documents all have mass 2: one bucket, whose equation
    # A * exp(2 * delta) = E has the root of one Newton step from 0.
    docs = rows([{0: 1, 1: 1}, {0: 1, 2: 1}, {0: 1, 3: 1}, {1: 1, 2: 1, 3: 1}])
    assert _MassBuckets.of(docs, docs @ np.ones(4)).sizes[0] == 1
    weights = [[0.5, -0.25, 0.0, 1.0], [-1.0, 0.75, 0.25, 0.0]]
    stepped, (log_probs, empirical, _) = step_both(docs, [1, 1, 0, 0], weights)
    for c in (0, 1):
        delta = stepped[c, 0] - weights[c][0]
        model = np.logaddexp.reduce(log_probs[:3, c] + 2 * delta)
        assert abs(model - np.log(empirical[c, 0])) < 1e-12


def test_empty_documents_and_a_feature_no_document_has():
    # Features 1, 3 and 4 appear in no document: their weights only clip.
    docs = rows([{}, {0: 1.0, 2: 2.0}, {}, {2: 1.0}, {0: 3.0}], width=5)
    weights = [[1.0, -2.0, 0.5, 31.0, 0.0], [-1.0, 2.0, -0.5, -40.0, 3.0]]
    stepped, _ = step_both(docs, [0, 1, 1, 0, 1], weights)
    assert stepped[:, [1, 4]].tolist() == [[-2.0, 0.0], [2.0, 3.0]]
    assert stepped[:, 3].tolist() == [_WEIGHT_LIMIT, -_WEIGHT_LIMIT]


def test_fractional_masses_give_a_bucket_per_entry():
    # 0.1 + 0.2 and 0.3 are different doubles, so no two documents share a
    # mass, and each entry is a bucket of its own.
    docs = rows([{0: 0.1, 1: 0.2}, {0: 0.3}, {0: 0.45, 1: 1.7}, {1: 0.05}])
    buckets = _MassBuckets.of(docs, docs @ np.ones(2))
    assert len(buckets.mass_ids) == len(docs.data)
    stepped, (log_probs, empirical, masses) = step_both(docs, [1, 0, 1, 0], [[0.2, -0.1], [0.0, 0.4]])
    given = _iis_step(np.array([[0.2, -0.1], [0.0, 0.4]]), docs, log_probs, empirical, masses, buckets)
    assert np.array_equal(given, stepped)


@pytest.mark.parametrize("mode", FEATURE_MODES)
def test_document_matrix_modes(mode):
    tweets = [
        ["good", "good", "day"],
        ["bad", "day", "bad", "bad"],
        [],
        ["good", "bad"],
        ["day", "good", "day"],
        ["bad"],
    ]
    vocab = build_vocabulary(tweets, n_unigrams=3, n_bigrams=4)
    docs = document_matrix(tweets, vocab, mode)
    rng = np.random.default_rng(3)
    step_both(docs, [1, 0, 1, 1, 1, 0], rng.uniform(-3, 3, (2, len(vocab))))
