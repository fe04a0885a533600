"""The array IIS update against the per-pair Newton loop it replaced.

`oracle_iis_step` and `oracle_newton_solve` are the earlier
implementation, kept verbatim as the reference: one scalar Newton solve
per (class, feature) pair over the columns of a CSC copy of the document
matrix.  The array version sums in another order, so the two may differ
in the last bits; 1e-9 is far above that and far below the Newton
tolerance's effect on a weight.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from sample_data import rows
from tweetiment.features import FEATURE_MODES, build_vocabulary, class_totals, document_matrix
from tweetiment.models.maxent import (
    _NEWTON_MAX_STEPS,
    _NEWTON_TOLERANCE,
    _WEIGHT_LIMIT,
    _forward,
    _iis_step,
)


def oracle_newton_solve(log_coefficients, masses, log_target):
    """Solve logsumexp(log_coefficients + delta * masses) = log_target.

    The left side is convex and strictly increasing in delta (masses are
    positive), so Newton from zero converges; iterates after the first
    bound the root from above.
    """
    delta = 0.0
    for _ in range(_NEWTON_MAX_STEPS):
        exponents = log_coefficients + delta * masses
        peak = exponents.max()
        shifted = np.exp(exponents - peak)
        value = peak + np.log(shifted.sum()) - log_target
        slope = (shifted @ masses) / shifted.sum()
        step = value / slope
        delta -= step
        if abs(step) < _NEWTON_TOLERANCE:
            break
    return delta


def oracle_iis_step(weights, matrix_csc, log_probs, empirical, masses):
    stepped = weights.copy()
    indptr = matrix_csc.indptr
    indices = matrix_csc.indices
    data = matrix_csc.data
    for i in range(weights.shape[1]):
        start, end = indptr[i], indptr[i + 1]
        if start == end:
            continue
        docs = indices[start:end]
        values = data[start:end]
        doc_masses = masses[docs]
        log_values = np.log(values)
        for c in (0, 1):
            target = empirical[c, i]
            if target <= 0:
                continue  # zero empirical mass: update would diverge, freeze
            log_coefficients = log_probs[docs, c] + log_values
            if log_coefficients.max() == -np.inf:
                continue  # no model mass to rescale
            delta = oracle_newton_solve(log_coefficients, doc_masses, np.log(target))
            stepped[c, i] += delta
    return np.clip(stepped, -_WEIGHT_LIMIT, _WEIGHT_LIMIT)


# Tweets through document_matrix give counts, so documents of mixed
# integer mass.  Fractional values, which only a DocumentMatrix built
# directly holds, give masses that are not integers.  Empty documents and
# features no document has (vocabulary terms the tweets lack, indices up
# to vocab_size - 1 that are never drawn) come up often.
WORDS = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=8)
VALUES = st.one_of(st.integers(1, 4).map(float), st.floats(0.05, 6.0))
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

# Starting weights include the clip limits and their neighbourhood, where
# one class's probability is as small as training can make it.
WEIGHTS = st.one_of(
    st.floats(-_WEIGHT_LIMIT, _WEIGHT_LIMIT),
    st.sampled_from([-_WEIGHT_LIMIT, -29.5, 29.5, _WEIGHT_LIMIT]),
)


@settings(max_examples=300, deadline=None)
@given(docs=document_matrices(), data=st.data())
def test_iis_step_matches_per_pair_oracle(docs, data):
    n_docs, vocab_size = docs.shape
    # the trainers step over the DocumentMatrix itself; the corpus may hold
    # one class, which training_matrix would reject.  The oracle walks the
    # columns of scipy's CSC copy of the same arrays.
    matrix = csr_matrix((docs.data, docs.indices, docs.indptr), shape=docs.shape)
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n_docs, max_size=n_docs)))
    weights = np.array(
        data.draw(st.lists(WEIGHTS, min_size=2 * vocab_size, max_size=2 * vocab_size))
    ).reshape(2, vocab_size)
    log_probs, _ = _forward(docs, weights, labels)
    empirical = class_totals(docs, np.eye(2)[labels])
    masses = np.asarray(matrix.sum(axis=1)).ravel()

    stepped = _iis_step(weights, docs, log_probs, empirical, masses)
    expected = oracle_iis_step(weights, matrix.tocsc(), log_probs, empirical, masses)
    np.testing.assert_allclose(stepped, expected, rtol=0, atol=1e-9)
