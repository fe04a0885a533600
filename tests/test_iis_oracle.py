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

from tweetiment.features import FREQUENCY, FeatureVector, class_totals, document_matrix
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


# Small counts give documents of mixed mass; fractional values give masses
# that are not integers.  Empty documents and features no document has
# (indices up to vocab_size - 1 that are never drawn) come up often.
VALUES = st.one_of(st.integers(1, 4).map(float), st.floats(0.05, 6.0))
DOCUMENTS = st.lists(
    st.tuples(st.dictionaries(st.integers(0, 7), VALUES, max_size=5), st.integers(0, 1)),
    min_size=1,
    max_size=14,
)
# Starting weights include the clip limits and their neighbourhood, where
# one class's probability is as small as training can make it.
WEIGHTS = st.one_of(
    st.floats(-_WEIGHT_LIMIT, _WEIGHT_LIMIT),
    st.sampled_from([-_WEIGHT_LIMIT, -29.5, 29.5, _WEIGHT_LIMIT]),
)


@settings(max_examples=300, deadline=None)
@given(documents=DOCUMENTS, extra_features=st.integers(0, 3), data=st.data())
def test_iis_step_matches_per_pair_oracle(documents, extra_features, data):
    vocab_size = 8 + extra_features
    matrix = document_matrix(
        (FeatureVector(entries=entries, mode=FREQUENCY) for entries, _ in documents), vocab_size
    )
    labels = np.array([label for _, label in documents])
    weights = np.array(
        data.draw(st.lists(WEIGHTS, min_size=2 * vocab_size, max_size=2 * vocab_size))
    ).reshape(2, vocab_size)
    log_probs, _ = _forward(matrix, weights, labels)
    empirical = class_totals(matrix, labels)
    masses = np.asarray(matrix.sum(axis=1)).ravel()

    stepped = _iis_step(weights, matrix, log_probs, empirical, masses)
    expected = oracle_iis_step(weights, matrix.tocsc(), log_probs, empirical, masses)
    np.testing.assert_allclose(stepped, expected, rtol=0, atol=1e-9)
