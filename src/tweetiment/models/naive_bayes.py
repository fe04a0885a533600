"""Multinomial Naive Bayes with additive smoothing, in log space.

The product form P(c) * prod P(f_i|c)^value underflows around 40 tokens,
so everything is a sum of logs.  Smoothing keeps every likelihood finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tweetiment.features import class_scores, class_totals, training_matrix
from tweetiment.sentiment import Sentiment, argmax_labels


@dataclass(eq=False)
class NaiveBayesModel:
    """Trained parameters.  Row 0 of each array is NEGATIVE, row 1 POSITIVE."""

    class_log_prior: np.ndarray        # shape (2,)
    feature_log_likelihood: np.ndarray  # shape (2, vocab_size)
    vocab_size: int


def nb_train(corpus, vocab_size: int, alpha: float = 1.0) -> NaiveBayesModel:
    """Estimate priors and smoothed per-class feature likelihoods.

    `corpus` is (DocumentMatrix, label) pairs, checked by training_matrix:
    ValueError on a matrix wider than vocab_size, DataError on an empty or
    single-class corpus or a feature value negative or not finite.  An
    alpha too small or too large for finite likelihoods is a ValueError.
    """
    if not (alpha > 0 and np.isfinite(alpha)):
        raise ValueError("alpha must be positive and finite")
    matrix, labels = training_matrix(corpus, vocab_size)
    doc_counts = np.bincount(labels, minlength=2)
    class_log_prior = np.log(doc_counts / doc_counts.sum())
    feature_counts = class_totals(matrix, np.eye(2)[labels])
    totals = feature_counts.sum(axis=1, keepdims=True)
    with np.errstate(all="ignore"):  # an extreme alpha is reported below
        feature_log_likelihood = np.log(
            (feature_counts + alpha) / (totals + alpha * vocab_size)
        )
    if not np.isfinite(feature_log_likelihood).all():
        raise ValueError(f"alpha={alpha!r} gives likelihoods that are not finite")
    return NaiveBayesModel(
        class_log_prior=class_log_prior,
        feature_log_likelihood=feature_log_likelihood,
        vocab_size=vocab_size,
    )


def nb_scores(model: NaiveBayesModel, matrix) -> np.ndarray:
    """Per-class log-scores of each document_matrix row, shape (n, 2)."""
    return class_scores(matrix, model.feature_log_likelihood) + model.class_log_prior


def nb_predict(model: NaiveBayesModel, doc) -> tuple[Sentiment, np.ndarray]:
    """Per-class log-scores and the argmax label; exact ties go positive.

    A one-row nb_scores of `doc`, such as vectorize returns: an empty or
    fully out-of-vocabulary document falls back to the priors.
    """
    scores = nb_scores(model, doc)
    return argmax_labels(scores)[0], scores[0]
