"""Multinomial Naive Bayes with additive smoothing, in log space.

The product form P(c) * prod P(f_i|c)^value underflows around 40 tokens,
so everything is a sum of logs.  Smoothing keeps every likelihood finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tweetiment.errors import DataError
from tweetiment.features import class_scores, class_totals, document_matrix
from tweetiment.sentiment import Sentiment, argmax_labels


@dataclass(eq=False)
class NaiveBayesModel:
    """Trained parameters.  Row 0 of each array is NEGATIVE, row 1 POSITIVE."""

    class_log_prior: np.ndarray        # shape (2,)
    feature_log_likelihood: np.ndarray  # shape (2, vocab_size)
    alpha: float
    mode: str
    vocab_size: int


def nb_train(corpus, vocab_size: int, alpha: float = 1.0) -> NaiveBayesModel:
    """Estimate priors and smoothed per-class feature likelihoods.

    `corpus` is (FeatureVector, Sentiment) pairs.  Feature indices at or
    beyond vocab_size are ignored.  Raises DataError on an empty corpus,
    a single-class corpus, mixed feature modes, or a feature value that
    is negative or not finite.
    """
    if not (alpha > 0 and np.isfinite(alpha)):
        raise ValueError("alpha must be positive and finite")
    if vocab_size < 0:
        raise ValueError("vocab_size must be non-negative")

    pairs = list(corpus)
    if not pairs:
        raise DataError("no training data")
    modes = {vector.mode for vector, _ in pairs}
    if len(modes) != 1:
        raise DataError("mixed feature modes in training corpus")
    mode = modes.pop()

    labels = np.array([int(label) for _, label in pairs])
    doc_counts = np.bincount(labels, minlength=2)
    if doc_counts.min() == 0:
        raise DataError("degenerate labels: both classes must appear in training data")

    class_log_prior = np.log(doc_counts / doc_counts.sum())
    matrix = document_matrix((vector for vector, _ in pairs), vocab_size)
    if not (np.isfinite(matrix.data).all() and (matrix.data >= 0).all()):
        raise DataError("feature values must be finite and non-negative")
    feature_counts = class_totals(matrix, labels)
    totals = feature_counts.sum(axis=1, keepdims=True)
    feature_log_likelihood = np.log(
        (feature_counts + alpha) / (totals + alpha * vocab_size)
    )
    return NaiveBayesModel(
        class_log_prior=class_log_prior,
        feature_log_likelihood=feature_log_likelihood,
        alpha=alpha,
        mode=mode,
        vocab_size=vocab_size,
    )


def nb_scores(model: NaiveBayesModel, matrix) -> np.ndarray:
    """Per-class log-scores of each document_matrix row, shape (n, 2)."""
    return class_scores(matrix, model.feature_log_likelihood) + model.class_log_prior


def nb_predict(model: NaiveBayesModel, doc) -> tuple[Sentiment, np.ndarray]:
    """Per-class log-scores and the argmax label; exact ties go positive.

    A one-row nb_scores: an empty or fully out-of-vocabulary document
    falls back to the priors.
    """
    if doc.mode != model.mode:
        raise DataError(
            f"feature mode mismatch: model is {model.mode}, document is {doc.mode}"
        )
    scores = nb_scores(model, document_matrix([doc], model.vocab_size))
    return argmax_labels(scores)[0], scores[0]
