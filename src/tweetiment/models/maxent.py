"""Maximum entropy (conditional exponential) classifier with iterative scaling.

Features are joint: vocabulary index i and class c own weight
lambda[c, i], which fires with the document's value for i only when the
candidate class is c.  A document's total firing mass is therefore the
same for every candidate class, which is exactly what lets both trainers
below use document mass as their step denominator.

Training maximizes conditional log-likelihood by generalized (GIS) or
improved (IIS) iterative scaling: fixed-point methods that pull model
feature expectations toward the empirical ones and never decrease the
training log-likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tweetiment.errors import DataError
from tweetiment.features import class_scores, class_totals, document_matrix
from tweetiment.sentiment import Sentiment, argmax_labels

GIS = "gis"
IIS = "iis"

# Features whose term never co-occurs with a class would be driven to
# -inf; clamping keeps every weight finite and serializable.
_WEIGHT_LIMIT = 30.0
_NEWTON_MAX_STEPS = 50
_NEWTON_TOLERANCE = 1e-10


@dataclass(frozen=True)
class TrainerConfig:
    algorithm: str = IIS
    max_iterations: int = 100
    ll_tolerance: float = 1e-6

    def __post_init__(self):
        if self.algorithm not in (GIS, IIS):
            raise ValueError(f"unknown trainer algorithm: {self.algorithm!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not (self.ll_tolerance > 0 and np.isfinite(self.ll_tolerance)):
            raise ValueError("ll_tolerance must be positive and finite")


@dataclass(eq=False)
class MaxEntModel:
    """Weights lambda[c, i]; row 0 is NEGATIVE, row 1 POSITIVE.

    ll_history records training log-likelihood before the first update and
    after each one.  It is a training diagnostic, not part of the model.
    """

    weights: np.ndarray  # shape (2, vocab_size)
    vocab_size: int
    ll_history: tuple = ()


def maxent_probs(model: MaxEntModel, matrix) -> np.ndarray:
    """Conditional class distribution of each document_matrix row, shape (n, 2)."""
    scores = class_scores(matrix, model.weights)
    shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def maxent_prob(model: MaxEntModel, doc) -> np.ndarray:
    """Conditional class distribution for one document (a one-row maxent_probs).

    Indices at or beyond vocab_size are ignored.  An empty document or
    all-zero weights give the uniform distribution.
    """
    return maxent_probs(model, document_matrix([doc], model.vocab_size))[0]


def maxent_predict(model: MaxEntModel, doc) -> Sentiment:
    """Argmax of maxent_prob; exact ties go positive."""
    return argmax_labels(maxent_prob(model, doc)[np.newaxis])[0]


def _forward(matrix, weights, labels):
    """Per-document log class distribution and total log-likelihood."""
    scores = class_scores(matrix, weights)
    # scipy.special.logsumexp's own formula for two columns, bit-equal to
    # it; importing scipy.special would add about 150 ms to every process.
    peak = scores.max(axis=1, keepdims=True)
    other = scores.min(axis=1, keepdims=True)
    log_norm = np.where(other == peak, peak + np.log(2), peak + np.log1p(np.exp(other - peak)))
    log_probs = scores - log_norm
    ll = float(log_probs[np.arange(len(labels)), labels].sum())
    return log_probs, ll


def _gis_step(weights, matrix, probs, empirical, active, slack):
    model_expectation = np.asarray(matrix.T @ probs).T  # (2, vocab_size)
    # Where empirical mass exists, model mass is positive too (the same
    # document contributes to both), so the ratio is well-defined.
    ratio = np.ones_like(weights)
    np.divide(empirical, model_expectation, out=ratio, where=active)
    stepped = weights + np.log(ratio) / slack
    return np.clip(stepped, -_WEIGHT_LIMIT, _WEIGHT_LIMIT)


def _iis_step(weights, matrix, log_probs, empirical, masses):
    """For every (class c, feature i) pair with empirical mass, Newton-solve
    logsumexp(log_probs[docs, c] + log(values) + delta * masses[docs])
    = log(empirical[c, i]) over i's nonzeros, and add delta to lambda[c, i].

    Each left side is convex and strictly increasing in delta (masses are
    positive), so Newton from zero converges; iterates after the first
    bound the root from above.  All pairs step at once, in CSR order.
    """
    n_features = weights.shape[1]
    features = matrix.indices
    docs = np.repeat(np.arange(matrix.shape[0], dtype=np.intc), np.diff(matrix.indptr))
    nonzero_masses = masses[docs]
    deltas = np.zeros_like(weights)
    # Pairs without empirical mass stay frozen (their update would diverge);
    # a feature no document has gives them 0/0 steps, masked out below.
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in (0, 1):
            coefficients = log_probs[docs, c] + np.log(matrix.data)
            log_target = np.log(empirical[c])
            moving = empirical[c] > 0
            for _ in range(_NEWTON_MAX_STEPS):
                exponents = coefficients + deltas[c, features] * nonzero_masses
                peak = np.full(n_features, -np.inf)
                np.maximum.at(peak, features, exponents)
                exponents -= peak[features]
                shifted = np.exp(exponents, out=exponents)  # in place: saves a copy per step
                total = np.bincount(features, shifted, n_features)
                slope = np.bincount(features, shifted * nonzero_masses, n_features) / total
                step = np.where(moving, (peak + np.log(total) - log_target) / slope, 0.0)
                deltas[c] -= step
                moving &= np.abs(step) >= _NEWTON_TOLERANCE
                if not moving.any():
                    break
    return np.clip(weights + deltas, -_WEIGHT_LIMIT, _WEIGHT_LIMIT)


def maxent_train(corpus, vocab_size: int, config: TrainerConfig | None = None) -> MaxEntModel:
    """Fit weights by iterative scaling.

    `corpus` is (FeatureVector, Sentiment) pairs.  Stops after
    max_iterations or once the relative log-likelihood improvement of an
    iteration falls below ll_tolerance.  Raises DataError on an empty
    corpus, a single-class corpus, a corpus with no active features, or a
    feature value that is negative or not finite.
    """
    if config is None:
        config = TrainerConfig()
    pairs = list(corpus)
    if not pairs:
        raise DataError("no training data")

    matrix = document_matrix((vector for vector, _ in pairs), vocab_size)
    if not (np.isfinite(matrix.data).all() and (matrix.data >= 0).all()):
        raise DataError("feature values must be finite and non-negative")
    labels = np.array([int(label) for _, label in pairs])
    if matrix.nnz == 0:
        raise DataError("no active features in training corpus")
    if np.bincount(labels, minlength=2).min() == 0:
        raise DataError("degenerate labels: both classes must appear in training data")

    empirical = class_totals(matrix, labels)
    active = empirical > 0

    masses = np.asarray(matrix.sum(axis=1)).ravel()
    slack = float(masses.max())  # the GIS constant C

    weights = np.zeros((2, vocab_size))
    log_probs, ll = _forward(matrix, weights, labels)
    history = [ll]
    for _ in range(config.max_iterations):
        if config.algorithm == GIS:
            weights = _gis_step(weights, matrix, np.exp(log_probs), empirical, active, slack)
        else:
            weights = _iis_step(weights, matrix, log_probs, empirical, masses)
        log_probs, new_ll = _forward(matrix, weights, labels)
        history.append(new_ll)
        improvement = (new_ll - ll) / max(abs(ll), 1e-12)
        ll = new_ll
        if improvement < config.ll_tolerance:
            break
    return MaxEntModel(weights=weights, vocab_size=vocab_size, ll_history=tuple(history))
