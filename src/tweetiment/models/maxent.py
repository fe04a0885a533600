"""Maximum entropy (conditional exponential) classifier with iterative scaling.

Features are joint: vocabulary index i and class c own weight
lambda[c, i], which fires with the document's value for i only when the
candidate class is c.  A document's total firing mass is therefore the
same for every candidate class, which is exactly what lets both trainers
below use document mass as their step denominator.

Training maximizes conditional log-likelihood by generalized (GIS) or
improved (IIS) iterative scaling: fixed-point methods that pull model
feature expectations toward the empirical ones and never decrease the
training log-likelihood.  _STEPS maps each algorithm to what builds its
update for one fit: GIS's needs nothing more, and IIS's is bound to the
matrix's (feature, mass) buckets, built once per fit.  ALGORITHMS lists
its keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from tweetiment.errors import DataError
from tweetiment.features import DocumentMatrix, class_scores, class_totals, training_matrix
from tweetiment.sentiment import Sentiment, argmax_labels

GIS = "gis"
IIS = "iis"

# Features whose term never co-occurs with a class would be driven to
# -inf; clamping keeps every weight finite and serializable.
_WEIGHT_LIMIT = 30.0
_NEWTON_MAX_STEPS = 50
_NEWTON_TOLERANCE = 1e-10
# Entries IIS walks at once when it sums buckets: its temporaries are a
# block's, not the matrix's.
_BUCKET_BLOCK = 16384


@dataclass(frozen=True)
class TrainerConfig:
    algorithm: str = IIS
    max_iterations: int = 100
    ll_tolerance: float = 1e-6

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
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


def maxent_predict(model: MaxEntModel, doc) -> Sentiment:
    """The label of a one-row DocumentMatrix, such as vectorize returns: a
    one-row maxent_probs and its argmax; exact ties go positive."""
    return argmax_labels(maxent_probs(model, doc))[0]


def _forward(matrix, weights, labels):
    """Per-document log class distribution and total log-likelihood."""
    scores = class_scores(matrix, weights)
    # scipy.special.logsumexp's own formula for two columns, bit-equal to
    # it; importing scipy.special would add about 150 ms to every process.
    # the rows' max and min, without a reduction's set-up per row
    peak, other = np.maximum(*scores.T), np.minimum(*scores.T)
    log_norm = np.where(other == peak, peak + np.log(2), peak + np.log1p(np.exp(other - peak)))
    log_probs = scores - log_norm[:, None]
    ll = float(log_probs[np.arange(len(labels)), labels].sum())
    return log_probs, ll


def _gis_step(weights, matrix, log_probs, empirical, masses):
    model_expectation = class_totals(matrix, np.exp(log_probs))
    # Where empirical mass exists, model mass is positive too (the same
    # document contributes to both), so the ratio is well-defined.
    ratio = np.ones_like(weights)
    np.divide(empirical, model_expectation, out=ratio, where=empirical > 0)
    # weights + log(ratio) / C, each operation in place in ratio
    np.log(ratio, out=ratio)
    ratio /= float(masses.max())  # the GIS constant C
    ratio += weights
    return np.clip(ratio, -_WEIGHT_LIMIT, _WEIGHT_LIMIT, out=ratio)


@dataclass(frozen=True, eq=False)
class _MassBuckets:
    """A matrix's entries grouped by (feature, document mass), built once
    per IIS fit.

    The entries of a bucket share their feature and their document's
    mass, so an IIS update needs only each bucket's sum of p(c|d) * x_di.
    ids (int32) gives each entry its bucket.  Buckets are numbered by
    feature, then mass: bucket b's mass is mass_values[mass_ids[b]], and
    sizes holds each feature's number of buckets.  blocks walks the
    entries _BUCKET_BLOCK at a time: (their slice, the slice of the
    documents they lie in, how many of them each such document holds).
    """

    matrix: DocumentMatrix
    ids: np.ndarray
    mass_values: np.ndarray
    mass_ids: np.ndarray
    sizes: np.ndarray
    blocks: tuple

    @classmethod
    def of(cls, matrix, masses):
        mass_values, doc_mass = np.unique(masses, return_inverse=True)
        indptr = matrix.indptr
        keys = matrix.indices * len(mass_values)
        keys += doc_mass.repeat(np.diff(indptr))
        order = keys.argsort()
        keys = keys[order]
        first = np.empty(len(keys), bool)  # each bucket's first entry, in key order
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]  # one per bucket
        ids = np.empty(len(order), np.int32)
        ids[order] = np.cumsum(first, dtype=np.int32) - 1
        del order, first
        features, mass_ids = np.divmod(keys, len(mass_values))
        blocks = []
        for start in range(0, len(ids), _BUCKET_BLOCK):
            stop = min(start + _BUCKET_BLOCK, len(ids))
            low = int(np.searchsorted(indptr, start, "right")) - 1
            high = int(np.searchsorted(indptr, stop, "left"))
            counts = np.diff(np.clip(indptr[low : high + 1], start, stop))
            blocks.append((slice(start, stop), slice(low, high), counts))
        mass_ids = mass_ids.astype(np.min_scalar_type(len(mass_values)))
        sizes = np.bincount(features, minlength=matrix.shape[1])
        return cls(matrix, ids, mass_values, mass_ids, sizes, tuple(blocks))

    def _coefficients(self, doc_log_probs):
        """Yield each block's bucket ids and log(p(c|d) * x_di), for
        log p(c|d) per document; no log(data) when the data are all ones."""
        for entries, docs, counts in self.blocks:
            coefficients = doc_log_probs[docs].repeat(counts)
            if not self.matrix.all_ones:
                coefficients += np.log(self.matrix.data[entries])
            yield self.ids[entries], coefficients

    def log_sums(self, doc_log_probs):
        """log of each bucket's sum of p(c|d) * x_di, by a per-bucket max
        over one walk of the entries, then a sum of exps below it."""
        peaks = np.full(len(self.mass_ids), -np.inf)
        for ids, coefficients in self._coefficients(doc_log_probs):
            np.maximum.at(peaks, ids, coefficients)
        peaks[peaks == -np.inf] = 0.0  # a bucket of stored zeros: its log sum is log 0
        totals = np.zeros_like(peaks)
        for ids, coefficients in self._coefficients(doc_log_probs):
            coefficients -= peaks.take(ids)
            np.add.at(totals, ids, np.exp(coefficients, out=coefficients))
        totals = np.log(totals, out=totals)
        totals += peaks
        return totals


def _newton_terms(log_sums, masses, slots, delta):
    """Per pair p: logsumexp(log_sums + delta[p] * masses) over its buckets
    (those whose slots are p), and that sum's derivative in delta[p]."""
    exponents = delta[slots]
    exponents *= masses
    exponents += log_sums
    peak = np.full(len(delta), -np.inf)
    np.maximum.at(peak, slots, exponents)
    exponents -= peak[slots]
    shifted = np.exp(exponents, out=exponents)  # in place: saves a copy per step
    total = np.bincount(slots, shifted, len(delta))
    shifted *= masses
    slope = np.bincount(slots, shifted, len(delta))
    slope /= total
    value = np.log(total, out=total)
    value += peak
    return value, slope


def _class_deltas(buckets, doc_log_probs, empirical):
    """One class's IIS deltas, by feature, for log p(c|d) per document and
    the class's empirical totals.  Feature i's delta, where i has empirical
    mass, solves logsumexp(log_sums + delta * masses) = log(empirical[i])
    over i's buckets; the others' stay 0 (their update would diverge).

    A feature of one bucket has the closed form of a Newton step from 0.
    The others take Newton steps together, from 0.  Each left side is
    convex and strictly increasing in delta (masses are positive), so
    Newton converges, and iterates after the first bound the root from
    above.  A feature stops after a step below the tolerance; stopped
    features leave the arrays once they are half of them.
    """
    deltas = np.zeros(len(empirical))
    log_sums = buckets.log_sums(doc_log_probs)
    moving = empirical > 0
    one = moving & (buckets.sizes == 1)
    at = (buckets.sizes.cumsum() - buckets.sizes)[one]  # their buckets
    deltas[one] = (np.log(empirical[one]) - log_sums[at]) / buckets.mass_values[buckets.mass_ids[at]]
    moving ^= one
    features = np.flatnonzero(moving)
    if not len(features):
        return deltas
    kept = moving.repeat(buckets.sizes)
    log_sums, masses = log_sums[kept], buckets.mass_values[buckets.mass_ids[kept]]
    slots = np.arange(len(features)).repeat(buckets.sizes[moving])  # each bucket's feature
    log_targets, delta = np.log(empirical[features]), np.zeros(len(features))
    stopped = np.zeros(len(features), bool)
    for _ in range(_NEWTON_MAX_STEPS):
        step, slope = _newton_terms(log_sums, masses, slots, delta)
        step -= log_targets
        step /= slope
        step[stopped] = 0.0
        delta -= step
        stopped |= np.abs(step) < _NEWTON_TOLERANCE
        if stopped.all():
            break
        if 2 * np.count_nonzero(stopped) >= len(stopped):
            deltas[features[stopped]] = delta[stopped]
            moving = ~stopped
            kept = moving[slots]
            slots = (moving.cumsum() - 1)[slots[kept]]
            log_sums = log_sums[kept]
            masses = masses[kept]
            features, log_targets, delta = features[moving], log_targets[moving], delta[moving]
            stopped = stopped[moving]
    deltas[features] = delta
    return deltas


def _iis_step(weights, matrix, log_probs, empirical, masses, buckets):
    """For every (class c, feature i) pair with empirical mass, solve
    logsumexp(log_probs[docs, c] + log(values) + delta * masses[docs])
    = log(empirical[c, i]) over i's nonzeros, and add delta to lambda[c, i].

    The nonzeros of a (feature, mass) bucket share delta * mass, so each
    bucket's logsumexp is taken once per update, and the solve runs over
    the buckets (_class_deltas).  buckets is the matrix's _MassBuckets.
    """
    with np.errstate(divide="ignore"):
        deltas = np.array([_class_deltas(buckets, log_probs[:, c], empirical[c]) for c in (0, 1)])
    deltas += weights
    return np.clip(deltas, -_WEIGHT_LIMIT, _WEIGHT_LIMIT, out=deltas)


# algorithm -> (matrix, masses) -> its update for a fit on them,
# (weights, matrix, log_probs, empirical, masses) -> new weights
_STEPS = {GIS: lambda matrix, masses: _gis_step,
          IIS: lambda matrix, masses: partial(_iis_step, buckets=_MassBuckets.of(matrix, masses))}
ALGORITHMS = tuple(_STEPS)


def maxent_train(corpus, vocab_size: int, config: TrainerConfig | None = None) -> MaxEntModel:
    """Fit weights by iterative scaling.

    `corpus` is (DocumentMatrix, label) pairs, checked by training_matrix.
    Stops after max_iterations or once the relative log-likelihood
    improvement of an iteration falls below ll_tolerance.  Raises what
    training_matrix raises, and DataError on a corpus with no active
    features.
    """
    if config is None:
        config = TrainerConfig()
    matrix, labels = training_matrix(corpus, vocab_size)
    if not matrix.data.any():  # no entries, or only stored zeros
        raise DataError("no active features in training corpus")

    empirical = class_totals(matrix, np.eye(2)[labels])
    masses = matrix @ np.ones(vocab_size)
    step = _STEPS[config.algorithm](matrix, masses)

    weights = np.zeros((2, vocab_size))
    log_probs, ll = _forward(matrix, weights, labels)
    history = [ll]
    for _ in range(config.max_iterations):
        weights = step(weights, matrix, log_probs, empirical, masses)
        log_probs, new_ll = _forward(matrix, weights, labels)
        history.append(new_ll)
        improvement = (new_ll - ll) / max(abs(ll), 1e-12)
        ll = new_ll
        if improvement < config.ll_tolerance:
            break
    return MaxEntModel(weights=weights, vocab_size=vocab_size, ll_history=tuple(history))
