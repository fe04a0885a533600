"""N-gram counting, vocabularies and CSR document matrices.

ngram_counts counts and ranks a corpus's unigrams and bigrams once.  A
vocabulary keeps the top of each ranking, each term owning one index in a
shared contiguous space (unigrams first, bigrams after).  document_matrix,
the one lookup of tokens in a vocabulary, maps a batch of tweets onto one
CSR document matrix, valued either binarized ("presence") or by in-tweet
counts ("frequency").  Training and scoring both run on that matrix.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from tweetiment.errors import DataError

PRESENCE = "presence"
FREQUENCY = "frequency"
FEATURE_MODES = (PRESENCE, FREQUENCY)

#: Default vocabulary budgets.
DEFAULT_UNIGRAM_BUDGET = 15000
DEFAULT_BIGRAM_BUDGET = 10000


@dataclass(frozen=True, eq=False)
class NgramRanking:
    """Distinct unigrams or bigrams by descending count, ties by ascending
    term: rank r + 1 has code codes[r] and count counts[r].  A unigram's code
    is its place in `words`, the sorted distinct words (an object array); a
    bigram's is first * len(words) + second, so codes sort as terms do."""

    words: np.ndarray
    codes: np.ndarray
    counts: np.ndarray
    bigrams: bool

    def terms(self, stop=None) -> list:
        """The first `stop` ranks' terms (all by default): str or (str, str)."""
        if not self.bigrams:
            return self.words[self.codes[:stop]].tolist()
        first, second = np.divmod(self.codes[:stop], len(self.words))
        return list(zip(self.words[first].tolist(), self.words[second].tolist()))


def _ranking(words, codes, counts, bigrams: bool) -> NgramRanking:
    order = np.lexsort((codes, -counts))
    return NgramRanking(words, codes[order], counts[order], bigrams)


def ngram_counts(corpus) -> tuple[NgramRanking, NgramRanking]:
    """Count and rank a corpus's unigrams and bigrams (adjacent token
    pairs, n - 1 per tweet of n tokens): (unigrams, bigrams)."""
    tweets = list(corpus)
    place = dict.fromkeys(chain.from_iterable(tweets))
    words = np.array(sorted(place), dtype=object)
    width = len(words)
    place.update(zip(words.tolist(), range(width)))
    place[None] = width  # not a token: it ends each tweet, so no pair spans two
    ids = np.fromiter(map(place.__getitem__, chain.from_iterable((*t, None) for t in tweets)), int)
    del place  # the largest object here: free it before the sorts
    pairs = (ids[:-1] * width + ids[1:])[(ids[:-1] < width) & (ids[1:] < width)]
    codes, counts = np.unique(pairs, return_counts=True)
    unigrams = _ranking(words, np.arange(width), np.bincount(ids)[:width], False)
    return unigrams, _ranking(words, codes, counts, True)


@dataclass(frozen=True)
class Vocabulary:
    """Frozen term -> index maps for unigrams and bigrams.

    Unigram indices fill [0, U), bigram indices [U, U+B).  Budgets record
    what was requested; the index maps may be smaller when the corpus has
    fewer distinct terms.
    """

    unigram_index: dict
    bigram_index: dict
    unigram_budget: int
    bigram_budget: int

    def __len__(self):
        return len(self.unigram_index) + len(self.bigram_index)


def build_vocabulary(
    corpus,
    n_unigrams: int = DEFAULT_UNIGRAM_BUDGET,
    n_bigrams: int = DEFAULT_BIGRAM_BUDGET,
) -> Vocabulary:
    """Count the corpus's n-grams and keep the top n of each n-gram class.

    Selection and index assignment are deterministic: descending corpus
    frequency, ties by ascending term.  An empty corpus yields an empty
    (but usable) vocabulary.
    """
    if n_unigrams < 1:
        raise ValueError("unigram budget must be at least 1")
    if n_bigrams < 0:
        raise ValueError("bigram budget must be non-negative")

    unigram_ranking, bigram_ranking = ngram_counts(corpus)
    unigrams = unigram_ranking.terms(n_unigrams)
    bigrams = bigram_ranking.terms(n_bigrams)
    unigram_index = {t: i for i, t in enumerate(unigrams)}
    bigram_index = {t: len(unigrams) + i for i, t in enumerate(bigrams)}
    return Vocabulary(
        unigram_index=unigram_index,
        bigram_index=bigram_index,
        unigram_budget=n_unigrams,
        bigram_budget=n_bigrams,
    )


@dataclass(frozen=True, eq=False)
class DocumentMatrix:
    """A (documents x vocab_size) matrix in CSR arrays: row d's entries are
    data[indptr[d]:indptr[d + 1]] at columns indices[indptr[d]:indptr[d + 1]].
    data is float64; indices and indptr are intp, numpy's index type, so
    gathers and bincounts read them without a cast."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    @property
    def entries(self) -> dict:
        """The index -> value dict of a one-row matrix (a new dict per call)."""
        if self.shape[0] != 1:
            raise ValueError(f"entries needs a one-row matrix, not {self.shape[0]} rows")
        return dict(zip(self.indices.tolist(), self.data.tolist()))

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of each entry, built once per matrix."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __matmul__(self, vector) -> np.ndarray:
        """matrix @ vector, summing each row's products in entry order, as
        scipy's CSR mat-vec does, so the results are bit-equal to it."""
        products = np.bincount(self.rows, self.data * vector[self.indices], self.shape[0])
        return products.astype(float, copy=False)  # int64 when there are no entries


def document_matrix(tweets, vocab: Vocabulary, mode: str = PRESENCE) -> DocumentMatrix:
    """Map normalized tweets onto the vocabulary's index space: a (tweets x
    len(vocab)) DocumentMatrix whose rows hold each tweet's in-vocabulary
    unigram and bigram indices in ascending order, valued 1 in presence
    mode and by in-tweet count in frequency mode.  Out-of-vocabulary terms
    contribute nothing; an unknown mode raises ValueError."""
    if mode not in FEATURE_MODES:
        raise ValueError(f"unknown feature mode: {mode!r}")
    unigram_index, bigram_index = vocab.unigram_index, vocab.bigram_index
    counted = mode == FREQUENCY
    indptr = array(np.dtype(np.intp).char, [0])
    indices = array(indptr.typecode)
    data = array("d")
    for tweet in tweets:
        hits = [i for i in map(unigram_index.get, tweet) if i is not None]
        hits += [i for i in map(bigram_index.get, zip(tweet, tweet[1:])) if i is not None]
        hits.sort()
        last = -1
        for index in hits:
            if index != last:
                indices.append(index)
                data.append(1.0)
                last = index
            elif counted:
                data[-1] += 1.0
        indptr.append(len(indices))
    arrays = (np.frombuffer(data), np.frombuffer(indices, np.intp), np.frombuffer(indptr, np.intp))
    return DocumentMatrix(*arrays, shape=(len(indptr) - 1, len(vocab)))


def vectorize(tweet, vocab: Vocabulary, mode: str = PRESENCE) -> DocumentMatrix:
    """One normalized tweet as a one-row document_matrix."""
    return document_matrix([tweet], vocab, mode)


def training_matrix(corpus, vocab_size: int):
    """The (matrix, labels) pair both trainers fit.

    `corpus` is (DocumentMatrix, label) pairs, a label per row or one for
    all of a matrix's rows.  The rows are stacked in order into one
    DocumentMatrix of vocab_size columns; labels become an integer array.
    Raises ValueError on a negative vocab_size or a wider matrix, and
    DataError on a corpus without rows, a feature value that is negative
    or not finite, or a single class.
    """
    if vocab_size < 0:
        raise ValueError("vocab_size must be non-negative")
    pairs = list(corpus)
    if not any(docs.shape[0] for docs, _ in pairs):
        raise DataError("no training data")
    if max(docs.shape[1] for docs, _ in pairs) > vocab_size:
        raise ValueError("a document matrix is wider than vocab_size")
    data = np.concatenate([docs.data for docs, _ in pairs])
    if not (np.isfinite(data).all() and (data >= 0).all()):
        raise DataError("feature values must be finite and non-negative")
    indices = np.concatenate([docs.indices for docs, _ in pairs], dtype=np.intp)
    row_sizes = np.concatenate([np.diff(docs.indptr) for docs, _ in pairs])
    indptr = np.concatenate(([0], np.cumsum(row_sizes)), dtype=np.intp)
    labels = np.concatenate(
        [np.broadcast_to(np.asarray(label, dtype=int), docs.shape[:1]) for docs, label in pairs]
    )
    if np.bincount(labels, minlength=2).min() == 0:
        raise DataError("degenerate labels: both classes must appear in training data")
    return DocumentMatrix(data, indices, indptr, shape=(len(labels), vocab_size)), labels


def class_totals(matrix: DocumentMatrix, doc_weights) -> np.ndarray:
    """doc_weights.T @ matrix, shape (2, columns), for (documents, 2) doc_weights.
    Each column adds its products in entry order, as scipy's transposed
    CSR product does, so the results are bit-equal to it."""
    weighted = (matrix.data * column[matrix.rows] for column in doc_weights.T)
    totals = [np.bincount(matrix.indices, w, matrix.shape[1]) for w in weighted]
    return np.array(totals, float)  # bincount gives int64 when there are no entries


def class_scores(matrix, weights) -> np.ndarray:
    """matrix @ weights.T, shape (documents, 2), as one mat-vec per weight
    row: the product with weights.T would copy the weights per call.  A
    narrower matrix scores as if padded with zero columns; a wider one
    raises ValueError."""
    if matrix.shape[1] > weights.shape[1]:
        raise ValueError(f"a {matrix.shape[1]}-column matrix is wider than the model")
    return np.stack([matrix @ row for row in weights], axis=1)
