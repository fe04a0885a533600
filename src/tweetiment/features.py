"""N-gram counting, vocabularies and CSR document matrices.

ngram_counts counts and ranks a corpus's unigrams and bigrams once.  A
vocabulary keeps the top of each ranking, each term owning one index in a
shared contiguous space (unigrams first, bigrams after).  document_matrix,
the one lookup of tokens in a vocabulary, maps a batch of tweets onto one
CSR document matrix, valued either binarized ("presence") or by in-tweet
counts ("frequency").  Training and scoring both run on that matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, count, repeat

import numpy as np

from tweetiment.errors import DataError
from tweetiment.normalize import TokenBatch
from tweetiment.sentiment import check_labels

PRESENCE = "presence"
FREQUENCY = "frequency"
FEATURE_MODES = (PRESENCE, FREQUENCY)

#: Default vocabulary budgets.
DEFAULT_UNIGRAM_BUDGET = 15000
DEFAULT_BIGRAM_BUDGET = 10000

#: Rows document_matrix builds at once, which bounds its temporaries.
_BLOCK_ROWS = 256

#: Entries a matrix product gathers at once, at least: enough to make a
#: short diagonal's numpy calls few, and little enough to stay in cache.
_GATHER = 4096


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
    """Rank ascending codes by descending count: a stable sort keeps each
    tie's codes ascending.  Both arrays are reordered in place."""
    order = np.argsort(-counts, kind="stable")
    codes[:] = codes[order]
    counts[:] = counts[order]
    return NgramRanking(words, codes, counts, bigrams)


def _rows(offsets) -> np.ndarray:
    """The row of each item of rows that hold offsets[r]:offsets[r + 1]."""
    return np.arange(len(offsets) - 1).repeat(offsets[1:] - offsets[:-1])


def _runs(codes) -> tuple:
    """The distinct values of sorted codes and the length of each one's run."""
    bounds = np.ones(len(codes) + 1, bool)  # where a run starts, then the end
    np.not_equal(codes[1:], codes[:-1], out=bounds[1:-1])
    bounds = np.flatnonzero(bounds)
    return codes[bounds[:-1]], np.diff(bounds)


def ngram_counts(corpus) -> tuple[NgramRanking, NgramRanking]:
    """Count and rank the unigrams and bigrams (adjacent token pairs, n - 1
    per tweet of n tokens) of a TokenBatch or of token lists: (unigrams,
    bigrams)."""
    batch = TokenBatch.of(corpus)
    words, place = np.unique(np.array(batch.words, dtype=object), return_inverse=True)
    width = len(words)
    ids = place[batch.ids]
    del place
    occurring = np.bincount(ids, minlength=width)
    # codes[p] is the pair of tokens p and p + 1.  The pair after a tweet's
    # last token crosses into the next tweet or past the batch's end (the
    # last slot, where an index of -1 also lands), so it is coded above
    # every bigram and sorts to the end, where it is cut off.
    codes = np.empty(len(ids), np.int64)
    np.multiply(ids[:-1], width, out=codes[:-1])
    codes[:-1] += ids[1:]
    del ids
    outside = width * width
    if len(codes):
        codes[batch.offsets[1:] - 1] = outside
    codes.sort()
    bigram_codes, bigram_counts = _runs(codes[: codes.searchsorted(outside)])
    del codes
    present = np.flatnonzero(occurring)  # a hand-made batch may list a word it never uses
    unigrams = _ranking(words, present, occurring[present], False)
    return unigrams, _ranking(words, bigram_codes, bigram_counts, True)


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

    @cached_property
    def _word_tables(self) -> tuple:
        """What document_matrix looks words up in, built once: (word_ids,
        width, codes, bigrams).  word_ids maps each unigram to its index and
        each other word of a bigram to an id from len(self) up; width - 1
        stands for any other word.  codes holds the sorted bigram codes
        first * width + second, then one above them all, and bigrams their
        indices, then -1."""
        word_ids = dict(self.unigram_index)  # shares the index objects
        bigram_words = dict.fromkeys(chain.from_iterable(self.bigram_index))
        others = [word for word in bigram_words if word not in word_ids]
        word_ids.update(zip(others, count(len(self))))
        width = len(self) + len(others) + 1
        pairs = np.fromiter(map(word_ids.__getitem__, chain.from_iterable(self.bigram_index)), int)
        codes = pairs[0::2] * width + pairs[1::2]
        order = np.argsort(codes)
        bigrams = np.fromiter(self.bigram_index.values(), int, len(self.bigram_index))[order]
        return word_ids, width, np.append(codes[order], width * width), np.append(bigrams, -1)


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
    def all_ones(self) -> bool:
        """Whether every stored value is 1.0, as in presence mode.  The
        products then skip the multiply by data: x * 1.0 == x, bit for bit."""
        return bool((self.data == 1.0).all())

    @cached_property
    def _layout(self) -> tuple:
        """The row layout the products run on, built once per matrix:
        (order, counts, groups, tails, columns, values).  order lists the
        rows longest first (a stable sort), and diagonal j holds the j-th
        entry of each of the first counts[j] rows of order.  groups splits
        the diagonals into runs of at least _GATHER entries, each gathered
        at once: (first diagonal, end diagonal, start, stop).  After the
        diagonals, each row left is summed alone: tails holds its place in
        order and where its rest lies.  The number of diagonals takes the
        fewest steps, one per diagonal and one per row left, so a long row
        costs no step per entry.  columns (int32) and values (None when all
        ones) hold the diagonals one after another, then the rests."""
        lengths = np.diff(self.indptr)
        order = np.argsort(-lengths, kind="stable")
        lengths, starts = lengths[order], self.indptr[:-1][order]
        longest = int(lengths[0]) if len(lengths) else 0
        diagonals = np.arange(longest + 1)
        open_rows = np.searchsorted(-lengths, -diagonals)  # rows with more than j entries
        depth = int((diagonals + open_rows).argmin())
        counts, left = open_rows[:depth].tolist(), int(open_rows[depth])
        groups, first, start = [], 0, 0
        for end, stop in enumerate(accumulate(counts), 1):
            if stop - start >= _GATHER or end == depth:
                groups.append((first, end, start, stop))
                first, start = end, stop
        columns = np.empty(len(self.indices), np.int32)
        values = None if self.all_ones else np.empty(len(columns))
        for first, end, start, stop in groups:
            # each entry's row place, then its place in the matrix
            sizes = open_rows[first:end]
            places = np.arange(stop - start) - np.repeat(sizes.cumsum() - sizes, sizes)
            places = starts[places] + np.repeat(diagonals[first:end], sizes)
            columns[start:stop] = self.indices[places]
            if values is not None:
                values[start:stop] = self.data[places]
        tails, start = [], sum(counts)
        for place in range(left):
            stop = start + lengths[place] - depth
            rest = slice(starts[place] + depth, starts[place] + lengths[place])
            columns[start:stop] = self.indices[rest]
            if values is not None:
                values[start:stop] = self.data[rest]
            tails.append((place, start, stop))
            start = stop
        return order, counts, groups, tails, columns, values

    def __matmul__(self, other) -> np.ndarray:
        """matrix @ other, for a vector or a (columns, k) array.

        Each row adds its products in entry order, starting from 0.0, as
        scipy's CSR product does, so the results are bit-equal to it.  The
        sums run over the row layout, one diagonal at a time; a row summed
        alone adds its rest with np.cumsum, which is sequential too.
        """
        order, counts, groups, tails, columns, values = self._layout
        vectors = np.asarray(other, float).T  # each product's vector on the last axis
        sums = np.zeros((*vectors.shape[:-1], self.shape[0]))

        def terms(start, stop):
            gathered = vectors.take(columns[start:stop], axis=-1)
            if values is not None:
                gathered *= values[start:stop]  # x * 1.0 == x, so all ones skip it
            return gathered

        for first, end, start, stop in groups:
            group, at = terms(start, stop), 0
            for k in counts[first:end]:
                sums[..., :k] += group[..., at : at + k]
                at += k
        for place, start, stop in tails:
            rest = terms(start, stop)
            rest[..., 0] += sums[..., place]
            sums[..., place] = np.cumsum(rest, axis=-1)[..., -1]
        products = np.empty_like(sums)
        products[..., order] = sums
        return products.T


def matrix_blocks(tweets, vocab: Vocabulary, mode: str = PRESENCE):
    """Lazily yield the rows of document_matrix(tweets, vocab, mode) as one
    DocumentMatrix per block of up to _BLOCK_ROWS rows, in order.  Each row
    scores alone, so scoring block by block gives the bits of scoring the
    whole matrix while holding one block's entries."""
    if mode not in FEATURE_MODES:
        raise ValueError(f"unknown feature mode: {mode!r}")
    batch = TokenBatch.of(tweets)
    word_ids, width, codes, bigrams = vocab._word_tables
    size = len(vocab)
    # the one lookup of each batch word
    place = np.fromiter(map(word_ids.get, batch.words, repeat(width - 1)), int, len(batch.words))
    for start in range(0, len(batch), _BLOCK_ROWS):
        bounds = batch.offsets[start : start + _BLOCK_ROWS + 1]
        ids = place[batch.ids[bounds[0] : bounds[-1]]]
        rows = _rows(bounds)
        pair_codes = ids[:-1] * width + ids[1:]
        order = pair_codes.argsort()  # searched in sorted order, codes stay in cache
        found = np.empty_like(order)
        found[order] = codes.searchsorted(pair_codes[order])
        del order  # freed before the block makes its larger arrays
        paired = (codes[found] == pair_codes) & (rows[:-1] == rows[1:])
        unigram_keys = (rows * size + ids)[ids < size]  # a unigram's id is its index
        bigram_keys = (rows[:-1] * size + bigrams[found])[paired]
        keys = np.concatenate((unigram_keys, bigram_keys))
        keys.sort()
        starts = np.empty(len(keys), bool)  # each key's first place
        starts[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=starts[1:])
        row_of, columns = np.divmod(keys[starts], size)
        if mode == FREQUENCY:
            values = np.bincount(starts.cumsum() - 1).astype(float)
        else:
            values = np.ones(len(columns))
        row_ends = np.bincount(row_of, minlength=len(bounds) - 1).cumsum()
        yield DocumentMatrix(values, columns, np.concatenate(([0], row_ends)), (len(row_ends), size))


def document_matrix(tweets, vocab: Vocabulary, mode: str = PRESENCE) -> DocumentMatrix:
    """Map normalized tweets, a TokenBatch or token lists, onto the
    vocabulary's index space: a (tweets x len(vocab)) DocumentMatrix whose
    rows hold each tweet's in-vocabulary unigram and bigram indices in
    ascending order, valued 1 in presence mode and by in-tweet count in
    frequency mode.  Out-of-vocabulary terms contribute nothing; an unknown
    mode raises ValueError."""
    batch = TokenBatch.of(tweets)
    # A token gives at most a unigram and the bigram it starts.  Pages past
    # the entries written are never touched, and resize gives them back.
    indices, data = np.empty(2 * len(batch.ids), np.intp), np.empty(2 * len(batch.ids))
    indptr = np.zeros(len(batch) + 1, np.intp)
    row = 0
    for block in matrix_blocks(batch, vocab, mode):
        done, end = indptr[row], indptr[row] + len(block.data)
        indices[done:end], data[done:end] = block.indices, block.data
        indptr[row + 1 : row + block.shape[0] + 1] = done + block.indptr[1:]
        row += block.shape[0]
    indices.resize(indptr[-1], refcheck=False)
    data.resize(indptr[-1], refcheck=False)
    return DocumentMatrix(data, indices, indptr, shape=(len(batch), len(vocab)))


def vectorize(tweet, vocab: Vocabulary, mode: str = PRESENCE) -> DocumentMatrix:
    """One normalized tweet as a one-row document_matrix."""
    return document_matrix([tweet], vocab, mode)


def training_matrix(corpus, vocab_size: int):
    """The (matrix, labels) pair both trainers fit.

    `corpus` is (DocumentMatrix, label) pairs, a label per row or one for
    all of a matrix's rows.  The rows are stacked in order into one
    DocumentMatrix of vocab_size columns; labels become an integer array.
    A corpus of one pair, as the CLI's train passes, is fit on that
    matrix's own arrays, without a copy: the trainers only read them.
    Raises ValueError on a negative vocab_size or a wider matrix, and
    DataError on a corpus without rows, a feature value that is negative
    or not finite, a per-row label list that does not match its matrix's
    rows, a label that is not an integer 0 or 1, or a single class.
    """
    if vocab_size < 0:
        raise ValueError("vocab_size must be non-negative")
    pairs = list(corpus)
    if not any(docs.shape[0] for docs, _ in pairs):
        raise DataError("no training data")
    if max(docs.shape[1] for docs, _ in pairs) > vocab_size:
        raise ValueError("a document matrix is wider than vocab_size")
    if len(pairs) == 1:
        docs = pairs[0][0]
        data = np.asarray(docs.data)
        indices = np.asarray(docs.indices, np.intp)
        indptr = np.asarray(docs.indptr, np.intp)
    else:
        data = np.concatenate([docs.data for docs, _ in pairs])
        indices = np.concatenate([docs.indices for docs, _ in pairs], dtype=np.intp)
        row_sizes = np.concatenate([np.diff(docs.indptr) for docs, _ in pairs])
        indptr = np.concatenate(([0], np.cumsum(row_sizes)), dtype=np.intp)
    if not (np.isfinite(data).all() and (data >= 0).all()):
        raise DataError("feature values must be finite and non-negative")
    for k, (docs, label) in enumerate(pairs):
        if np.ndim(label) and len(label) != docs.shape[0]:
            raise DataError(f"pair {k}: {len(label)} labels for {docs.shape[0]} rows")
        check_labels(label if np.ndim(label) else [label])
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
    lengths = np.diff(matrix.indptr)
    totals = np.empty((doc_weights.shape[1], matrix.shape[1]))
    for c, column in enumerate(doc_weights.T):
        # column[rows], times the data in place: the product's bits are data * w's
        weighted = np.repeat(column, lengths).astype(float, copy=False)
        if not matrix.all_ones:
            weighted *= matrix.data
        totals[c] = np.bincount(matrix.indices, weighted, matrix.shape[1])
        del weighted  # one class's weights at a time
    return totals


def class_scores(matrix, weights) -> np.ndarray:
    """matrix @ weights.T, shape (documents, 2).  A narrower matrix scores as
    if padded with zero columns; a wider one raises ValueError."""
    if matrix.shape[1] > weights.shape[1]:
        raise ValueError(f"a {matrix.shape[1]}-column matrix is wider than the model")
    return matrix @ weights.T
