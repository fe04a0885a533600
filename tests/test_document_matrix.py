"""The CSR document matrix and the batch predict paths built on it.

`document_matrix` must equal a plain-Python count of each tweet's
in-vocabulary n-grams, put through the COO construction the MaxEnt
trainer used before the matrix existed; stacking one-row matrices for
training must give the arrays of one batch call; the matrix's products,
and the transposed products training takes, must be bit-equal to
scipy's CSR products on the same arrays; and every
single-document predict call must be a one-row batch call: bit-equal
scores, equal labels.
"""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from sample_data import rows
from tweetiment.features import (
    FEATURE_MODES,
    FREQUENCY,
    PRESENCE,
    DocumentMatrix,
    Vocabulary,
    build_vocabulary,
    class_scores,
    class_totals,
    document_matrix,
    training_matrix,
    vectorize,
)
from tweetiment.models.maxent import (
    TrainerConfig,
    maxent_predict,
    maxent_probs,
    maxent_train,
)
from tweetiment.models.naive_bayes import nb_predict, nb_scores, nb_train
from tweetiment.normalize import TokenBatch, normalize_batch
from tweetiment.sentiment import Sentiment, argmax_labels
from tweetiment.serialize import (
    ModelArtifact,
    TrainingMetadata,
    artifact_predict,
    artifact_predict_many,
)


def oracle_entries(tweet, vocab, mode):
    """A tweet's in-vocabulary unigram and bigram hits, counted in plain Python."""
    hits = Counter()
    for word in tweet:
        if word in vocab.unigram_index:
            hits[vocab.unigram_index[word]] += 1
    for pair in zip(tweet, tweet[1:]):
        if pair in vocab.bigram_index:
            hits[vocab.bigram_index[pair]] += 1
    return {index: 1 if mode == PRESENCE else count for index, count in hits.items()}


def coo_oracle(entries_list, vocab_size):
    """The per-entry COO construction that document_matrix replaced."""
    row_ids, cols, data = [], [], []
    for d, entries in enumerate(entries_list):
        for index, value in entries.items():
            row_ids.append(d)
            cols.append(index)
            data.append(float(value))
    return csr_matrix((data, (row_ids, cols)), shape=(len(entries_list), vocab_size))


def assert_same_arrays(built, expected):
    """The arrays of `built` equal `expected`'s, with float64 data and, where
    scipy's are int32, intp index arrays."""
    assert built.shape == expected.shape
    assert built.data.dtype == expected.data.dtype
    assert built.indices.dtype == built.indptr.dtype == np.intp
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(built, name), getattr(expected, name)), name


# "zz" and "yy" are never in a vocabulary built from `vocab_words`, so some
# tweets are all out of vocabulary; two-letter alphabets repeat bigrams.
vocab_words = st.lists(st.sampled_from(["a", "b", "c", "URL"]), max_size=6)
tweet_words = st.lists(st.sampled_from(["a", "b", "c", "URL", "zz", "yy"]), max_size=9)
vocabularies = st.one_of(
    st.just(Vocabulary({}, {}, unigram_budget=1, bigram_budget=0)),
    st.builds(
        build_vocabulary,
        st.lists(vocab_words, max_size=5),
        n_unigrams=st.integers(1, 4),
        n_bigrams=st.integers(0, 6),
    ),
)


class TestDocumentMatrix:
    @given(vocabularies, st.lists(tweet_words, max_size=8), st.sampled_from(FEATURE_MODES))
    def test_equals_coo_construction(self, vocab, tweets, mode):
        built = document_matrix(iter(tweets), vocab, mode)
        expected = [oracle_entries(tweet, vocab, mode) for tweet in tweets]
        assert_same_arrays(built, coo_oracle(expected, len(vocab)))
        for tweet, entries in zip(tweets, expected):
            assert vectorize(tweet, vocab, mode).entries == entries

    @pytest.mark.parametrize(
        "tweets, vocab_tweets, mode, expected",
        [
            ([["a", "b"]], [], FREQUENCY, [{}]),
            ([["zz", "yy"], []], [["a", "b"]], FREQUENCY, [{}, {}]),
            ([["a", "b"] * 3], [["a", "b", "a"]], FREQUENCY, [{0: 3, 1: 3, 2: 3, 3: 2}]),
            ([["a", "b"] * 3], [["a", "b", "a"]], PRESENCE, [{0: 1, 1: 1, 2: 1, 3: 1}]),
        ],
        ids=["empty-vocabulary", "all-oov", "repeated-bigrams", "repeated-presence"],
    )
    def test_edge_cases(self, tweets, vocab_tweets, mode, expected):
        # build_vocabulary([["a", "b", "a"]]) gives a=0, b=1, (a, b)=2, (b, a)=3
        vocab = build_vocabulary(vocab_tweets, n_unigrams=5, n_bigrams=5)
        assert_same_arrays(document_matrix(tweets, vocab, mode), coo_oracle(expected, len(vocab)))

    def test_empty_input(self):
        vocab = build_vocabulary([["a", "b"]])
        assert_same_arrays(document_matrix([], vocab), coo_oracle([], len(vocab)))

    def test_entries_needs_one_row(self):
        vocab = build_vocabulary([["a"]])
        assert vectorize([], vocab).entries == {}
        with pytest.raises(ValueError, match="one-row"):
            document_matrix([["a"], ["a"]], vocab).entries

    @given(
        vocabularies, st.lists(tweet_words, min_size=2, max_size=8), st.sampled_from(FEATURE_MODES)
    )
    def test_stacked_rows_equal_one_batch(self, vocab, tweets, mode):
        # the benchmark trains on per-tweet pairs, the CLI on one batch pair:
        # both must reach the trainers as the same arrays
        labels = [Sentiment(d % 2) for d in range(len(tweets))]
        batch = document_matrix(tweets, vocab, mode)
        one_pair, batch_labels = training_matrix([(batch, labels)], len(vocab))
        per_tweet, tweet_labels = training_matrix(
            [(vectorize(tweet, vocab, mode), label) for tweet, label in zip(tweets, labels)],
            len(vocab),
        )
        assert_same_arrays(one_pair, batch)
        assert_same_arrays(per_tweet, batch)
        assert batch_labels.tolist() == tweet_labels.tolist() == [int(y) for y in labels]


# raw forms that clean to one token ("a," and "(a)" are a), markers, and
# words no vocabulary built here holds
RAW_WORDS = ["a", "a,", "(a)", "A!", "b", "b...", "'b'", "c", "zz", "yy", ":)", "http://x.y", "@who"]
raw_tweets = st.lists(st.sampled_from(RAW_WORDS), max_size=9).map(" ".join)


class TestTokenBatch:
    @given(
        st.lists(raw_tweets, max_size=6),
        st.lists(raw_tweets, max_size=8),
        st.integers(1, 4),
        st.integers(0, 6),
        st.sampled_from(FEATURE_MODES),
    )
    def test_normalized_batch_equals_coo_construction(self, vocab_raws, raws, n_uni, n_bi, mode):
        vocab = build_vocabulary(normalize_batch(vocab_raws), n_uni, n_bi)
        batch = normalize_batch(raws)
        expected = [oracle_entries(tweet, vocab, mode) for tweet in batch]
        assert_same_arrays(document_matrix(batch, vocab, mode), coo_oracle(expected, len(vocab)))

    def test_repeated_and_unused_words(self):
        # ids 0 and 2 both stand for "a", and "x" is listed but never used
        batch = TokenBatch(
            ["a", "b", "a", "x"], np.array([0, 1, 2, 2, 0], np.int32), np.array([0, 0, 1, 5], np.int32)
        )
        tweets = [[], ["a"], ["b", "a", "a", "a"]]
        assert list(batch) == tweets
        vocab = build_vocabulary(tweets, 5, 5)
        assert build_vocabulary(batch, 5, 5) == vocab
        for mode in FEATURE_MODES:
            expected = [oracle_entries(tweet, vocab, mode) for tweet in tweets]
            assert_same_arrays(document_matrix(batch, vocab, mode), coo_oracle(expected, len(vocab)))

    def test_a_batch_is_not_rebuilt(self):
        batch = TokenBatch.of([["a", "b"], ["b"]])
        assert TokenBatch.of(batch) is batch
        assert batch.words == ["a", "b"]
        assert batch.ids.tolist() == [0, 1, 1] and batch.offsets.tolist() == [0, 2, 3]


def test_memory_stays_within_a_multiple_of_the_output(traced_peak):
    # rows are built in blocks, so the temporaries do not grow with the batch
    rng = np.random.default_rng(5)
    lengths = rng.integers(0, 25, 20_000)
    ids = (rng.zipf(1.2, lengths.sum()) - 1) % 5_000
    offsets = np.concatenate(([0], lengths.cumsum()))
    batch = TokenBatch([f"w{k}" for k in range(5_000)], ids.astype(np.int32), offsets.astype(np.int32))
    vocab = build_vocabulary(batch, 3_000, 3_000)
    document_matrix([], vocab)  # the vocabulary's lookup tables are built once, here
    matrix, peak = traced_peak(document_matrix, batch, vocab, FREQUENCY)
    output = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    assert peak < 2.5 * output


def test_argmax_labels_gives_the_members_ties_positive():
    scores = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [-np.inf, -np.inf]])
    labels = argmax_labels(scores)
    expected = [Sentiment.POSITIVE, Sentiment.NEGATIVE, Sentiment.POSITIVE, Sentiment.POSITIVE]
    assert all(label is member for label, member in zip(labels, expected, strict=True))


def assert_products_match_scipy(matrix, weights):
    """matrix @ row, class_scores and class_totals equal scipy's on the same
    CSR arrays, bit for bit and in dtype.  class_totals weighs the rows by
    the class scores, which hold negative and fractional values."""
    oracle = csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)
    for weight_row in weights:
        product, expected = matrix @ weight_row, oracle @ weight_row
        assert product.dtype == expected.dtype
        assert np.array_equal(product, expected)
    scores = class_scores(matrix, weights)
    assert np.array_equal(scores, oracle @ weights.T)
    totals, expected = class_totals(matrix, scores), (oracle.T @ scores).T
    assert totals.dtype == expected.dtype
    assert totals.shape == expected.shape
    assert np.array_equal(totals, expected)


values = st.one_of(
    st.integers(min_value=-3, max_value=5),
    st.floats(min_value=-4, max_value=4, allow_nan=False),
)
weight_values = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def entry_rows(vocab_size):
    """Up to 8 index -> value dicts over [0, vocab_size)."""
    indices = st.integers(min_value=0, max_value=max(vocab_size - 1, 0))
    entries = st.dictionaries(indices, values, max_size=8 if vocab_size else 0)
    return st.lists(entries, max_size=8)


class TestProductMatchesScipy:
    @given(st.integers(min_value=0, max_value=12), st.data())
    def test_random_matrices(self, vocab_size, data):
        # values are negative or fractional, rows empty, documents absent
        matrix = rows(data.draw(entry_rows(vocab_size)), vocab_size)
        flat = data.draw(st.lists(weight_values, min_size=2 * vocab_size, max_size=2 * vocab_size))
        assert_products_match_scipy(matrix, np.array(flat).reshape(2, vocab_size))

    @pytest.mark.parametrize(
        "entries_list, vocab_size",
        [([], 4), ([], 0), ([{}], 0), ([{}, {}], 3)],
        ids=["no-documents", "no-documents-no-vocabulary", "no-vocabulary", "empty-rows"],
    )
    def test_degenerate_shapes(self, entries_list, vocab_size):
        weights = np.arange(2.0 * vocab_size).reshape(2, vocab_size) - 0.5
        assert_products_match_scipy(rows(entries_list, vocab_size), weights)

    def test_long_rows(self):
        # hundreds of additions per row, where a different order would show
        rng = np.random.default_rng(11)
        entries_list = []
        for n in rng.integers(0, 400, size=60):
            indices = rng.choice(900, size=n, replace=False).tolist()
            entries_list.append(dict(zip(indices, rng.normal(size=n))))
        weights = rng.normal(scale=30, size=(2, 900))
        assert_products_match_scipy(rows(entries_list, 900), weights)

    def test_narrower_matrix_scores_as_padded(self):
        entries_list = [{0: 2.0, 3: 1.5}, {}, {1: 4.0}]
        weights = np.random.default_rng(3).normal(size=(2, 7))
        narrow = class_scores(rows(entries_list), weights)
        assert np.array_equal(narrow, class_scores(rows(entries_list, 7), weights))


def bincount_matvec(matrix, vector):
    """matrix @ vector as it was before the row layout, kept as its oracle:
    np.bincount adds each row's products in entry order."""
    rows = np.arange(matrix.shape[0]).repeat(np.diff(matrix.indptr))
    products = np.bincount(rows, matrix.data * vector[matrix.indices], matrix.shape[0])
    return products.astype(float, copy=False)  # int64 when there are no entries


@st.composite
def layout_matrices(draw):
    """A DocumentMatrix with no rows, empty rows, short rows, and perhaps
    one row of 20,000 entries; valued by counts, all ones or any float."""
    width = draw(st.integers(min_value=1, max_value=30))
    index = st.integers(min_value=0, max_value=width - 1)
    kind = draw(st.sampled_from(["ones", "counts", "floats"]))
    value = {
        "ones": st.just(1.0),
        "counts": st.integers(min_value=1, max_value=4).map(float),
        "floats": st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    }[kind]
    entries_list = draw(st.lists(st.dictionaries(index, value, max_size=width), max_size=12))
    matrix = rows(entries_list, width)
    if draw(st.booleans()):  # one long row, spliced in at a drawn place
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        at = draw(st.integers(min_value=0, max_value=matrix.shape[0]))
        long_data = {
            "ones": np.ones(20_000),
            "counts": rng.integers(1, 5, 20_000) * 1.0,
            "floats": rng.uniform(-1e3, 1e3, 20_000),
        }[kind]
        long_indices = rng.integers(0, width, 20_000)
        lengths = np.diff(matrix.indptr)
        cut = matrix.indptr[at]
        data = np.concatenate((matrix.data[:cut], long_data, matrix.data[cut:]))
        indices = np.concatenate((matrix.indices[:cut], long_indices, matrix.indices[cut:]))
        lengths = np.insert(lengths, at, 20_000)
        indptr = np.concatenate(([0], lengths.cumsum()))
        matrix = DocumentMatrix(data, indices.astype(np.intp), indptr.astype(np.intp), (len(lengths), width))
    return matrix


weight_rows = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestRowLayout:
    @given(layout_matrices(), st.data())
    def test_products_equal_the_bincount_oracle(self, matrix, data):
        # a wider vector is how a narrower matrix meets the model
        width = matrix.shape[1] + data.draw(st.integers(min_value=0, max_value=3))
        weights = np.array(data.draw(st.lists(weight_rows, min_size=2 * width, max_size=2 * width)))
        weights = weights.reshape(2, width)
        expected = [bincount_matvec(matrix, row) for row in weights]
        for row, oracle in zip(weights, expected):
            product = matrix @ row
            assert product.dtype == np.float64 and product.shape == (matrix.shape[0],)
            assert np.array_equal(product.view(np.int64), oracle.view(np.int64))
        scores = class_scores(matrix, weights)
        assert scores.shape == (matrix.shape[0], 2)
        assert np.array_equal(scores.view(np.int64), np.stack(expected, axis=1).view(np.int64))

    def test_a_long_row_takes_no_step_per_entry(self):
        lengths = np.array([3, 20_000, 0, 5, 1] * 20)
        indptr = np.concatenate(([0], lengths.cumsum()))
        rng = np.random.default_rng(4)
        indices = rng.integers(0, 50, indptr[-1])
        matrix = DocumentMatrix(rng.normal(size=indptr[-1]), indices, indptr, (len(lengths), 50))
        _, counts, _, tails, _, _ = matrix._layout
        # 20 rows of 20,000 entries: each is summed alone after 5 diagonals
        assert len(counts) == 5 and len(tails) == 20
        vector = rng.normal(size=50)
        assert np.array_equal((matrix @ vector).view(np.int64), bincount_matvec(matrix, vector).view(np.int64))


def random_corpus(seed, n_docs=60):
    rng = random.Random(seed)
    words = ["good", "bad", "fun", "awful", "day", "game", "EMO_POS", "EMO_NEG", "the"]
    tweets, labels = [], []
    for d in range(n_docs):
        label = Sentiment(d % 2)
        lean = ["good", "fun", "EMO_POS"] if label else ["bad", "awful", "EMO_NEG"]
        tweets.append([rng.choice(words + lean) for _ in range(rng.randint(0, 8))])
        labels.append(label)
    return tweets, labels


def probe_tweets(seed):
    # fresh text: OOV words, empty tweets and repeated terms
    tweets, _ = random_corpus(seed + 1000, n_docs=40)
    return tweets + [[], ["unseen", "words"], ["good", "good", "good", "bad"]]


@pytest.fixture(params=FEATURE_MODES)
def trained(request):
    mode = request.param
    tweets, labels = random_corpus(7)
    vocab = build_vocabulary(tweets, n_unigrams=8, n_bigrams=6)
    corpus = [(document_matrix(tweets, vocab, mode), labels)]
    nb = nb_train(corpus, len(vocab), alpha=1.0)
    me = maxent_train(corpus, len(vocab), TrainerConfig(algorithm="gis", max_iterations=20))
    return mode, vocab, nb, me, probe_tweets(7)


class TestBatchEqualsPerDocument:
    def test_naive_bayes(self, trained):
        mode, vocab, model, _, tweets = trained
        scores = nb_scores(model, document_matrix(tweets, vocab, mode))
        labels = argmax_labels(scores)
        for k, tweet in enumerate(tweets):
            label, doc_scores = nb_predict(model, vectorize(tweet, vocab, mode))
            assert np.array_equal(doc_scores, scores[k])
            assert label is labels[k]

    def test_maxent(self, trained):
        mode, vocab, _, model, tweets = trained
        probs = maxent_probs(model, document_matrix(tweets, vocab, mode))
        labels = argmax_labels(probs)
        for k, tweet in enumerate(tweets):
            doc = vectorize(tweet, vocab, mode)
            assert np.array_equal(maxent_probs(model, doc)[0], probs[k])
            assert maxent_predict(model, doc) is labels[k]

    @pytest.mark.parametrize("kind", ["naive_bayes", "maxent"])
    def test_artifact(self, trained, kind):
        mode, vocab, nb, me, tweets = trained
        model = nb if kind == "naive_bayes" else me
        meta = TrainingMetadata(n_docs=60, trained_at="x", feature_mode=mode, alpha=1.0)
        artifact = ModelArtifact(kind=kind, vocabulary=vocab, model=model, metadata=meta)
        labels = artifact_predict_many(artifact, iter(tweets))
        assert labels == [artifact_predict(artifact, tokens) for tokens in tweets]
        assert set(labels) == {Sentiment.NEGATIVE, Sentiment.POSITIVE}
