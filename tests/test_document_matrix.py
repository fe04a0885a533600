"""The CSR document matrix and the batch predict paths built on it.

`document_matrix` must equal the COO construction the MaxEnt trainer used
before it existed, its products must be bit-equal to scipy's CSR products
on the same arrays, and every single-document predict call must be a
one-row batch call: bit-equal scores, equal labels.
"""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from tweetiment.features import (
    FEATURE_MODES,
    FeatureVector,
    build_vocabulary,
    class_scores,
    document_matrix,
    vectorize,
)
from tweetiment.models.maxent import (
    TrainerConfig,
    maxent_predict,
    maxent_prob,
    maxent_probs,
    maxent_train,
)
from tweetiment.models.naive_bayes import nb_predict, nb_scores, nb_train
from tweetiment.sentiment import Sentiment, argmax_labels
from tweetiment.serialize import (
    ModelArtifact,
    TrainingMetadata,
    artifact_predict,
    artifact_predict_many,
)


def coo_oracle(vectors, vocab_size):
    """The per-entry COO construction that document_matrix replaced."""
    rows, cols, data = [], [], []
    for d, vector in enumerate(vectors):
        for index, value in vector.entries.items():
            if 0 <= index < vocab_size and value != 0:
                rows.append(d)
                cols.append(index)
                data.append(float(value))
    return csr_matrix((data, (rows, cols)), shape=(len(vectors), vocab_size))


values = st.one_of(
    st.integers(min_value=-3, max_value=5),
    st.floats(min_value=-4, max_value=4, allow_nan=False),
)
vectors = st.lists(
    st.builds(
        FeatureVector,
        entries=st.dictionaries(st.integers(min_value=-3, max_value=14), values, max_size=8),
    ),
    max_size=8,
)


class TestDocumentMatrix:
    @given(vectors, st.integers(min_value=0, max_value=12))
    def test_equals_coo_construction(self, docs, vocab_size):
        # entries include out-of-range indices and zero values
        built = document_matrix(iter(docs), vocab_size)
        expected = coo_oracle(docs, vocab_size)
        assert built.shape == expected.shape
        assert np.array_equal(built.indptr, expected.indptr)
        assert np.array_equal(built.indices, expected.indices)
        assert np.array_equal(built.data, expected.data)

    def test_empty_input(self):
        assert document_matrix([], 4).shape == (0, 4)


def assert_products_match_scipy(matrix, weights):
    """matrix @ row and class_scores equal scipy's on the same CSR arrays,
    bit for bit and in dtype."""
    oracle = csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)
    for row in weights:
        product, expected = matrix @ row, oracle @ row
        assert product.dtype == expected.dtype
        assert np.array_equal(product, expected)
    assert np.array_equal(class_scores(matrix, weights), class_scores(oracle, weights))


weight_values = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


class TestProductMatchesScipy:
    @given(vectors, st.integers(min_value=0, max_value=12), st.data())
    def test_random_matrices(self, docs, vocab_size, data):
        # values are negative or fractional, rows empty, documents absent
        matrix = document_matrix(docs, vocab_size)
        flat = data.draw(st.lists(weight_values, min_size=2 * vocab_size, max_size=2 * vocab_size))
        assert_products_match_scipy(matrix, np.array(flat).reshape(2, vocab_size))

    @pytest.mark.parametrize(
        "docs, vocab_size",
        [
            ([], 4),
            ([], 0),
            ([FeatureVector(entries={0: 1.5})], 0),
            ([FeatureVector(entries={}), FeatureVector(entries={})], 3),
        ],
        ids=["no-documents", "no-documents-no-vocabulary", "no-vocabulary", "empty-rows"],
    )
    def test_degenerate_shapes(self, docs, vocab_size):
        weights = np.arange(2.0 * vocab_size).reshape(2, vocab_size) - 0.5
        assert_products_match_scipy(document_matrix(docs, vocab_size), weights)

    def test_long_rows(self):
        # hundreds of additions per row, where a different order would show
        rng = np.random.default_rng(11)
        docs = []
        for n in rng.integers(0, 400, size=60):
            indices = rng.choice(900, size=n, replace=False).tolist()
            docs.append(FeatureVector(entries=dict(zip(indices, rng.normal(size=n)))))
        weights = rng.normal(scale=30, size=(2, 900))
        assert_products_match_scipy(document_matrix(docs, 900), weights)


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
    corpus = [(vectorize(t, vocab, mode), y) for t, y in zip(tweets, labels)]
    nb = nb_train(corpus, len(vocab), alpha=1.0)
    me = maxent_train(corpus, len(vocab), TrainerConfig(algorithm="gis", max_iterations=20))
    docs = [vectorize(t, vocab, mode) for t in probe_tweets(7)]
    return mode, vocab, nb, me, docs


class TestBatchEqualsPerDocument:
    def test_naive_bayes(self, trained):
        _, _, model, _, docs = trained
        scores = nb_scores(model, document_matrix(docs, model.vocab_size))
        labels = argmax_labels(scores)
        for k, doc in enumerate(docs):
            label, doc_scores = nb_predict(model, doc)
            assert np.array_equal(doc_scores, scores[k])
            assert label is labels[k]

    def test_maxent(self, trained):
        _, _, _, model, docs = trained
        probs = maxent_probs(model, document_matrix(docs, model.vocab_size))
        labels = argmax_labels(probs)
        for k, doc in enumerate(docs):
            assert np.array_equal(maxent_prob(model, doc), probs[k])
            assert maxent_predict(model, doc) is labels[k]

    @pytest.mark.parametrize("kind", ["naive_bayes", "maxent"])
    def test_artifact(self, trained, kind):
        mode, vocab, nb, me, _ = trained
        model = nb if kind == "naive_bayes" else me
        meta = TrainingMetadata(n_docs=60, trained_at="x", feature_mode=mode, alpha=1.0)
        artifact = ModelArtifact(kind=kind, vocabulary=vocab, model=model, metadata=meta)
        tweets = probe_tweets(7)
        labels = artifact_predict_many(artifact, iter(tweets))
        assert labels == [artifact_predict(artifact, tokens) for tokens in tweets]
        assert set(labels) == {Sentiment.NEGATIVE, Sentiment.POSITIVE}
