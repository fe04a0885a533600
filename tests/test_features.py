"""Tests for n-gram counting, vocabulary building, and vectorization."""

import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sample_data import TRAINERS, row, rows
from tweetiment.errors import DataError
from tweetiment.features import (
    FREQUENCY,
    PRESENCE,
    Vocabulary,
    build_vocabulary,
    ngram_counts,
    training_matrix,
    vectorize,
)
from tweetiment.normalize import TokenBatch
from tweetiment.sentiment import Sentiment


def token_lists():
    return st.lists(st.sampled_from(["a", "b", "c", "d", "URL"]), max_size=6)


def corpora():
    return st.lists(token_lists(), max_size=8)


def ranked(ranking):
    """A ranking's (term, count) pairs in rank order."""
    return list(zip(ranking.terms(), ranking.counts.tolist()))


class TestExtraction:
    def test_bigrams_adjacent_pairs(self):
        _, bigrams = ngram_counts([["this", "is", "not", "good"]])
        assert ranked(bigrams) == [
            (("is", "not"), 1),
            (("not", "good"), 1),
            (("this", "is"), 1),
        ]

    def test_bigrams_single_token(self):
        assert ranked(ngram_counts([["hello"]])[1]) == []

    def test_bigrams_empty(self):
        assert ranked(ngram_counts([[]])[1]) == []

    @given(token_lists())
    def test_bigram_count(self, tokens):
        assert ngram_counts([tokens])[1].counts.sum() == max(0, len(tokens) - 1)

    def test_memory_stays_within_a_multiple_of_the_rankings(self, traced_peak):
        # long-tail text, where most bigrams occur once: the pair codes are
        # sorted in place and the rankings reordered in place, so the
        # temporaries stay near the size of what is returned
        rng = np.random.default_rng(3)
        lengths = rng.integers(0, 30, 8_000)
        ids = (rng.zipf(1.05, lengths.sum()) - 1) % 40_000
        offsets = np.concatenate(([0], lengths.cumsum()))
        words = [f"w{k}" for k in range(40_000)]
        batch = TokenBatch(words, ids.astype(np.int32), offsets.astype(np.int32))
        rankings, peak = traced_peak(ngram_counts, batch)
        output = sum(ranking.codes.nbytes + ranking.counts.nbytes for ranking in rankings)
        assert peak < 2.5 * output


class TestBuildVocabulary:
    def test_most_frequent_kept(self):
        vocab = build_vocabulary([["a", "b", "a"]], n_unigrams=1, n_bigrams=0)
        assert vocab.unigram_index == {"a": 0}
        assert vocab.bigram_index == {}

    def test_budget_exceeding_uniques(self):
        vocab = build_vocabulary([["a", "b"]], n_unigrams=10, n_bigrams=10)
        assert len(vocab.unigram_index) == 2
        assert vocab.bigram_index == {("a", "b"): 2}

    def test_tie_break_lexicographic(self):
        vocab = build_vocabulary([["a"], ["b"]], n_unigrams=1, n_bigrams=0)
        assert vocab.unigram_index == {"a": 0}

    def test_bigram_indices_follow_unigram_block(self):
        vocab = build_vocabulary([["x", "y", "x", "y"]], n_unigrams=5, n_bigrams=5)
        assert set(vocab.unigram_index.values()) == {0, 1}
        assert all(i >= 2 for i in vocab.bigram_index.values())
        assert len(vocab) == len(vocab.unigram_index) + len(vocab.bigram_index)

    def test_empty_corpus_is_valid(self):
        vocab = build_vocabulary([], n_unigrams=5, n_bigrams=5)
        assert len(vocab) == 0

    def test_bad_budgets_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary([], n_unigrams=0, n_bigrams=0)
        with pytest.raises(ValueError):
            build_vocabulary([], n_unigrams=1, n_bigrams=-1)

    def test_shuffle_invariance(self):
        corpus = [["a", "b"], ["b", "c"], ["c", "a", "c"], ["d"]]
        reference = build_vocabulary(corpus, n_unigrams=3, n_bigrams=2)
        rng = random.Random(7)
        for _ in range(50):
            shuffled = corpus[:]
            rng.shuffle(shuffled)
            vocab = build_vocabulary(shuffled, n_unigrams=3, n_bigrams=2)
            assert vocab.unigram_index == reference.unigram_index
            assert vocab.bigram_index == reference.bigram_index

    @given(corpora())
    def test_indices_contiguous_and_disjoint(self, corpus):
        vocab = build_vocabulary(corpus, n_unigrams=4, n_bigrams=3)
        indices = sorted(vocab.unigram_index.values()) + sorted(vocab.bigram_index.values())
        assert indices == list(range(len(vocab)))

    @given(corpora())
    def test_budgets_respected(self, corpus):
        vocab = build_vocabulary(corpus, n_unigrams=2, n_bigrams=2)
        assert len(vocab.unigram_index) <= 2
        assert len(vocab.bigram_index) <= 2

    @given(corpora())
    def test_discarded_terms_never_outrank_kept(self, corpus):
        vocab = build_vocabulary(corpus, n_unigrams=2, n_bigrams=0)
        counts = Counter(token for tweet in corpus for token in tweet)
        if vocab.unigram_index and len(counts) > len(vocab.unigram_index):
            kept_min = min(counts[t] for t in vocab.unigram_index)
            dropped_max = max(c for t, c in counts.items() if t not in vocab.unigram_index)
            assert kept_min >= dropped_max


class TestVectorize:
    vocab = Vocabulary(
        unigrams=("good", "bad"),
        bigrams=(("good", "bad"),),
        unigram_budget=2,
        bigram_budget=1,
    )

    def test_frequency_counts(self):
        vec = vectorize(["good", "good"], self.vocab, FREQUENCY)
        assert vec.entries == {0: 2}

    def test_presence_collapses_repeats(self):
        vec = vectorize(["good", "good"], self.vocab, PRESENCE)
        assert vec.entries == {0: 1}

    def test_oov_contributes_nothing(self):
        assert vectorize(["zzz"], self.vocab, PRESENCE).entries == {}

    def test_bigram_entry(self):
        vec = vectorize(["good", "bad"], self.vocab, FREQUENCY)
        assert vec.entries == {0: 1, 1: 1, 2: 1}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="feature mode"):
            vectorize(["good"], self.vocab, "tfidf")

    @given(token_lists())
    def test_presence_invariant_under_duplication(self, tokens):
        vocab = build_vocabulary([tokens], n_unigrams=10, n_bigrams=10)
        once = vectorize(tokens, vocab, PRESENCE)
        doubled = vectorize(tokens + tokens, vocab, PRESENCE)
        # Doubling the tweet introduces one new bigram at the seam at most.
        seam = set(doubled.entries) - set(once.entries)
        assert all(doubled.entries[i] == 1 for i in doubled.entries)
        assert len(seam) <= 1

    @given(corpora(), token_lists())
    def test_every_index_resolves_to_a_term(self, corpus, tokens):
        vocab = build_vocabulary(corpus, n_unigrams=5, n_bigrams=5)
        terms = {i: t for t, i in vocab.unigram_index.items()}
        terms.update({i: t for t, i in vocab.bigram_index.items()})
        vec = vectorize(tokens, vocab, FREQUENCY)
        for index in vec.entries:
            term = terms[index]
            if isinstance(term, tuple):
                assert vocab.bigram_index[term] == index
            else:
                assert vocab.unigram_index[term] == index


class TestRankFrequency:
    def test_sorting(self):
        assert ranked(ngram_counts([["b", "a", "a", "a"]])[0]) == [("a", 3), ("b", 1)]

    def test_empty(self):
        assert [ranked(ranking) for ranking in ngram_counts([])] == [[], []]

    def test_tie_break(self):
        assert ranked(ngram_counts([["b"], ["a"]])[0]) == [("a", 1), ("b", 1)]

    @given(corpora())
    def test_counts_sum_to_total_occurrences(self, corpus):
        unigrams, _ = ngram_counts(corpus)
        assert unigrams.counts.sum() == sum(len(t) for t in corpus)

    @given(corpora())
    def test_bigram_totals(self, corpus):
        _, bigrams = ngram_counts(corpus)
        total = sum(max(0, len(t) - 1) for t in corpus)
        assert bigrams.counts.sum() == total


class TestTrainingMatrix:
    # The rejected corpora that every trainer shares are in
    # sample_data.BAD_TRAINING_CORPORA; this is the one ValueError case.
    @pytest.mark.parametrize("trainer", sorted(TRAINERS))
    def test_negative_vocab_size(self, trainer):
        corpus = [(row({0: 1}), Sentiment.POSITIVE), (row({1: 1}), Sentiment.NEGATIVE)]
        with pytest.raises(ValueError, match="vocab_size must be non-negative"):
            TRAINERS[trainer](corpus, vocab_size=-1)

    @pytest.mark.parametrize("trainer", sorted(TRAINERS))
    def test_matrix_wider_than_vocab_size(self, trainer):
        # an index at or beyond vocab_size is an error, not a dropped entry
        corpus = [(row({0: 1}), Sentiment.POSITIVE), (row({2: 1}), Sentiment.NEGATIVE)]
        with pytest.raises(ValueError, match="wider than vocab_size"):
            TRAINERS[trainer](corpus, vocab_size=2)

    @pytest.mark.parametrize("trainer", sorted(TRAINERS))
    @pytest.mark.parametrize(
        "labels, bad",
        [([0, 1, 2], "2"), ([0, 1, -1], "-1"), ([0, 1, 1.5], "1.5"), (["1", "0", "1"], "'1'")],
    )
    def test_labels_other_than_0_and_1(self, trainer, labels, bad):
        # without the label check these raised IndexError or numpy's ValueError, or
        # trained on the labels as int() read them
        docs = rows([{0: 1}, {1: 1}, {0: 1, 1: 2}])
        with pytest.raises(DataError, match=re.escape(f"labels must be 0 or 1, got {bad}")):
            TRAINERS[trainer]([(docs, labels)], vocab_size=2)

    @pytest.mark.parametrize("trainer", sorted(TRAINERS))
    def test_a_matrix_label_other_than_0_and_1(self, trainer):
        corpus = [(rows([{0: 1}, {1: 1}]), 2), (row({0: 1}), Sentiment.NEGATIVE)]
        with pytest.raises(DataError, match="labels must be 0 or 1, got 2"):
            TRAINERS[trainer](corpus, vocab_size=2)

    @pytest.mark.parametrize("trainer", sorted(TRAINERS))
    def test_a_label_list_of_the_wrong_length(self, trainer):
        # numpy's broadcast once raised ValueError without naming the pair
        corpus = [(row({0: 1}), 1), (rows([{0: 1}, {1: 1}, {1: 2}]), [1, 0])]
        with pytest.raises(DataError, match="pair 1: 2 labels for 3 rows"):
            TRAINERS[trainer](corpus, vocab_size=2)

    def test_integer_labels_of_every_kind(self):
        docs = rows([{0: 1}, {1: 1}, {0: 1}, {1: 1}])
        labels = [True, np.int64(0), Sentiment.POSITIVE, 0]
        assert training_matrix([(docs, labels)], vocab_size=2)[1].tolist() == [1, 0, 1, 0]

    def test_one_pair_is_fit_on_its_own_arrays(self):
        docs = rows([{0: 1}, {}, {1: 2, 2: 1}])
        matrix, labels = training_matrix([(docs, [1, 0, 1])], vocab_size=4)
        assert labels.tolist() == [1, 0, 1]
        assert matrix.shape == (3, 4)
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(matrix, name), getattr(docs, name))

    def test_labels_broadcast_over_rows(self):
        # one label for a whole matrix, or one per row; rows keep their order
        corpus = [
            (rows([{0: 1}, {}, {1: 2}]), Sentiment.POSITIVE),
            (rows([{2: 1}, {0: 3}]), [Sentiment.NEGATIVE, Sentiment.POSITIVE]),
        ]
        matrix, labels = training_matrix(corpus, vocab_size=4)
        assert labels.tolist() == [1, 1, 1, 0, 1]
        assert matrix.shape == (5, 4)
        dense = np.zeros(matrix.shape)
        dense[np.arange(5).repeat(np.diff(matrix.indptr)), matrix.indices] = matrix.data
        assert dense.tolist() == [
            [1, 0, 0, 0], [0, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [3, 0, 0, 0]
        ]
