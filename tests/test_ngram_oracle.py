"""`ngram_counts` against the counting and ranking it replaced.

The reference below is the code the counter took over: two `Counter`s
(every token, and every adjacent pair of a tweet) ranked by a keyed
`sorted`, descending count and ties by ascending term.  The counter must
give the same full rankings on any corpus, whatever the tokens hold, and
`build_vocabulary` must keep the reference's first ranks.  The `stats`
command's rank CSVs and stdout must equal what the reference and the
`corpus_stats` oracle give.
"""

import csv
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from test_stats_oracle import corpus_stats_oracle
from tweetiment.cli import main
from tweetiment.evaluation import format_stats
from tweetiment.features import build_vocabulary, ngram_counts
from tweetiment.normalize import TokenBatch, normalize_batch
from tweetiment.sentiment import Sentiment


def _ranked(counts: Counter) -> list:
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def oracle_rankings(corpus):
    """(unigram, bigram) rankings as (term, count) lists, from two Counters."""
    unigrams, bigrams = Counter(), Counter()
    for tweet in corpus:
        unigrams.update(tweet)
        bigrams.update(zip(tweet, tweet[1:]))
    return _ranked(unigrams), _ranked(bigrams)


def ranked(ranking) -> list:
    return list(zip(ranking.terms(), ranking.counts.tolist()))


# tokens that sort next to each other, are prefixes of one another, or hold
# a separator, a NUL or non-ASCII text: nothing about their characters may
# matter
TOKENS = ["", "\x00", "\x00a", "\t", " ", "a b", "a", "ab", "abc", "b", "é", "éa", "z", "URL"]
tweets = st.lists(st.one_of(st.sampled_from(TOKENS), st.text(max_size=3)), max_size=8)
corpora = st.lists(tweets, max_size=12)


@given(corpora)
def test_full_rankings_equal_the_reference(corpus):
    unigrams, bigrams = ngram_counts(corpus)
    assert (ranked(unigrams), ranked(bigrams)) == oracle_rankings(corpus)
    assert ngram_counts(iter(corpus))[1].terms() == bigrams.terms()  # a one-pass iterable


@given(corpora, st.integers(0, 20))
def test_terms_of_the_first_ranks(corpus, stop):
    for ranking in ngram_counts(corpus):
        assert ranking.terms(stop) == ranking.terms()[:stop]


@given(corpora)
def test_vocabulary_keeps_the_reference_head(corpus):
    unigram_ranking, bigram_ranking = oracle_rankings(corpus)
    above = len(bigram_ranking) + len(unigram_ranking) + 1  # more than any distinct count
    for n_unigrams, n_bigrams in [(1, 0), (1, 1), (above, 0), (above, 1), (above, above)]:
        vocab = build_vocabulary(corpus, n_unigrams, n_bigrams)
        unigrams = [term for term, _ in unigram_ranking[:n_unigrams]]
        bigrams = [term for term, _ in bigram_ranking[:n_bigrams]]
        assert vocab.unigram_index == {term: i for i, term in enumerate(unigrams)}
        assert vocab.bigram_index == {
            term: len(unigrams) + i for i, term in enumerate(bigrams)
        }


RAW_WORDS = ["a", "a,", "(a)", "A!", "b", "b...", "'b'", "c", "zz", ":)", "http://x.y", "@who"]


@given(st.lists(st.lists(st.sampled_from(RAW_WORDS), max_size=9).map(" ".join), max_size=12))
def test_a_normalized_batch_equals_the_reference(raws):
    # raw forms that clean to one token have ids of their own
    batch = normalize_batch(raws)
    unigrams, bigrams = ngram_counts(batch)
    assert (ranked(unigrams), ranked(bigrams)) == oracle_rankings(list(batch))


def test_repeated_and_unused_words():
    # ids 0 and 2 both stand for "a", and "x" is listed but never used
    batch = TokenBatch(
        ["a", "b", "a", "x"], np.array([0, 1, 2, 2, 0, 1], np.int32), np.array([0, 0, 1, 6], np.int32)
    )
    tweets = [[], ["a"], ["b", "a", "a", "a", "b"]]
    assert list(batch) == tweets
    unigrams, bigrams = ngram_counts(batch)
    assert (ranked(unigrams), ranked(bigrams)) == oracle_rankings(tweets)


# ties in both rankings ("good day" and "bad day" twice each), and every
# marker the statistics count
RAW_TWEETS = [
    "good day @alice :) http://x.co/a",
    "bad day :( @bob @carol",
    "good day again :) :(",
    "bad day www.example.com",
    "",
    "nothing",
]


@pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
def test_stats_command_equals_the_reference(labeled, tmp_path, capsys):
    path = tmp_path / "tweets.csv"
    labels = [Sentiment(i % 2) for i in range(len(RAW_TWEETS))]
    with open(path, "w", encoding="utf-8", newline="") as sink:
        writer = csv.writer(sink, lineterminator="\n")
        for i, (text, label) in enumerate(zip(RAW_TWEETS, labels)):
            writer.writerow([i, int(label), text] if labeled else [i, text])
    argv = ["stats", str(path), "--rank-unigrams", str(tmp_path / "u.csv")]
    argv += ["--rank-bigrams", str(tmp_path / "b.csv")]
    assert main(argv if labeled else [*argv, "--unlabeled"]) == 0

    tokens = list(normalize_batch(RAW_TWEETS))
    expected = corpus_stats_oracle(zip(tokens, labels if labeled else [None] * len(tokens)))
    assert capsys.readouterr().out == format_stats(expected) + "\n"
    unigram_ranking, bigram_ranking = oracle_rankings(tokens)
    assert any(a[1] == b[1] for a, b in zip(bigram_ranking, bigram_ranking[1:]))  # a tie
    for name, ranking in [("u.csv", unigram_ranking), ("b.csv", bigram_ranking)]:
        with open(tmp_path / name, encoding="utf-8", newline="") as source:
            rows = list(csv.reader(source))
        terms = [term if isinstance(term, str) else " ".join(term) for term, _ in ranking]
        assert rows == [["rank", "term", "count"]] + [
            [str(rank), term, str(count)]
            for rank, (term, (_, count)) in enumerate(zip(terms, ranking), 1)
        ]


# empty tweets first, last and next to each other, and one-token tweets at
# the edges: the pair after each tweet's last token must not be counted
BOUNDARY_CORPORA = [
    [[], ["good", "day"], []],
    [[], [], ["good", "day", "good"], [], [], ["day", "good"], [], []],
    [["good"], ["day", "good"], ["day"]],
    [["good"], [], ["good"], ["good", "good"], [], ["day"]],
    [["day"], ["good"]],
    [["good"]],
    [[], []],
]


@pytest.mark.parametrize("corpus", BOUNDARY_CORPORA)
def test_tweet_boundaries_equal_the_reference(corpus):
    unigrams, bigrams = ngram_counts(corpus)
    assert (ranked(unigrams), ranked(bigrams)) == oracle_rankings(corpus)


@pytest.mark.parametrize("corpus", BOUNDARY_CORPORA)
def test_stats_rank_csvs_at_tweet_boundaries(corpus, tmp_path):
    path = tmp_path / "tweets.csv"
    with open(path, "w", encoding="utf-8", newline="") as sink:
        csv.writer(sink, lineterminator="\n").writerows(
            [i, i % 2, " ".join(tweet)] for i, tweet in enumerate(corpus)
        )
    argv = ["stats", str(path), "--rank-unigrams", str(tmp_path / "u.csv")]
    assert main([*argv, "--rank-bigrams", str(tmp_path / "b.csv")]) == 0

    assert list(normalize_batch(" ".join(tweet) for tweet in corpus)) == corpus
    for name, ranking in zip(["u.csv", "b.csv"], oracle_rankings(corpus)):
        with open(tmp_path / name, encoding="utf-8", newline="") as source:
            rows = list(csv.reader(source))
        assert rows == [["rank", "term", "count"]] + [
            [str(rank), term if isinstance(term, str) else " ".join(term), str(count)]
            for rank, (term, count) in enumerate(ranking, 1)
        ]
