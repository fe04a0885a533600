"""The acceptance suite: one test per shipping criterion.

Each test re-derives its expected values independently of the library
(hand-worked constants, plain-arithmetic oracles, exhaustive
enumeration) and states its tolerance inline.  conftest.py prints a
one-line PASS/FAIL verdict per criterion after the run.
"""

import io
import math
import os
import random
from itertools import product

import numpy as np
import pytest

from sample_data import GOLDEN_TWEETS, STATS_CORPUS, row, rows
from test_maxent import FOUR_DOCS, expectations
from tweetiment.evaluation import corpus_stats
from tweetiment.features import (
    FREQUENCY,
    PRESENCE,
    build_vocabulary,
    vectorize,
)
from tweetiment.models import (
    MaxEntModel,
    OpinionLexicon,
    TrainerConfig,
    baseline_classify,
    maxent_train,
    nb_predict,
    nb_train,
)
from tweetiment.models.maxent import maxent_probs
from tweetiment.models.naive_bayes import nb_scores
from tweetiment.normalize import normalize_tweet, normalize_word
from tweetiment.sentiment import Sentiment
from tweetiment.serialize import (
    ModelArtifact,
    TrainingMetadata,
    deserialize_model,
    serialize_model,
)


def test_criterion_01_normalization_goldens():
    """The five raw/normalized example pairs reproduce token-exactly."""
    for raw, expected in GOLDEN_TWEETS:
        assert normalize_tweet(raw) == expected, raw


def test_criterion_02_word_level_rules():
    """Letter-run compression and hyphen deletion on the worked words."""
    assert normalize_tweet("sooooo happpppy") == ["soo", "happy"]
    assert normalize_word("t-shirt") == "tshirt"


# -- criterion 3 ------------------------------------------------------------
# Every corpus of <= 4 documents over a 3-word vocabulary with per-document
# counts in {0, 1, 2} reaches the trainer only through its sufficient
# statistics: the per-class document counts and per-class summed feature
# counts.  Enumerating all achievable statistics therefore covers every
# such corpus; a direct pass over all two-document corpora double-checks
# that the reduction itself is sound.

_PROBES = [{}, {0: 1}, {1: 1}, {2: 1}, {0: 2, 1: 1, 2: 2}]


def _docs_for(total, n_docs):
    """A canonical doc list realizing the given per-feature count totals."""
    docs, remaining = [], list(total)
    for _ in range(n_docs):
        take = [min(2, r) for r in remaining]
        remaining = [r - t for r, t in zip(remaining, take)]
        docs.append({i: v for i, v in enumerate(take) if v})
    assert all(r == 0 for r in remaining)
    return docs


def _corpus_for(n_neg, n_pos, t_neg, t_pos):
    corpus = [(row(d), Sentiment.NEGATIVE) for d in _docs_for(t_neg, n_neg)]
    corpus += [(row(d), Sentiment.POSITIVE) for d in _docs_for(t_pos, n_pos)]
    return corpus


def _oracle_scores(n_neg, n_pos, t_neg, t_pos, counts):
    """Plain-arithmetic log(P(c) * prod P(w|c)^count) with Laplace alpha=1."""
    n = n_neg + n_pos
    out = []
    for n_c, t_c in ((n_neg, t_neg), (n_pos, t_pos)):
        total_c = sum(t_c)
        value = math.log(n_c / n)
        for i, count in counts.items():
            value += count * math.log((t_c[i] + 1) / (total_c + 3))
        out.append(value)
    return out


def test_criterion_03_nb_matches_exhaustive_oracle():
    """All 41626 distinct small-corpus NB models match the formula to 1e-9."""
    probes = rows(_PROBES, 3)  # scored as one matrix per model
    n_models = 0
    for n_neg, n_pos in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]:
        for t_neg in product(range(2 * n_neg + 1), repeat=3):
            for t_pos in product(range(2 * n_pos + 1), repeat=3):
                model = nb_train(_corpus_for(n_neg, n_pos, t_neg, t_pos), 3, alpha=1.0)
                n_models += 1
                for probe, scores in zip(_PROBES, nb_scores(model, probes)):
                    expected = _oracle_scores(n_neg, n_pos, t_neg, t_pos, probe)
                    assert abs(scores[0] - expected[0]) < 1e-9
                    assert abs(scores[1] - expected[1]) < 1e-9
    assert n_models == 41626

    # soundness of the sufficient-statistics reduction: every actual
    # two-document mixed corpus trains to the identical model
    singles = [dict(zip(range(3), c)) for c in product(range(3), repeat=3)]
    for neg_counts in singles:
        for pos_counts in singles:
            direct = nb_train(
                [
                    (row({i: v for i, v in neg_counts.items() if v}), Sentiment.NEGATIVE),
                    (row({i: v for i, v in pos_counts.items() if v}), Sentiment.POSITIVE),
                ],
                3,
                alpha=1.0,
            )
            t_neg = tuple(neg_counts.get(i, 0) for i in range(3))
            t_pos = tuple(pos_counts.get(i, 0) for i in range(3))
            canonical = nb_train(_corpus_for(1, 1, t_neg, t_pos), 3, alpha=1.0)
            assert np.array_equal(direct.class_log_prior, canonical.class_log_prior)
            assert np.array_equal(
                direct.feature_log_likelihood, canonical.feature_log_likelihood
            )


def test_criterion_04_nb_worked_example():
    """Two-document corpus: P(w0|pos) = 3/4 and P(w0|neg) = 1/3 exactly."""
    model = nb_train(
        [(row({0: 2}), Sentiment.POSITIVE), (row({1: 1}), Sentiment.NEGATIVE)],
        vocab_size=2,
        alpha=1.0,
    )
    assert math.exp(model.feature_log_likelihood[1, 0]) == 0.75
    assert math.exp(model.feature_log_likelihood[0, 0]) == 1 / 3


def test_criterion_05_maxent_constraint_satisfaction():
    """Converged GIS meets the expectation constraints; likelihood is
    monotone; IIS reaches at least GIS's final likelihood."""
    gis = maxent_train(
        FOUR_DOCS,
        vocab_size=3,
        config=TrainerConfig(algorithm="gis", max_iterations=5000, ll_tolerance=1e-13),
    )
    empirical, modeled = expectations(gis, FOUR_DOCS)
    assert np.abs(modeled - empirical).max() < 1e-3

    history = gis.ll_history
    assert all(later >= earlier - 1e-9 for earlier, later in zip(history, history[1:]))

    iis = maxent_train(
        FOUR_DOCS,
        vocab_size=3,
        config=TrainerConfig(algorithm="iis", max_iterations=5000, ll_tolerance=1e-13),
    )
    assert all(
        later >= earlier - 1e-9
        for earlier, later in zip(iis.ll_history, iis.ll_history[1:])
    )
    assert iis.ll_history[-1] >= gis.ll_history[-1] - 1e-6


def test_criterion_06_maxent_spot_values():
    """Zero weights give (0.5, 0.5); a single unit weight gives e/(e+1)."""
    flat = MaxEntModel(weights=np.zeros((2, 3)), vocab_size=3)
    for doc in [row({}), row({0: 1}), row({0: 2, 2: 1})]:
        probs = maxent_probs(flat, doc)[0]
        assert probs[0] == 0.5 and probs[1] == 0.5

    weights = np.zeros((2, 1))
    weights[1, 0] = 1.0
    single = MaxEntModel(weights=weights, vocab_size=1)
    expected = math.e / (math.e + 1)
    assert abs(maxent_probs(single, row({0: 1}))[0][1] - expected) < 1e-12


def test_criterion_07_baseline_tie_rule():
    """Balanced lexicon hits classify positive, whatever the arrangement."""
    lexicon = OpinionLexicon(
        positive_words=frozenset({"up", "warm", "glad"}),
        negative_words=frozenset({"down", "cold", "sad"}),
    )
    rng = random.Random(7)
    positive = sorted(lexicon.positive_words)
    negative = sorted(lexicon.negative_words)
    filler = ["the", "a", "URL", "USER_MENTION", "thing"]
    for _ in range(500):
        hits = rng.randint(0, 4)
        tweet = (
            [rng.choice(positive) for _ in range(hits)]
            + [rng.choice(negative) for _ in range(hits)]
            + [rng.choice(filler) for _ in range(rng.randint(0, 5))]
        )
        rng.shuffle(tweet)
        assert baseline_classify(tweet, lexicon) is Sentiment.POSITIVE


def _synthetic_corpus():
    """A fixed 200-tweet corpus with heavy count ties to stress ordering."""
    rng = random.Random(88)
    pool = [f"w{i:02d}" for i in range(60)] + ["URL", "EMO_POS", "EMO_NEG"]
    return [
        [rng.choice(pool) for _ in range(rng.randint(3, 12))] for _ in range(200)
    ]


def test_criterion_08_vocabulary_determinism():
    """1000 shuffles of the corpus produce identical index maps."""
    corpus = _synthetic_corpus()
    reference = build_vocabulary(corpus, n_unigrams=40, n_bigrams=60)
    rng = random.Random(99)
    for _ in range(1000):
        shuffled = list(corpus)
        rng.shuffle(shuffled)
        rebuilt = build_vocabulary(shuffled, n_unigrams=40, n_bigrams=60)
        assert rebuilt.unigram_index == reference.unigram_index
        assert rebuilt.bigram_index == reference.bigram_index


def test_criterion_09_corpus_stats_hand_computed():
    """Every statistic over the 10-tweet corpus matches the hand counts."""
    stats = corpus_stats(
        [tokens for tokens, _ in STATS_CORPUS], [Sentiment(label) for _, label in STATS_CORPUS]
    )
    assert stats.n_tweets == 10
    assert stats.n_positive == 6
    assert stats.n_negative == 4
    assert stats.user_mentions.total == 4
    assert abs(stats.user_mentions.average - 0.4) < 1e-9
    assert stats.user_mentions.maximum == 2
    assert stats.emoticons.total == 6
    assert stats.emoticons.positive == 3
    assert stats.emoticons.negative == 3
    assert abs(stats.emoticons.average - 0.6) < 1e-9
    assert stats.emoticons.maximum == 3
    assert stats.urls.total == 4
    assert abs(stats.urls.average - 0.4) < 1e-9
    assert stats.urls.maximum == 2
    assert stats.unigrams.total == 30
    assert stats.unigrams.unique == 15
    assert abs(stats.unigrams.average - 3.0) < 1e-9
    assert stats.unigrams.maximum == 5
    assert stats.bigrams.total == 20
    assert stats.bigrams.unique == 19
    assert abs(stats.bigrams.average - 2.0) < 1e-9
    assert stats.bigrams.maximum is None


def _random_doc_suite():
    rng = random.Random(1010)
    pool = [f"tok{i}" for i in range(40)] + ["URL", "EMO_POS", "EMO_NEG"]
    tweets = [
        [rng.choice(pool) for _ in range(rng.randint(1, 10))] for _ in range(100)
    ]
    labels = [Sentiment(rng.randint(0, 1)) for _ in range(100)]
    return tweets, labels


def test_criterion_10_model_round_trip():
    """Serialized NB and MaxEnt models reproduce every prediction on a
    100-document randomized suite after deserialization."""
    tweets, labels = _random_doc_suite()
    vocab = build_vocabulary(tweets, n_unigrams=30, n_bigrams=20)

    nb_corpus = [(vectorize(t, vocab, FREQUENCY), y) for t, y in zip(tweets, labels)]
    nb_model = nb_train(nb_corpus, len(vocab), alpha=1.0)
    nb_meta = TrainingMetadata(
        n_docs=100, trained_at="2026-03-01T00:00:00", feature_mode=FREQUENCY, alpha=1.0
    )

    me_corpus = [(vectorize(t, vocab, PRESENCE), y) for t, y in zip(tweets, labels)]
    me_config = TrainerConfig(algorithm="gis", max_iterations=50, ll_tolerance=1e-9)
    me_model = maxent_train(me_corpus, len(vocab), me_config)
    me_meta = TrainingMetadata(
        n_docs=100,
        trained_at="2026-03-01T00:00:00",
        feature_mode=PRESENCE,
        trainer=me_config,
    )

    for kind, model, meta, corpus in [
        ("naive_bayes", nb_model, nb_meta, nb_corpus),
        ("maxent", me_model, me_meta, me_corpus),
    ]:
        artifact = ModelArtifact(kind=kind, vocabulary=vocab, model=model, metadata=meta)
        sink = io.StringIO()
        serialize_model(artifact, sink)
        restored = deserialize_model(io.StringIO(sink.getvalue())).model
        for doc, _ in corpus:
            if kind == "naive_bayes":
                before, before_scores = nb_predict(model, doc)
                after, after_scores = nb_predict(restored, doc)
                assert np.array_equal(after_scores, before_scores)
            else:
                before = np.argmax(maxent_probs(model, doc)[0])
                after = np.argmax(maxent_probs(restored, doc)[0])
                assert np.array_equal(
                    maxent_probs(restored, doc)[0], maxent_probs(model, doc)[0]
                )
            assert after == before


def test_criterion_11_full_scale_stats():
    """Optional: corpus statistics on an externally supplied ~800k-tweet
    dataset land near the published per-tweet figures."""
    path = os.environ.get("TWEETIMENT_FULL_DATASET")
    if not path:
        pytest.skip("no full-scale dataset supplied (set TWEETIMENT_FULL_DATASET)")
    from tweetiment.dataio import parse_labeled_csv

    with open(path, encoding="utf-8", newline="") as stream:
        records = list(parse_labeled_csv(stream, lenient=True))
    stats = corpus_stats(
        [normalize_tweet(r.text) for r in records], [r.sentiment for r in records]
    )
    assert abs(stats.unigrams.average - 12.279) <= 0.5
    assert abs(stats.unigrams.unique - 181232) <= 0.10 * 181232
