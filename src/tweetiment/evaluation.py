"""Accuracy reports and corpus statistics over normalized tweets."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from tweetiment.errors import DataError
from tweetiment.features import NgramRanking, ngram_counts
from tweetiment.models.baseline import OpinionLexicon, baseline_predict_many
from tweetiment.normalize import (
    EMO_NEG_TOKEN,
    EMO_POS_TOKEN,
    URL_TOKEN,
    USER_MENTION_TOKEN,
    TokenBatch,
)
from tweetiment.sentiment import check_labels


@dataclass(frozen=True)
class TokenStats:
    """Counts for one special-token kind: corpus total, per-tweet average
    and maximum."""

    total: int
    average: float
    maximum: int


@dataclass(frozen=True)
class EmoticonStats:
    total: int
    positive: int
    negative: int
    average: float
    maximum: int


@dataclass(frozen=True)
class NgramStats:
    """maximum is None where it is not reported (bigrams).  ranking holds
    the corpus-wide n-gram counts the other fields are read from."""

    total: int
    unique: int
    average: float
    maximum: int | None
    ranking: NgramRanking | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CorpusStats:
    """Per-corpus statistics; label counts are None for unlabeled corpora."""

    n_tweets: int
    n_positive: int | None
    n_negative: int | None
    user_mentions: TokenStats
    emoticons: EmoticonStats
    urls: TokenStats
    unigrams: NgramStats
    bigrams: NgramStats


@dataclass(frozen=True)
class EvaluationReport:
    """Accuracy plus the 2x2 confusion table, confusion[gold][predicted]."""

    accuracy: float
    confusion: tuple
    n_docs: int
    model_name: str
    baseline_accuracy: float | None = None

    @property
    def true_negatives(self):
        return self.confusion[0][0]

    @property
    def false_positives(self):
        return self.confusion[0][1]

    @property
    def false_negatives(self):
        return self.confusion[1][0]

    @property
    def true_positives(self):
        return self.confusion[1][1]


def corpus_stats(tweets, labels=None) -> CorpusStats:
    """Aggregate Table-style statistics over normalized tweets, a TokenBatch
    or token lists, and their labels: None, or a 0, 1 or None per tweet.

    Averages are exact totals over tweet count (0 for an empty corpus);
    rounding is left to the renderer.  Sentiment counts are filled only
    when every tweet carries a label; a label list of another length than
    the tweets raises DataError.
    """
    batch = TokenBatch.of(tweets)
    labels = [None] * len(batch) if labels is None else list(labels)
    if len(labels) != len(batch):
        raise DataError(f"{len(labels)} labels for {len(batch)} tweets")
    unigrams, bigrams = ngram_counts(batch)

    def avg(total):
        return total / len(batch) if len(batch) else 0.0

    def marker_stats(*markers):
        counts = batch.counts_in(markers)
        total = int(counts.sum())
        return TokenStats(total, avg(total), int(counts.max(initial=0)))

    def ngram_stats(ranking, maximum):
        total = int(ranking.counts.sum())
        return NgramStats(total, len(ranking.codes), avg(total), maximum, ranking)

    emoticons = marker_stats(EMO_POS_TOKEN, EMO_NEG_TOKEN)
    emo_pos = marker_stats(EMO_POS_TOKEN).total
    emo_neg = emoticons.total - emo_pos
    known = check_labels(label for label in labels if label is not None)
    all_labeled = len(known) == len(labels)
    n_positive = known.count(1)
    return CorpusStats(
        n_tweets=len(batch),
        n_positive=n_positive if all_labeled else None,
        n_negative=len(labels) - n_positive if all_labeled else None,
        user_mentions=marker_stats(USER_MENTION_TOKEN),
        emoticons=EmoticonStats(
            emoticons.total, emo_pos, emo_neg, emoticons.average, emoticons.maximum
        ),
        urls=marker_stats(URL_TOKEN),
        unigrams=ngram_stats(unigrams, int(np.diff(batch.offsets).max(initial=0))),
        bigrams=ngram_stats(bigrams, None),
    )


def evaluate(predictions, gold, model_name: str = "model") -> EvaluationReport:
    """Confusion counts and accuracy for aligned prediction/gold 0/1 label sequences."""
    predictions = check_labels(predictions)
    gold = check_labels(gold)
    if not gold:
        raise DataError("nothing to evaluate: empty gold sequence")
    if len(predictions) != len(gold):
        raise DataError(
            f"prediction/gold length mismatch: {len(predictions)} vs {len(gold)}"
        )
    counts = [[0, 0], [0, 0]]
    for predicted, actual in zip(predictions, gold):
        counts[int(actual)][int(predicted)] += 1
    correct = counts[0][0] + counts[1][1]
    return EvaluationReport(
        accuracy=correct / len(gold),
        confusion=(tuple(counts[0]), tuple(counts[1])),
        n_docs=len(gold),
        model_name=model_name,
    )


def baseline_report(corpus, lexicon: OpinionLexicon, model_predictions, model_name: str = "model") -> EvaluationReport:
    """Evaluate model predictions with the lexicon baseline run alongside.

    `corpus` is (tokens, Sentiment) pairs with gold labels; the returned
    report carries the model's numbers plus baseline_accuracy over the
    same tweets.
    """
    pairs = list(corpus)
    gold = [label for _, label in pairs]
    report = evaluate(model_predictions, gold, model_name=model_name)
    baseline_predictions = baseline_predict_many([tokens for tokens, _ in pairs], lexicon)
    baseline = evaluate(baseline_predictions, gold, model_name="baseline")
    return replace(report, baseline_accuracy=baseline.accuracy)


def _fmt_avg(value: float) -> str:
    return f"{value:.4f}"


def format_stats(stats: CorpusStats) -> str:
    """Plain-text rendering of CorpusStats, averages shown to 4 decimals."""
    lines = [f"tweets          total {stats.n_tweets}"]
    if stats.n_positive is not None:
        lines.append(f"  positive      {stats.n_positive}")
        lines.append(f"  negative      {stats.n_negative}")
    lines.append(
        "user mentions   total {0.total}   avg {1}   max {0.maximum}".format(
            stats.user_mentions, _fmt_avg(stats.user_mentions.average)
        )
    )
    lines.append(
        "emoticons       total {0.total} (positive {0.positive}, negative {0.negative})   "
        "avg {1}   max {0.maximum}".format(
            stats.emoticons, _fmt_avg(stats.emoticons.average)
        )
    )
    lines.append(
        "urls            total {0.total}   avg {1}   max {0.maximum}".format(
            stats.urls, _fmt_avg(stats.urls.average)
        )
    )
    lines.append(
        "unigrams        total {0.total}   unique {0.unique}   avg {1}   max {0.maximum}".format(
            stats.unigrams, _fmt_avg(stats.unigrams.average)
        )
    )
    lines.append(
        "bigrams         total {0.total}   unique {0.unique}   avg {1}   max N/A".format(
            stats.bigrams, _fmt_avg(stats.bigrams.average)
        )
    )
    return "\n".join(lines)


def format_report(report: EvaluationReport) -> str:
    lines = [
        f"{report.model_name} accuracy: {report.accuracy:.4f} on {report.n_docs} tweets",
        "confusion (gold x predicted):",
        f"  gold negative:  predicted negative {report.true_negatives}, positive {report.false_positives}",
        f"  gold positive:  predicted negative {report.false_negatives}, positive {report.true_positives}",
    ]
    if report.baseline_accuracy is not None:
        lines.append(f"baseline accuracy: {report.baseline_accuracy:.4f}")
    return "\n".join(lines)
