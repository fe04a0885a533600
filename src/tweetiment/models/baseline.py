"""Word-counting baseline over a positive/negative opinion lexicon."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tweetiment.dataio import read_line_list
from tweetiment.errors import LexiconConflictError
from tweetiment.normalize import TokenBatch
from tweetiment.sentiment import Sentiment, argmax_labels


@dataclass(frozen=True)
class OpinionLexicon:
    """Curated positive and negative word lists.

    Either side may be empty (the classifier then leans on the tie rule),
    but a word claimed by both sides is rejected outright.
    """

    positive_words: frozenset[str]
    negative_words: frozenset[str]

    def __post_init__(self):
        conflicts = self.positive_words & self.negative_words
        if conflicts:
            raise LexiconConflictError(
                "words listed with both polarities: " + ", ".join(sorted(conflicts))
            )


def _read_word_file(path) -> frozenset[str]:
    # One word per line; ';' opens a comment line (the convention of the
    # widely circulated opinion-lexicon files).
    return frozenset(word.lower() for word in read_line_list(path, "lexicon", ";"))


def load_opinion_lexicon(positive_path, negative_path) -> OpinionLexicon:
    """Load the two word-list files, lowercasing entries to match
    normalized tokens.  Raises DataError when a file is not UTF-8."""
    return OpinionLexicon(
        positive_words=_read_word_file(positive_path),
        negative_words=_read_word_file(negative_path),
    )


def baseline_predict_many(tweets, lexicon: OpinionLexicon) -> list:
    """Classify normalized tweets, a TokenBatch or token lists, by their
    count of lexicon hits per polarity; ties go to positive."""
    batch = TokenBatch.of(tweets)
    sides = (lexicon.negative_words, lexicon.positive_words)  # argmax_labels' column order
    return argmax_labels(np.column_stack([batch.counts_in(words) for words in sides]))


def baseline_classify(tweet, lexicon: OpinionLexicon) -> Sentiment:
    """Classify one normalized token list: a one-row baseline_predict_many."""
    return baseline_predict_many([tweet], lexicon)[0]
