"""Word-counting baseline over a positive/negative opinion lexicon."""

from __future__ import annotations

from dataclasses import dataclass

from tweetiment.errors import DataError, LexiconConflictError
from tweetiment.sentiment import Sentiment


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
    words = set()
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                stripped = line.strip()
                if not stripped or stripped.startswith(";"):
                    continue
                words.add(stripped.lower())
    except UnicodeDecodeError as error:
        raise DataError(f"cannot read lexicon file {path}: {error}") from None
    return frozenset(words)


def load_opinion_lexicon(positive_path, negative_path) -> OpinionLexicon:
    """Load the two word-list files, lowercasing entries to match
    normalized tokens.  Raises DataError when a file is not UTF-8."""
    return OpinionLexicon(
        positive_words=_read_word_file(positive_path),
        negative_words=_read_word_file(negative_path),
    )


def baseline_classify(tweet, lexicon: OpinionLexicon) -> Sentiment:
    """Count lexicon hits per polarity; ties go to positive."""
    positive_hits = 0
    negative_hits = 0
    for token in tweet:
        if token in lexicon.positive_words:
            positive_hits += 1
        elif token in lexicon.negative_words:
            negative_hits += 1
    if positive_hits >= negative_hits:
        return Sentiment.POSITIVE
    return Sentiment.NEGATIVE
