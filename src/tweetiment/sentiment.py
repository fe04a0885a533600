"""Two-class sentiment labels."""

from enum import IntEnum


class Sentiment(IntEnum):
    """Polarity of a tweet: NEGATIVE serializes as 0, POSITIVE as 1."""

    NEGATIVE = 0
    POSITIVE = 1


def argmax_labels(scores) -> list:
    """The larger column of each (negative, positive) score row; ties go positive."""
    members = (Sentiment.NEGATIVE, Sentiment.POSITIVE)
    return [members[wins] for wins in (scores[:, 1] >= scores[:, 0]).tolist()]
