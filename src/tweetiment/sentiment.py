"""Two-class sentiment labels."""

from enum import IntEnum
from numbers import Integral

from tweetiment.errors import DataError


class Sentiment(IntEnum):
    """Polarity of a tweet: NEGATIVE serializes as 0, POSITIVE as 1."""

    NEGATIVE = 0
    POSITIVE = 1


def argmax_labels(scores) -> list:
    """The larger column of each (negative, positive) score row; ties go positive."""
    members = (Sentiment.NEGATIVE, Sentiment.POSITIVE)
    return [members[wins] for wins in (scores[:, 1] >= scores[:, 0]).tolist()]


def check_labels(labels) -> list:
    """`labels` as a list; DataError names the first that is not an integer 0 or 1."""
    labels = list(labels)
    if set(map(type, labels)) <= {Sentiment}:  # each is 0 or 1: the common case, checked at once
        return labels
    for label in labels:
        if not isinstance(label, Integral) or label not in (0, 1):
            raise DataError(f"labels must be 0 or 1, got {label!r}")
    return labels
