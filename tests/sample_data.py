"""Hand-checked fixtures shared across test modules.

Expected values here were worked out by hand (or with a throwaway script)
before the implementation existed; tests treat them as frozen.
"""

import numpy as np
import pytest

from tweetiment.errors import DataError
from tweetiment.features import DocumentMatrix
from tweetiment.models import TrainerConfig, maxent_train, nb_train
from tweetiment.sentiment import Sentiment

def rows(entries_list, width=None) -> DocumentMatrix:
    """A DocumentMatrix with one row per index -> value dict, built directly
    (document_matrix only makes counts).  The width defaults to one past
    the largest index."""
    indptr, indices, data = [0], [], []
    for entries in entries_list:
        for index, value in sorted(entries.items()):
            indices.append(index)
            data.append(float(value))
        indptr.append(len(indices))
    if width is None:
        width = max(indices, default=-1) + 1
    arrays = np.array(data, float), np.array(indices, np.intp), np.array(indptr, np.intp)
    return DocumentMatrix(*arrays, shape=(len(entries_list), width))


def row(entries) -> DocumentMatrix:
    """A one-row DocumentMatrix of an index -> value dict."""
    return rows([entries])


# Raw tweet -> expected token sequence.  Covers URL, mention, hashtag,
# emoticon (incl. one glued to the following word), elongation, and
# trailing-punctuation handling.
GOLDEN_TWEETS = [
    (
        "misses Swimming Class. http://plurk.com/p/12nt0b",
        ["misses", "swimming", "class", "URL"],
    ),
    (
        "@98PXYRochester HEYYYYYYYYY!! its Fer from Chile again",
        ["USER_MENTION", "heyy", "its", "fer", "from", "chile", "again"],
    ),
    (
        "Sometimes, You gotta hate #Windows updates.",
        ["sometimes", "you", "gotta", "hate", "windows", "updates"],
    ),
    (
        "@Santiago_Steph hii come talk to me i got candy :)",
        ["USER_MENTION", "hii", "come", "talk", "to", "me", "i", "got", "candy", "EMO_POS"],
    ),
    (
        "@bolly47 oh no :(r.i.p. your bella",
        ["USER_MENTION", "oh", "no", "EMO_NEG", "r.i.p", "your", "bella"],
    ),
]

# Word-level rule spot checks: input -> normalize_word output (None = dropped).
WORD_CASES = [
    ("sooooo", "soo"),
    ("happpppy", "happy"),
    ("t-shirt", "tshirt"),
    ("!!!", None),
    ("r.i.p.", "r.i.p"),
    ("don't", "dont"),
    ("2fast", None),
    ("", None),
]

# Ten labeled token lists with every statistic worked out by hand:
#   tweets 10 (6 positive / 4 negative)
#   user mentions: total 4, avg 0.4, max 2
#   emoticons: total 6 (3 positive, 3 negative), avg 0.6, max 3
#   urls: total 4, avg 0.4, max 2
#   unigrams: total 30, unique 15, avg 3.0, max 5
#   bigrams: total 20, unique 19, avg 2.0
STATS_CORPUS = [
    (["USER_MENTION", "good", "day", "EMO_POS"], 1),
    (["bad", "day", "EMO_NEG"], 0),
    (["URL", "check", "this", "URL"], 1),
    (["USER_MENTION", "USER_MENTION", "hi"], 1),
    (["EMO_POS", "EMO_POS", "EMO_NEG"], 0),
    (["plain", "words", "only"], 1),
    (["good", "good", "good"], 1),
    (["URL"], 0),
    (["USER_MENTION", "bad", "EMO_NEG", "URL", "now"], 0),
    (["one"], 1),
]

# Training corpora that every trainer rejects with the same DataError:
# case -> ((feature entries, label) pairs, message).  Before the check, a
# NaN or infinite value gave NaN parameters, and a negative one left its
# feature untrained with a wrong log-likelihood.
BAD_TRAINING_CORPORA = {
    "empty": ([], "no training data"),
    "single_class": ([({0: 1}, 1), ({1: 1}, 1)], "degenerate labels"),
    **{
        text: ([({0: float(text)}, 1), ({1: 1}, 0)], "finite and non-negative")
        for text in ("-5.0", "nan", "inf")
    },
}

TRAINERS = {
    "nb": nb_train,
    "gis": lambda corpus, vocab_size: maxent_train(corpus, vocab_size, TrainerConfig("gis")),
    "iis": lambda corpus, vocab_size: maxent_train(corpus, vocab_size, TrainerConfig("iis")),
}


def assert_training_rejected(case, *trainers):
    """Each named trainer raises the case's DataError on its corpus."""
    pairs, message = BAD_TRAINING_CORPORA[case]
    corpus = [(row(entries), Sentiment(label)) for entries, label in pairs]
    for name in trainers:
        with pytest.raises(DataError, match=message):
            TRAINERS[name](corpus, vocab_size=2)
