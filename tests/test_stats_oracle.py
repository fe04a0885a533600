"""`corpus_stats` against the counting loop it replaced.

The statistics now read their n-gram totals and unique counts from the
rankings of `features.ngram_counts`, and their marker totals from per-tweet
counts.  The loop below is the implementation they replaced, kept as the
reference: both must return equal `CorpusStats` on any corpus, labeled,
partly labeled or unlabeled.
"""

from hypothesis import given
from hypothesis import strategies as st

from tweetiment.evaluation import (
    CorpusStats,
    EmoticonStats,
    NgramStats,
    TokenStats,
    corpus_stats,
)
from tweetiment.normalize import (
    EMO_NEG_TOKEN,
    EMO_POS_TOKEN,
    URL_TOKEN,
    USER_MENTION_TOKEN,
    TokenBatch,
)
from tweetiment.sentiment import Sentiment


def corpus_stats_oracle(corpus) -> CorpusStats:
    """The running-counter implementation of corpus_stats."""
    n_tweets = 0
    labels: list = []
    all_labeled = True

    mention_total = mention_max = 0
    url_total = url_max = 0
    emo_pos_total = emo_neg_total = emo_max = 0
    unigram_total = unigram_max = 0
    unique_unigrams: set = set()
    bigram_total = 0
    unique_bigrams: set = set()

    for tokens, label in corpus:
        n_tweets += 1
        if label is None:
            all_labeled = False
        else:
            labels.append(label)

        mentions = sum(1 for t in tokens if t == USER_MENTION_TOKEN)
        urls = sum(1 for t in tokens if t == URL_TOKEN)
        emo_pos = sum(1 for t in tokens if t == EMO_POS_TOKEN)
        emo_neg = sum(1 for t in tokens if t == EMO_NEG_TOKEN)

        mention_total += mentions
        mention_max = max(mention_max, mentions)
        url_total += urls
        url_max = max(url_max, urls)
        emo_pos_total += emo_pos
        emo_neg_total += emo_neg
        emo_max = max(emo_max, emo_pos + emo_neg)

        unigram_total += len(tokens)
        unigram_max = max(unigram_max, len(tokens))
        unique_unigrams.update(tokens)
        bigram_total += max(0, len(tokens) - 1)
        unique_bigrams.update(zip(tokens, tokens[1:]))

    def avg(total):
        return total / n_tweets if n_tweets else 0.0

    emo_total = emo_pos_total + emo_neg_total
    n_positive = sum(1 for label in labels if label is Sentiment.POSITIVE)
    return CorpusStats(
        n_tweets=n_tweets,
        n_positive=n_positive if all_labeled else None,
        n_negative=len(labels) - n_positive if all_labeled else None,
        user_mentions=TokenStats(mention_total, avg(mention_total), mention_max),
        emoticons=EmoticonStats(
            emo_total, emo_pos_total, emo_neg_total, avg(emo_total), emo_max
        ),
        urls=TokenStats(url_total, avg(url_total), url_max),
        unigrams=NgramStats(
            unigram_total, len(unique_unigrams), avg(unigram_total), unigram_max
        ),
        bigrams=NgramStats(
            bigram_total, len(unique_bigrams), avg(bigram_total), None
        ),
    )


tokens = st.lists(
    st.sampled_from(
        [URL_TOKEN, USER_MENTION_TOKEN, EMO_POS_TOKEN, EMO_NEG_TOKEN, "url", "a", "b", "c"]
    ),
    max_size=12,
)
labels = st.sampled_from([Sentiment.NEGATIVE, Sentiment.POSITIVE])
corpora = st.one_of(
    st.lists(st.tuples(tokens, labels), max_size=10),
    st.lists(st.tuples(tokens, st.none()), max_size=10),
    st.lists(st.tuples(tokens, st.one_of(st.none(), labels)), max_size=10),
)


@given(corpora)
def test_equals_the_counting_loop(corpus):
    expected = corpus_stats_oracle(corpus)
    tweets, labels = [tokens for tokens, _ in corpus], [label for _, label in corpus]
    assert corpus_stats(tweets, labels) == expected
    assert corpus_stats(iter(tweets), iter(labels)) == expected  # one-pass iterables
    assert corpus_stats(TokenBatch.of(tweets), labels) == expected
