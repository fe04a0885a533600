"""
N-gram features and the vocabulary
==================================

Normalized tweets become the rows of one sparse document matrix over a
frequency-ranked vocabulary of top unigrams and bigrams.
"""

from pathlib import Path

from tweetiment import (
    FREQUENCY,
    PRESENCE,
    build_vocabulary,
    ngram_counts,
    normalize_batch,
    normalize_tweet,
    parse_labeled_csv,
    vectorize,
)
from tweetiment.features import document_matrix

HERE = Path(__file__).parent

with open(HERE / "sample_tweets.csv", encoding="utf-8", newline="") as stream:
    records = list(parse_labeled_csv(stream))
# one normalize_batch call runs the word rules once per distinct word
corpus = list(normalize_batch(r.text for r in records))

print(f"{len(corpus)} tweets, e.g. {corpus[0]}")
print()

# rank-frequency: the head of the unigram distribution.  ngram_counts counts
# and ranks unigrams and bigrams in one pass; terms(8) looks up only the
# first 8 ranks' terms
unigrams, _ = ngram_counts(corpus)
print("rank  term          count")
for rank, (term, count) in enumerate(zip(unigrams.terms(8), unigrams.counts.tolist()), 1):
    print(f"{rank:4d}  {term:12}  {count}")
print()

# the vocabulary indexes the top-N unigrams first, then the top bigrams, each
# term's index its position; ties break alphabetically so the mapping never
# depends on input order
vocab = build_vocabulary(corpus, n_unigrams=10, n_bigrams=5)
print(f"vocabulary holds {len(vocab)} features")
for index, term in enumerate(vocab.unigrams):
    print(f"  [{index}] {term}")
for index, (first, second) in enumerate(vocab.bigrams, len(vocab.unigrams)):
    print(f"  [{index}] {first} {second}")
print()

# one tweet, two feature modes: vectorize gives a one-row matrix, whose
# .entries maps feature index -> value
tweet = normalize_tweet("this game, this great great game!")
print("tokens:   ", tweet)
print("frequency:", vectorize(tweet, vocab, FREQUENCY).entries)
print("presence: ", vectorize(tweet, vocab, PRESENCE).entries)
print()

# a batch of tweets becomes one matrix in CSR arrays: row d's features are
# indices[indptr[d]:indptr[d + 1]], with their values in data
matrix = document_matrix([tweet, *corpus[:2]], vocab, FREQUENCY)
print("shape:  ", matrix.shape)
print("indptr: ", matrix.indptr.tolist())
print("indices:", matrix.indices.tolist())
print("data:   ", matrix.data.tolist())
