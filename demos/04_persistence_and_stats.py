"""
Corpus statistics and model persistence
=======================================

The stats table summarizes a normalized corpus; trained models round-trip
through a versioned text file without losing a single bit of precision.
"""

import tempfile
from pathlib import Path

from tweetiment import (
    FREQUENCY,
    ModelArtifact,
    TrainingMetadata,
    artifact_predict,
    build_vocabulary,
    corpus_stats,
    deserialize_model,
    format_stats,
    nb_train,
    normalize_batch,
    normalize_tweet,
    parse_labeled_csv,
    serialize_model,
)
from tweetiment.features import document_matrix

HERE = Path(__file__).parent

with open(HERE / "sample_tweets.csv", encoding="utf-8", newline="") as stream:
    records = list(parse_labeled_csv(stream))
# one batch of token ids serves the statistics, the vocabulary and the matrix
tweets = normalize_batch(r.text for r in records)
labels = [r.sentiment for r in records]

print(format_stats(corpus_stats(tweets, labels)))
print()

# train, wrap, save
vocab = build_vocabulary(tweets, n_unigrams=30, n_bigrams=20)
corpus = [(document_matrix(tweets, vocab, FREQUENCY), labels)]
model = nb_train(corpus, len(vocab), alpha=1.0)
artifact = ModelArtifact(
    kind="naive_bayes",
    vocabulary=vocab,
    model=model,
    metadata=TrainingMetadata(
        n_docs=len(labels),
        trained_at="2026-08-22T12:00:00+00:00",
        feature_mode=FREQUENCY,
        alpha=1.0,
    ),
)

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "sample.model"
    with open(path, "w", encoding="utf-8") as sink:
        serialize_model(artifact, sink)

    print(f"model file is {path.stat().st_size} bytes of plain text:")
    lines = path.read_text(encoding="utf-8").splitlines()
    for line in lines[:6]:
        print(f"  {line}")
    print(f"  ... {len(lines) - 6} more lines")
    print()

    with open(path, encoding="utf-8") as source:
        restored = deserialize_model(source)

# the restored artifact classifies raw token lists directly
for raw in ["best game ever :)", "what a terrible, awful day"]:
    label = artifact_predict(restored, normalize_tweet(raw))
    print(f"{raw!r} -> {label.name.lower()}")

# and its parameters are the originals, exactly
same = (restored.model.feature_log_likelihood == model.feature_log_likelihood).all()
print(f"\nparameters identical after round trip: {same}")
