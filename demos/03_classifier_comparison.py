"""
Three classifiers on one corpus
===============================

A lexicon-counting baseline, multinomial Naive Bayes, and a MaxEnt model
trained by both iterative-scaling algorithms, scored side by side.
"""

from pathlib import Path

from tweetiment import (
    FREQUENCY,
    PRESENCE,
    OpinionLexicon,
    TrainerConfig,
    baseline_classify,
    build_vocabulary,
    evaluate,
    format_report,
    maxent_train,
    nb_predict,
    nb_train,
    normalize_batch,
    normalize_tweet,
    parse_labeled_csv,
    vectorize,
)
from tweetiment.features import document_matrix
from tweetiment.models.maxent import maxent_probs
from tweetiment.models.naive_bayes import nb_scores
from tweetiment.sentiment import argmax_labels

HERE = Path(__file__).parent

with open(HERE / "sample_tweets.csv", encoding="utf-8", newline="") as stream:
    records = list(parse_labeled_csv(stream))
tweets = list(normalize_batch(r.text for r in records))
gold = [r.sentiment for r in records]
vocab = build_vocabulary(tweets, n_unigrams=50, n_bigrams=50)

# baseline: count word hits against curated lists, ties go positive
lexicon = OpinionLexicon(
    positive_words=frozenset({"love", "great", "best", "happy", "good"}),
    negative_words=frozenset({"hate", "worst", "bad", "terrible", "awful", "sucks"}),
)
baseline_predictions = [baseline_classify(t, lexicon) for t in tweets]
print(format_report(evaluate(baseline_predictions, gold, model_name="baseline")))
print()

# Naive Bayes on frequency counts: the corpus is one document matrix, a
# row per tweet, paired with its list of labels, and scored in one call
nb_docs = document_matrix(tweets, vocab, FREQUENCY)
nb = nb_train([(nb_docs, gold)], len(vocab), alpha=1.0)
nb_predictions = argmax_labels(nb_scores(nb, nb_docs))
print(format_report(evaluate(nb_predictions, gold, model_name="naive bayes")))
print()

# MaxEnt on presence indicators, once per trainer
me_docs = document_matrix(tweets, vocab, PRESENCE)
for algorithm in ("gis", "iis"):
    config = TrainerConfig(algorithm=algorithm, max_iterations=200, ll_tolerance=1e-9)
    model = maxent_train([(me_docs, gold)], len(vocab), config)
    predictions = argmax_labels(maxent_probs(model, me_docs))
    report = evaluate(predictions, gold, model_name=f"maxent/{algorithm}")
    print(format_report(report))
    history = model.ll_history
    print(f"  log-likelihood {history[0]:.4f} -> {history[-1]:.4f} in {len(history) - 1} updates")
    print()

# the learned models also score unseen text, one tweet (a one-row matrix)
# at a time
for raw in ["what a great best day", "this is awful, I hate it"]:
    doc = vectorize(normalize_tweet(raw), vocab, FREQUENCY)
    label, _ = nb_predict(nb, doc)
    print(f"{raw!r} -> {label.name.lower()}")
