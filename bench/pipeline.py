"""The CLI's train, predict and eval commands run in-process, with spans.

Each phase makes the public calls that the matching command in
`tweetiment.cli` makes, in the same order and with the same settings, and
wraps each call in a span.  A second, untraced pass runs the same code
with a tracer that records nothing; the difference between the two is the
tracing overhead.  After the three phases, `layer_pass` calls the pieces
that `artifact_predict` and `baseline_report` hide (vectorize, the model's
own predict, the baseline classifier) so each layer gets its own time.

Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from tweetiment import dataio
from tweetiment.evaluation import baseline_report, format_report
from tweetiment.features import (
    DEFAULT_BIGRAM_BUDGET,
    DEFAULT_UNIGRAM_BUDGET,
    build_vocabulary,
    vectorize,
)
from tweetiment.models.baseline import baseline_classify, load_opinion_lexicon
from tweetiment.models.maxent import TrainerConfig, maxent_predict, maxent_train
from tweetiment.models.naive_bayes import nb_predict, nb_train
from tweetiment.normalize import DEFAULT_EMOTICONS, normalize_tweet
from tweetiment.serialize import (
    ModelArtifact,
    TrainingMetadata,
    artifact_predict,
    deserialize_model,
    serialize_model,
)

from corpus import PINNED_TOLERANCE, Workload

_KIND = {"nb": "naive_bayes", "maxent": "maxent"}
_NB_ALPHA = 1.0  # the CLI default


class Tracer:
    """Spans in memory: id, name, start, end, parent id, run id, count."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._open: list = []

    @contextmanager
    def span(self, name: str):
        """Time the block; the caller may set the span's `count`."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run_id": self.run_id,
            "count": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


class Untraced:
    """A tracer that records nothing, for the untraced pass."""

    def span(self, name: str):
        return nullcontext({})


@dataclass
class Outcome:
    """What one in-process pass produced, for the checks and the metrics."""

    model_path: str
    trained: bool  # False when the pass used a model file it was given
    artifact: ModelArtifact
    ll_history: tuple  # () for Naive Bayes or when not trained
    train_tweets: list  # normalized train tweets, [] when not trained
    predict_ids: list
    predict_tweets: list
    predict_docs: list  # FeatureVectors of the layer pass
    predict_labels: list  # artifact_predict labels, in file order
    eval_gold: list
    eval_tweets: list
    eval_labels: list
    accuracy: float
    seconds: float  # wall time of the three phases


def _read(path, parse):
    with open(path, encoding="utf-8", newline="") as stream:
        return list(parse(stream))


def _load_model(path) -> ModelArtifact:
    with open(path, encoding="utf-8", newline="") as source:
        return deserialize_model(source)


def _normalize(tracer, records) -> list:
    with tracer.span("normalize.normalize_tweet") as span:
        span["count"] = len(records)
        return [normalize_tweet(r.text, DEFAULT_EMOTICONS) for r in records]


def _artifact_predict(tracer, artifact, tweets) -> list:
    with tracer.span("serialize.artifact_predict") as span:
        span["count"] = len(tweets)
        return [artifact_predict(artifact, tokens) for tokens in tweets]


def train(tracer, workload: Workload, train_csv, model_path):
    """`tweetiment train` with the workload's flags."""
    with tracer.span("cli.train"):
        with tracer.span("dataio.parse_labeled_csv") as span:
            records = _read(train_csv, dataio.parse_labeled_csv)
            span["count"] = len(records)
        tweets = _normalize(tracer, records)
        with tracer.span("features.build_vocabulary") as span:
            vocab = build_vocabulary(
                tweets, n_unigrams=DEFAULT_UNIGRAM_BUDGET, n_bigrams=DEFAULT_BIGRAM_BUDGET
            )
            span["count"] = len(tweets)
        with tracer.span("features.vectorize") as span:
            corpus = [
                (vectorize(tokens, vocab, workload.features), record.sentiment)
                for tokens, record in zip(tweets, records)
            ]
            span["count"] = len(corpus)
        trained_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
        if workload.model == "nb":
            with tracer.span("models.naive_bayes.nb_train") as span:
                model = nb_train(corpus, len(vocab), alpha=_NB_ALPHA)
                span["count"] = len(corpus)
            metadata = TrainingMetadata(
                n_docs=len(corpus),
                trained_at=trained_at,
                feature_mode=workload.features,
                alpha=_NB_ALPHA,
            )
            history = ()
        else:
            trainer = TrainerConfig(
                algorithm=workload.trainer,
                max_iterations=workload.iterations,
                ll_tolerance=PINNED_TOLERANCE,
            )
            with tracer.span("models.maxent.maxent_train") as span:
                model = maxent_train(corpus, len(vocab), trainer)
                span["count"] = len(model.ll_history) - 1
            metadata = TrainingMetadata(
                n_docs=len(corpus),
                trained_at=trained_at,
                feature_mode=workload.features,
                trainer=trainer,
            )
            history = model.ll_history
        artifact = ModelArtifact(
            kind=_KIND[workload.model], vocabulary=vocab, model=model, metadata=metadata
        )
        with tracer.span("serialize.serialize_model") as span:
            with open(model_path, "w", encoding="utf-8", newline="") as sink:
                serialize_model(artifact, sink)
            span["count"] = os.path.getsize(model_path)
    return tweets, history


def predict(tracer, model_path, predict_csv, output_path):
    """`tweetiment predict`."""
    with tracer.span("cli.predict"):
        with tracer.span("serialize.deserialize_model"):
            artifact = _load_model(model_path)
        with tracer.span("dataio.parse_unlabeled_csv") as span:
            records = _read(predict_csv, dataio.parse_unlabeled_csv)
            span["count"] = len(records)
        tweets = _normalize(tracer, records)
        labels = _artifact_predict(tracer, artifact, tweets)
        with tracer.span("dataio.write_predictions_csv"):
            with open(output_path, "w", encoding="utf-8", newline="") as sink:
                dataio.write_predictions_csv(
                    zip((r.tweet_id for r in records), labels), sink
                )
    return artifact, [r.tweet_id for r in records], tweets, labels


def evaluate(tracer, model_path, eval_csv, positive_path, negative_path):
    """`tweetiment eval --baseline-lexicon POS NEG`."""
    with tracer.span("cli.eval"):
        with tracer.span("serialize.deserialize_model"):
            artifact = _load_model(model_path)
        with tracer.span("dataio.parse_labeled_csv") as span:
            records = _read(eval_csv, dataio.parse_labeled_csv)
            span["count"] = len(records)
        tweets = _normalize(tracer, records)
        pairs = [(tokens, r.sentiment) for tokens, r in zip(tweets, records)]
        labels = _artifact_predict(tracer, artifact, tweets)
        with tracer.span("models.baseline.load_opinion_lexicon"):
            lexicon = load_opinion_lexicon(positive_path, negative_path)
        with tracer.span("evaluation.baseline_report") as span:
            report = baseline_report(pairs, lexicon, labels, model_name=artifact.kind)
            span["count"] = len(pairs)
        with tracer.span("evaluation.format_report"):
            format_report(report)
    return [r.sentiment for r in records], tweets, labels, report.accuracy, lexicon


def layer_pass(tracer, artifact, predict_tweets, eval_tweets, lexicon):
    """Time the layers that artifact_predict and baseline_report wrap.

    Returns the predict tweets' feature vectors.
    """
    mode = artifact.metadata.feature_mode
    with tracer.span("bench.layers"):
        with tracer.span("features.vectorize") as span:
            docs = [vectorize(tokens, artifact.vocabulary, mode) for tokens in predict_tweets]
            span["count"] = len(docs)
        if artifact.kind == "naive_bayes":
            with tracer.span("models.naive_bayes.nb_predict") as span:
                for doc in docs:
                    nb_predict(artifact.model, doc)
                span["count"] = len(docs)
        else:
            with tracer.span("models.maxent.maxent_predict") as span:
                for doc in docs:
                    maxent_predict(artifact.model, doc)
                span["count"] = len(docs)
        with tracer.span("models.baseline.baseline_classify") as span:
            for tokens in eval_tweets:
                baseline_classify(tokens, lexicon)
            span["count"] = len(eval_tweets)
    return docs


def run_pass(tracer, workload: Workload, paths: dict, work_dir, tag: str, model_path=None) -> Outcome:
    """Train, predict and eval in-process, then the layer pass.

    Given a `model_path`, the pass skips training and uses that model.
    """
    started = time.perf_counter()
    trained = model_path is None
    if trained:
        model_path = f"{work_dir}/model-{tag}.txt"
        train_tweets, history = train(tracer, workload, paths["train"], model_path)
    else:
        train_tweets, history = [], ()
    artifact, ids, predict_tweets, predict_labels = predict(
        tracer, model_path, paths["predict"], f"{work_dir}/predictions-{tag}.csv"
    )
    gold, eval_tweets, eval_labels, accuracy, lexicon = evaluate(
        tracer, model_path, paths["eval"], paths["positive"], paths["negative"]
    )
    docs = layer_pass(tracer, artifact, predict_tweets, eval_tweets, lexicon)
    return Outcome(
        model_path=model_path,
        trained=trained,
        artifact=artifact,
        ll_history=history,
        train_tweets=train_tweets,
        predict_ids=ids,
        predict_tweets=predict_tweets,
        predict_docs=docs,
        predict_labels=predict_labels,
        eval_gold=gold,
        eval_tweets=eval_tweets,
        eval_labels=eval_labels,
        accuracy=accuracy,
        seconds=time.perf_counter() - started,
    )


def _total(spans, *names) -> tuple[float, int]:
    """Summed duration and count of every span with one of these names."""
    seconds = 0.0
    count = 0
    for span in spans:
        if span["name"] in names:
            seconds += span["end"] - span["start"]
            count += span["count"] or 0
    return seconds, count


def _per_item_us(spans, *names) -> float:
    seconds, count = _total(spans, *names)
    return 1e6 * seconds / count if count else 0.0


def layer_metrics(spans, outcome: Outcome) -> dict:
    """Per-layer values from one traced pass; 0 where a layer did not run."""
    vocab = outcome.artifact.vocabulary
    bigrams = set()
    for tokens in outcome.train_tweets:
        bigrams.update(zip(tokens, tokens[1:]))
    predict_tokens = [t for tokens in outcome.predict_tweets for t in tokens]
    all_tweets = outcome.train_tweets + outcome.predict_tweets + outcome.eval_tweets
    maxent_s, iterations = _total(spans, "models.maxent.maxent_train")
    per_iteration = maxent_s / iterations if iterations else 0.0
    trainer = outcome.artifact.metadata.trainer
    algorithm = trainer.algorithm if trainer else None
    is_maxent = outcome.artifact.kind == "maxent"
    read_s = [s["end"] - s["start"] for s in spans if s["name"] == "serialize.deserialize_model"]
    return {
        "dataio.parse_us_per_tweet": _per_item_us(
            spans, "dataio.parse_labeled_csv", "dataio.parse_unlabeled_csv"
        ),
        "normalize.us_per_tweet": _per_item_us(spans, "normalize.normalize_tweet"),
        "normalize.empty_tweets": sum(1 for tokens in all_tweets if not tokens),
        "features.build_vocabulary_s": _total(spans, "features.build_vocabulary")[0],
        "features.distinct_bigrams": len(bigrams),
        "features.vectorize_us_per_doc": _per_item_us(spans, "features.vectorize"),
        "features.oov_token_rate": (
            sum(1 for t in predict_tokens if t not in vocab.unigram_index) / len(predict_tokens)
        ),
        "features.empty_docs": sum(1 for doc in outcome.predict_docs if not doc.entries),
        "models.naive_bayes.train_s": _total(spans, "models.naive_bayes.nb_train")[0],
        "models.naive_bayes.predict_us_per_doc": _per_item_us(spans, "models.naive_bayes.nb_predict"),
        "models.maxent.iis_s_per_iter": per_iteration if algorithm == "iis" else 0.0,
        "models.maxent.gis_s_per_iter": per_iteration if algorithm == "gis" else 0.0,
        "models.maxent.iterations": iterations,
        "models.maxent.final_log_likelihood": outcome.ll_history[-1] if is_maxent else 0.0,
        "models.maxent.nnz": int(np.count_nonzero(outcome.artifact.model.weights)) if is_maxent else 0,
        "models.maxent.predict_us_per_doc": _per_item_us(spans, "models.maxent.maxent_predict"),
        "models.baseline.classify_us_per_doc": _per_item_us(spans, "models.baseline.baseline_classify"),
        "serialize.write_s": _total(spans, "serialize.serialize_model")[0],
        "serialize.read_s": statistics.median(read_s),
        "serialize.model_bytes": _total(spans, "serialize.serialize_model")[1],
        "evaluation.report_s": _total(
            spans, "evaluation.baseline_report", "evaluation.format_report"
        )[0],
    }


def self_times(spans) -> dict:
    """Per span name: summed duration minus the time its child spans cover."""
    child_time: dict = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["run_id"], span["parent"])
            child_time[key] = child_time.get(key, 0.0) + span["end"] - span["start"]
    totals: dict = {}
    for span in spans:
        own = span["end"] - span["start"] - child_time.get((span["run_id"], span["id"]), 0.0)
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals
